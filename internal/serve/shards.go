package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	fascia "repro"
	"repro/internal/part"
)

// ShardRegistration is the body of POST /v1/shards: a worker announcing
// itself (or refreshing its graph set) to the coordinator.
type ShardRegistration struct {
	// Addr is the worker's shard-protocol listen address (host:port).
	Addr string `json:"addr"`
	// Graphs lists the graph hashes the worker serves, as 16-digit hex
	// strings. Hex, not numbers: JSON numbers decode through float64,
	// whose 53-bit mantissa silently corrupts uint64 hashes.
	Graphs []string `json:"graphs"`
}

// ShardListEntry is one element of the GET /v1/shards response.
type ShardListEntry struct {
	Addr   string   `json:"addr"`
	Graphs []string `json:"graphs"`
}

// handleAddShard registers a worker: 200 with the shard count, or 400
// for an undecodable body, a missing address, no graphs or a graph hash
// that is not hex. It records the address without dialing it.
func (s *Server) handleAddShard(w http.ResponseWriter, r *http.Request) {
	var reg ShardRegistration
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&reg); err != nil {
		s.httpError(w, http.StatusBadRequest, "decode registration: %v", err)
		return
	}
	if reg.Addr == "" {
		s.httpError(w, http.StatusBadRequest, "missing addr")
		return
	}
	if len(reg.Graphs) == 0 {
		s.httpError(w, http.StatusBadRequest, "shard %s registers no graphs", reg.Addr)
		return
	}
	hashes := make([]uint64, len(reg.Graphs))
	for i, hs := range reg.Graphs {
		h, err := strconv.ParseUint(hs, 16, 64)
		if err != nil {
			s.httpError(w, http.StatusBadRequest, "graph hash %q is not hex: %v", hs, err)
			return
		}
		hashes[i] = h
	}
	n := s.pool.Register(reg.Addr, hashes)
	s.cfg.Logf("serve: shard %s registered with %d graphs (%d shards total)", reg.Addr, len(hashes), n)
	s.writeJSON(w, http.StatusOK, map[string]int{"shards": n})
}

func (s *Server) handleListShards(w http.ResponseWriter, _ *http.Request) {
	infos := s.pool.List()
	out := make([]ShardListEntry, 0, len(infos))
	for _, info := range infos {
		e := ShardListEntry{Addr: info.Addr, Graphs: make([]string, 0, len(info.Graphs))}
		for _, h := range info.Graphs {
			e.Graphs = append(e.Graphs, GraphHashHex(h))
		}
		out = append(out, e)
	}
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleRemoveShard(w http.ResponseWriter, r *http.Request) {
	addr := r.URL.Query().Get("addr")
	if addr == "" {
		s.httpError(w, http.StatusBadRequest, "missing ?addr=")
		return
	}
	if !s.pool.Deregister(addr) {
		s.httpError(w, http.StatusNotFound, "shard %s not registered", addr)
		return
	}
	s.cfg.Logf("serve: shard %s deregistered", addr)
	s.writeJSON(w, http.StatusOK, map[string]bool{"removed": true})
}

// partStrategy maps the public option to the internal partition
// strategy for shard dispatch. The mapping must agree with
// Options.strategy(): dispatching a different strategy than the local
// engine would use breaks the bit-identity contract between the shard
// tier and local fallback.
func partStrategy(p fascia.PartitionStrategy) part.Strategy {
	if p == fascia.PartitionBalanced {
		return part.Balanced
	}
	return part.OneAtATime
}

// GraphHashHex formats a graph hash the way the shard-registration API
// expects it (16-digit hex).
func GraphHashHex(h uint64) string { return fmt.Sprintf("%016x", h) }
