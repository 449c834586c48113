package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	fascia "repro"
	"repro/internal/dp"
	"repro/internal/part"
)

// fuzzServer builds a fresh server per fuzz input: two tiny graphs ("g"
// unlabeled, "l" labeled), at most 4 iterations and a 200ms deadline per
// query, no shard workers, and diagnostics discarded.
func fuzzServer(t *testing.T) *Server {
	s := New(Config{
		MaxIterations:     4,
		DefaultIterations: 2,
		MaxTimeout:        200 * time.Millisecond,
		Logf:              func(string, ...any) {},
	})
	if _, err := s.Registry().Add("g", fascia.ErdosRenyi(12, 24, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Registry().Add("l", fascia.AssignRandomLabels(fascia.ErdosRenyi(12, 24, 2), 2, 3)); err != nil {
		t.Fatal(err)
	}
	return s
}

// post sends body to the handler in process and returns the recorded
// response.
func post(s *Server, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// checkErrorShape fails unless a non-2xx response carries the JSON error
// body {"error": "..."} and nothing else.
func checkErrorShape(t *testing.T, rec *httptest.ResponseRecorder) {
	t.Helper()
	if rec.Code >= 200 && rec.Code < 300 {
		return
	}
	var e struct {
		Error string `json:"error"`
	}
	dec := json.NewDecoder(rec.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("status %d body %q is not the JSON error shape (%v)", rec.Code, rec.Body.String(), err)
	}
}

// maxFuzzColors bounds the queries the count target runs: a tree
// template counted with c colors allocates up to C(c, c/2) cells per
// graph vertex and per scratch buffer, so among the queries the row-width
// and index-table caps admit, the target runs only templates and color
// counts up to the paper's largest template size. Queries over either
// cap are fuzzed: the handler must refuse them before allocating.
const maxFuzzColors = 12

// FuzzCountRequest feeds arbitrary bodies to POST /v1/count. No input
// may panic; every status is one handleCount documents (a client's
// input never yields a 500); every non-2xx body is the JSON error shape;
// and every 200 body decodes as a CountResponse within the iteration
// cap.
func FuzzCountRequest(f *testing.F) {
	for _, seed := range []string{
		`{"graph":"g","template":"0-1 1-2","iterations":2,"seed":1}`,
		`{"graph":"g","template":"0-1 1-2 1-3","iterations":4,"seed":7,"per_iteration":true,"no_cache":true}`,
		`{"graph":"g","template":"0-1","adaptive":0.5}`,
		`{"graph":"l","template":"0-1 1-2","template_labels":[0,1,0]}`,
		`{"graph":"g","template":"0-1 1-2","template_labels":[0,1,0]}`,
		`{"graph":"g","template":"0-1 1-2","colors":40}`,
		`{"graph":"g","template":"0-1 1-2","colors":2}`,
		`{"graph":"g","template":"0-1 1-2","colors":5}`,
		`{"graph":"g","template":"0-1 1-2 2-3 3-4 4-5 5-6 6-7 7-8 8-9 9-10 10-11","colors":32}`,
		`{"graph":"g","template":"0-1 0-2 1-3 1-4 2-5 2-6 3-7 3-8 4-9 5-10 6-11","colors":22}`, // U12-2: over the index-table cap
		`{"graph":"g","template":"0-1 1-2","iterations":5}`,
		`{"graph":"g","template":"0-1 1-2","timeout_ms":1}`,
		`{"graph":"g","template":"0-1 1-2","adaptive":-1}`,
		`{"graph":"nope","template":"0-1"}`,
		`{"graph":"g","template":"0-1 1-2 2-0"}`,
		`{"graph":"g"}`,
		`{}`,
		`[]`,
		`{"graph":`,
		``,
	} {
		f.Add([]byte(seed))
	}
	documented := []int{http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusTooManyRequests, http.StatusServiceUnavailable}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req CountRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil {
			if tr, err := fascia.ParseTemplate("q", req.Template); err == nil && max(tr.K(), req.Colors) > maxFuzzColors &&
				dp.CheckTables(tr, req.Colors, part.OneAtATime) == nil {
				return
			}
		}
		rec := post(fuzzServer(t), "/v1/count", body)
		if !slices.Contains(documented, rec.Code) {
			t.Fatalf("status %d not documented for POST /v1/count; body %q", rec.Code, rec.Body.String())
		}
		checkErrorShape(t, rec)
		if rec.Code == http.StatusOK {
			var out CountResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatalf("200 body %q does not decode: %v", rec.Body.String(), err)
			}
			if out.Iterations < 0 || out.Iterations > 4 {
				t.Fatalf("200 response ran %d iterations, cap 4", out.Iterations)
			}
		}
	})
}

// FuzzShardRegistration feeds arbitrary bodies to POST /v1/shards. No
// input may panic; every status is one handleAddShard documents; every
// non-2xx body is the JSON error shape; and an accepted registration is
// listed by GET /v1/shards. Registration never dials the worker, and the
// target issues no count, so no address is contacted.
func FuzzShardRegistration(f *testing.F) {
	for _, seed := range []string{
		`{"addr":"127.0.0.1:9","graphs":["00000000000000ff"]}`,
		`{"addr":"w:1","graphs":["0","ffffffffffffffff"]}`,
		`{"addr":"w:1","graphs":["1ffffffffffffffff"]}`,
		`{"addr":"w:1","graphs":["xyz"]}`,
		`{"addr":"w:1","graphs":[]}`,
		`{"addr":"","graphs":["1"]}`,
		`{"graphs":["1"]}`,
		`{"addr":"w:1","graphs":[1]}`,
		`[]`,
		`{"addr":`,
		``,
	} {
		f.Add([]byte(seed))
	}
	documented := []int{http.StatusOK, http.StatusBadRequest}
	f.Fuzz(func(t *testing.T, body []byte) {
		s := fuzzServer(t)
		rec := post(s, "/v1/shards", body)
		if !slices.Contains(documented, rec.Code) {
			t.Fatalf("status %d not documented for POST /v1/shards; body %q", rec.Code, rec.Body.String())
		}
		checkErrorShape(t, rec)
		if rec.Code != http.StatusOK {
			return
		}
		var reg ShardRegistration
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&reg); err != nil {
			t.Fatalf("accepted body %q does not decode: %v", body, err)
		}
		list := httptest.NewRecorder()
		s.ServeHTTP(list, httptest.NewRequest(http.MethodGet, "/v1/shards", nil))
		var entries []ShardListEntry
		if err := json.Unmarshal(list.Body.Bytes(), &entries); err != nil {
			t.Fatalf("GET /v1/shards body %q: %v", list.Body.String(), err)
		}
		if !slices.ContainsFunc(entries, func(e ShardListEntry) bool { return e.Addr == reg.Addr }) {
			t.Fatalf("accepted shard %q is not listed in %+v", reg.Addr, entries)
		}
	})
}
