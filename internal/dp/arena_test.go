package dp

import (
	"math/rand"
	"testing"

	"repro/internal/table"
	"repro/internal/tmpl"
)

// TestArenaReuseAcrossIterations checks the cross-iteration table arena:
// once a run has warmed the engine's free lists, repeating the same
// schedule must be served entirely from recycled slabs — zero arena
// misses — for every table layout, at one lane and with lane tables
// drawing B×-wide slabs. Table widths are a function of the partition
// tree, not the coloring, so every slab class recurs exactly.
func TestArenaReuseAcrossIterations(t *testing.T) {
	for _, lanes := range []int{1, 4} {
		for _, kind := range []table.Kind{table.Lazy, table.Naive, table.Hash, table.Succinct} {
			rng := rand.New(rand.NewSource(1))
			g := randomGraph(rng, 500, 2500)
			cfg := DefaultConfig()
			cfg.TableKind = kind
			cfg.Mode = Inner
			cfg.Workers = 1
			cfg.Batch = lanes
			e, err := New(g, tmpl.Path(5), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Run(8); err != nil { // warm the free lists
				t.Fatal(err)
			}
			h0, m0 := e.ArenaStats()
			if m0 == 0 {
				t.Fatalf("lanes=%d %v: warm-up reported no arena misses (slabs not arena-backed?)", lanes, kind)
			}
			res, err := e.Run(8)
			if err != nil {
				t.Fatal(err)
			}
			h1, m1 := e.ArenaStats()
			if m1 != m0 {
				t.Fatalf("lanes=%d %v: %d arena misses after warm-up (hits %d)", lanes, kind, m1-m0, h1-h0)
			}
			if h1 <= h0 {
				t.Fatalf("lanes=%d %v: no arena hits on a warm run", lanes, kind)
			}
			if res.Stats.ArenaMisses != 0 {
				t.Fatalf("lanes=%d %v: RunStats reports %d misses on a warm run", lanes, kind, res.Stats.ArenaMisses)
			}
			if res.Stats.ArenaHits != h1-h0 {
				t.Fatalf("lanes=%d %v: RunStats hits %d != engine delta %d", lanes, kind, res.Stats.ArenaHits, h1-h0)
			}
		}
	}
}

// TestArenaReuseBatched is the batched counterpart: lane tables draw
// B×-wide slabs from the same arena, and a warm batched run must also be
// miss-free.
func TestArenaReuseBatched(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomGraph(rng, 400, 1600)
	cfg := DefaultConfig()
	cfg.Batch = 4
	e, err := New(g, tmpl.Path(5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(8); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ArenaMisses != 0 {
		t.Fatalf("warm batched run reported %d arena misses", res.Stats.ArenaMisses)
	}
	if res.Stats.ArenaHits == 0 {
		t.Fatal("warm batched run reported no arena hits")
	}
}

// TestIterationAllocsAfterWarmup asserts the satellite requirement: after
// the arena is warm, a full iteration performs no per-iteration slab
// allocations — only the fixed bookkeeping objects (iteration state,
// maps, table headers, rng) remain, a small constant independent of the
// graph size.
func TestIterationAllocsAfterWarmup(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := randomGraph(rng, 2000, 8000)
	cfg := DefaultConfig()
	cfg.TableKind = table.Naive
	cfg.Workers = 1
	cfg.Mode = Inner
	e, err := New(g, tmpl.Path(7), cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.ColorfulTotal(0) // warm the arena and scratch pool
	_, m0 := e.ArenaStats()
	allocs := testing.AllocsPerRun(10, func() {
		e.ColorfulTotal(1)
	})
	_, m1 := e.ArenaStats()
	if m1 != m0 {
		t.Fatalf("warm iterations performed %d slab allocations (arena misses)", m1-m0)
	}
	// Fixed bookkeeping only: table headers, the batch state, its maps,
	// the rng, the colors recycle path. The 2000-vertex, C(7,h)-wide data
	// slabs (tens of KB each) must all come from the arena.
	budget := 90.0
	if raceEnabled {
		budget = 120.0
	}
	if allocs > budget {
		t.Fatalf("warm iteration allocated %v objects; arena reuse regressed", allocs)
	}
}

// TestChunkFor pins the adaptive work-stealing chunk policy: ~8 chunks
// per worker between the floor and ceiling, and the override knob wins.
func TestChunkFor(t *testing.T) {
	cases := []struct {
		nVerts, workers, want int
	}{
		{1_000, 4, 64},        // below the floor: small graphs keep cheap chunks
		{100_000, 4, 3125},    // in range: nVerts / (workers*8)
		{10_000_000, 4, 4096}, // above the ceiling: preserve stealing on skew
		{512, 1, 64},
		{1_000_000, 16, 4096}, // 1e6/(16*8) = 7812, clamped to the ceiling
		{200_000, 8, 3125},
	}
	for _, c := range cases {
		if got := chunkFor(c.nVerts, c.workers); got != c.want {
			t.Errorf("chunkFor(%d, %d) = %d, want %d", c.nVerts, c.workers, got, c.want)
		}
	}
	chunkOverride = 512
	defer func() { chunkOverride = 0 }()
	if got := chunkFor(1_000_000, 4); got != 512 {
		t.Errorf("chunkOverride ignored: got %d", got)
	}
}
