package dp

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/part"
	"repro/internal/tmpl"
)

// TestDirectedColorfulExactEquivalence is the directed keystone: the
// direction-aware DP's colorful total must exactly match brute force.
func TestDirectedColorfulExactEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		n := 10 + int(seed)*2
		g := gen.RandomDigraph(n, int64(n*3), seed)
		k := 2 + int(seed%4)
		dt := tmpl.RandomDiTemplate(k, seed+100)
		for _, strat := range []part.Strategy{part.OneAtATime, part.Balanced} {
			cfg := DefaultConfig()
			cfg.Seed, cfg.Strategy = seed, strat
			e, err := NewDirected(g, dt, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := exact.CountColorfulMappingsDirected(g, dt, e.ColoringFor(seed*13))
			got := e.ColorfulTotal(seed * 13)
			if got != float64(want) {
				t.Fatalf("seed %d k=%d %v: DP %v, exact %d (arcs %v)",
					seed, k, strat, got, want, dt.Arcs())
			}
		}
	}
}

func TestDirectedEstimateConverges(t *testing.T) {
	g := gen.RandomDigraph(30, 120, 5)
	dt := tmpl.MustDiTree("vee", 3, [][2]int{{0, 1}, {2, 1}}) // two arcs into 1
	want := float64(exact.CountDirected(g, dt))
	if want == 0 {
		t.Skip("degenerate instance")
	}
	cfg := DefaultConfig()
	cfg.Seed = 7
	e, err := NewDirected(g, dt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(800)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Estimate-want)/want > 0.12 {
		t.Fatalf("directed estimate %.1f, exact %.1f", res.Estimate, want)
	}
}

func TestEngineValidation(t *testing.T) {
	g := gen.RandomDigraph(10, 20, 1)
	if _, err := NewDirected(nil, tmpl.DiPath(3), DefaultConfig()); err == nil {
		t.Fatal("nil graph accepted")
	}
	cfg := DefaultConfig()
	cfg.Colors = 2
	if _, err := NewDirected(g, tmpl.DiPath(3), cfg); err == nil {
		t.Fatal("too few colors accepted")
	}
	e, _ := NewDirected(g, tmpl.DiPath(3), DefaultConfig())
	if _, err := e.Run(0); err == nil {
		t.Fatal("zero iterations accepted")
	}
	if e.Automorphisms() != 1 {
		t.Fatal("directed path should be rigid")
	}
	// Orientation must match the graph: an oriented template has no
	// undirected meaning, and an unoriented one no directed meaning.
	if _, err := New(g.Underlying(), tmpl.DiPath(3), DefaultConfig()); err == nil {
		t.Fatal("oriented template accepted on an undirected graph")
	}
	if _, err := NewDirected(g, tmpl.Path(3), DefaultConfig()); err == nil {
		t.Fatal("unoriented template accepted on a digraph")
	}
	cfg = DefaultConfig()
	cfg.KeepTables = true
	if _, err := NewDirected(g, tmpl.DiPath(3), cfg); err == nil {
		t.Fatal("KeepTables accepted on a digraph")
	}
}

// TestTableSizeCap pins comb.MaxIndexBytes: 12-vertex trees and the
// 22-vertex stars at 22 colors pass the row-width cap but need hundreds
// of MB of split and singleton tables, and the triangle with three
// 3-vertex tails needs 487 MB of bag-DP split tables plus 38 MB of
// gather and scatter tables, so New and NewDirected refuse them with a
// *TableSizeError before building any table, and CheckTables reports
// the same without a graph. The paper's templates, and the tailed
// triangle at 16 colors, stay below the cap and build.
func TestTableSizeCap(t *testing.T) {
	g := gen.ErdosRenyiM(30, 60, 1)
	dg := gen.RandomDigraph(30, 60, 1)
	cfg := DefaultConfig()
	cfg.Colors = 22
	tails, err := tmpl.ParseGraph("tails", "0-1 1-2 2-0 0-3 3-4 4-5 1-6 6-7 7-8 2-9 9-10 10-11")
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*tmpl.Template{tmpl.MustNamed("U12-1"), tmpl.MustNamed("U12-2"), tmpl.Star(22), tmpl.DiStarOut(22), tails} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var err error
		if tr.Oriented() {
			_, err = NewDirected(dg, tr, cfg)
		} else {
			_, err = New(g, tr, cfg)
		}
		runtime.ReadMemStats(&after)
		var big *TableSizeError
		if !errors.As(err, &big) || big.Bytes <= 0 {
			t.Fatalf("%s at 22 colors: got %v, want a TableSizeError", tr.Name(), err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("%s at 22 colors: refusing allocated %d bytes, want under 1 MiB", tr.Name(), alloc)
		}
		if err := CheckTables(tr, 22, part.OneAtATime); !errors.As(err, &big) {
			t.Errorf("CheckTables(%s, 22): got %v, want a TableSizeError", tr.Name(), err)
		}
	}
	for _, tr := range tmpl.NamedTemplates() {
		if err := CheckTables(tr, 0, part.Balanced); err != nil {
			t.Errorf("%s at its own color count refused: %v", tr.Name(), err)
		}
	}
	cfg.Colors = 16
	if err := CheckTables(tails, 16, part.OneAtATime); err != nil {
		t.Errorf("CheckTables(%s, 16): %v", tails.Name(), err)
	}
	if _, err := New(g, tails, cfg); err != nil {
		t.Errorf("%s at 16 colors refused: %v", tails.Name(), err)
	}
}
