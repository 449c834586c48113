package graph

import "testing"

func TestFromArcsBasic(t *testing.T) {
	g := MustFromArcs(4, [][2]int32{{0, 1}, {1, 2}, {2, 0}, {0, 1}, {3, 3}})
	if g.N() != 4 || g.A() != 3 {
		t.Fatalf("n=%d a=%d, want 4/3", g.N(), g.A())
	}
	if !g.HasArc(0, 1) || g.HasArc(1, 0) {
		t.Fatal("arc direction wrong")
	}
	if len(g.In(1)) != 1 || g.In(1)[0] != 0 {
		t.Fatalf("In(1) = %v", g.In(1))
	}
	if len(g.Out(2)) != 1 || g.Out(2)[0] != 0 {
		t.Fatalf("Out(2) = %v", g.Out(2))
	}
}

func TestFromArcsErrors(t *testing.T) {
	if _, err := FromArcs(2, [][2]int32{{0, 5}}); err == nil {
		t.Fatal("out-of-range arc accepted")
	}
	if _, err := FromArcs(-1, nil); err == nil {
		t.Fatal("negative n accepted")
	}
}

func TestBidirectionalPair(t *testing.T) {
	g := MustFromArcs(2, [][2]int32{{0, 1}, {1, 0}})
	if g.A() != 2 || !g.HasArc(0, 1) || !g.HasArc(1, 0) {
		t.Fatal("bidirectional pair lost")
	}
}

func TestUnderlying(t *testing.T) {
	g := MustFromArcs(3, [][2]int32{{0, 1}, {1, 0}, {1, 2}})
	u := g.Underlying()
	if u.M() != 2 {
		t.Fatalf("underlying m = %d, want 2 (pair collapses)", u.M())
	}
}
