package tmpl

import "testing"

func TestDiTemplateBasics(t *testing.T) {
	p := DiPath(3) // 0→1→2
	if p.K() != 3 || !p.HasArc(0, 1) || p.HasArc(1, 0) {
		t.Fatal("DiPath wrong")
	}
	if len(p.Arcs()) != 2 {
		t.Fatal("arcs wrong")
	}
	if _, err := NewDiTree("bad", 3, [][2]int{{0, 1}}); err == nil {
		t.Fatal("non-tree skeleton accepted")
	}
	if l, err := p.WithLabels("l", []int32{0, 1, 2}); err != nil || !l.HasArc(0, 1) || l.HasArc(1, 0) {
		t.Fatal("WithLabels dropped the orientation")
	}
}

func TestDiTemplateAutomorphisms(t *testing.T) {
	cases := []struct {
		t    *Template
		want int64
	}{
		{DiPath(2), 1},    // 0→1: flipping reverses the arc
		{DiPath(5), 1},    // directed path: rigid
		{DiStarOut(4), 6}, // 3 out-leaves interchange: 3!
		{DiStarIn(5), 24}, // 4 in-leaves: 4!
		{MustDiTree("mix", 4, [][2]int{{0, 1}, {0, 2}, {3, 0}}), 2}, // two out-leaves swap, in-leaf fixed
	}
	for _, c := range cases {
		if got := c.t.Automorphisms(); got != c.want {
			t.Errorf("Aut(%s) = %d, want %d", c.t.Name(), got, c.want)
		}
	}
}

// TestDiAutomorphismsBruteForce cross-checks the arc-marked AHU count on
// random directed trees.
func TestDiAutomorphismsBruteForce(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		k := 2 + int(seed%5)
		dt := RandomDiTemplate(k, seed)
		want := bruteDiAut(dt)
		if got := dt.Automorphisms(); got != want {
			t.Fatalf("seed %d: Aut = %d, brute %d (arcs %v)", seed, got, want, dt.Arcs())
		}
	}
}

func bruteDiAut(dt *Template) int64 {
	k := dt.K()
	arcs := dt.Arcs()
	var count int64
	perm := make([]int, k)
	used := make([]bool, k)
	var rec func(i int)
	rec = func(i int) {
		if i == k {
			for _, a := range arcs {
				if !dt.HasArc(perm[a[0]], perm[a[1]]) {
					return
				}
			}
			count++
			return
		}
		for v := 0; v < k; v++ {
			if !used[v] {
				used[v] = true
				perm[i] = v
				rec(i + 1)
				used[v] = false
			}
		}
	}
	rec(0)
	return count
}
