package fascia

import "testing"

// TestMergeIterations checks the cache-merge identity that fasciad's
// seed-keyed cache relies on: a 6-iteration run at seed s merged with a
// 4-iteration run at seed s+6 is bit-identical to a 10-iteration run at
// seed s.
func TestMergeIterations(t *testing.T) {
	g := testGraph(8)
	tr := PathTemplate(5)
	const seed = 31

	full, err := Count(g, tr, DefaultOptions().WithIterations(10).WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	prefix, err := Count(g, tr, DefaultOptions().WithIterations(6).WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	residual, err := Count(g, tr, DefaultOptions().WithIterations(4).WithSeed(seed+6))
	if err != nil {
		t.Fatal(err)
	}
	merged := MergeIterations(prefix.PerIteration, residual)
	if merged.Count != full.Count || merged.StdErr != full.StdErr {
		t.Fatalf("merged (count %v ± %v) != full run (count %v ± %v)",
			merged.Count, merged.StdErr, full.Count, full.StdErr)
	}
	if merged.Iterations != 10 || merged.Stats.Iterations != 10 {
		t.Fatalf("merged iterations = %d/%d, want 10", merged.Iterations, merged.Stats.Iterations)
	}
	if merged.Stats.CachedIterations != 6 {
		t.Fatalf("CachedIterations = %d, want 6", merged.Stats.CachedIterations)
	}
	for i, x := range merged.PerIteration {
		if x != full.PerIteration[i] {
			t.Fatalf("merged iteration %d: %v != %v", i, x, full.PerIteration[i])
		}
	}

	// Empty prior is the identity.
	same := MergeIterations(nil, residual)
	if same.Count != residual.Count || same.Stats.CachedIterations != 0 {
		t.Fatalf("nil-prior merge changed the result: %+v", same)
	}

	// prior must be copied, not aliased.
	prior := []float64{1, 2}
	m := MergeIterations(prior, Result{})
	prior[0] = 99
	if m.PerIteration[0] != 1 {
		t.Fatal("MergeIterations aliased the prior slice")
	}
	if m.Count != 1.5 || m.Iterations != 2 {
		t.Fatalf("pure-cache merge = %+v", m)
	}
}

// TestOptionsFingerprint pins the fingerprint contract: execution knobs
// proven bit-identical by the property tests do not change it; knobs
// that change the estimate stream do.
func TestOptionsFingerprint(t *testing.T) {
	base := DefaultOptions()
	fp := base.Fingerprint()

	// Execution / lifecycle knobs leave the fingerprint unchanged.
	same := []Options{
		base.WithTable(TableHash),
		base.WithBatch(8),
		base.WithParallel(ParallelOuter),
		base.WithThreads(4),
		base.WithIterations(500),
		base.WithSeed(123),
	}
	for i, o := range same {
		if o.Fingerprint() != fp {
			t.Errorf("execution variant %d changed the fingerprint: %q vs %q", i, o.Fingerprint(), fp)
		}
	}

	// Result-relevant knobs must change it.
	diffColors := base
	diffColors.Colors = 7
	diffPart := base.WithPartition(PartitionBalanced)
	diffShare := base
	diffShare.ShareSubtemplates = true
	diffRoot := base
	diffRoot.RootVertex = 2
	seen := map[string]string{fp: "base"}
	for _, v := range []struct {
		name string
		o    Options
	}{{"colors", diffColors}, {"partition", diffPart}, {"share", diffShare}, {"root", diffRoot}} {
		got := v.o.Fingerprint()
		if prev, dup := seen[got]; dup {
			t.Errorf("%s collides with %s: %q", v.name, prev, got)
		}
		seen[got] = v.name
	}
}
