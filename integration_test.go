package fascia

// Integration tests: miniature versions of each paper pipeline driven
// exclusively through the public API, complementing the per-figure
// harness in internal/experiments.

import (
	"math"
	"testing"
)

// TestPipelineCountingAccuracy mirrors Figure 10: on a small network the
// running-mean estimate converges to the exhaustive count within a few
// iterations.
func TestPipelineCountingAccuracy(t *testing.T) {
	g := Generate("circuit", 1.0, 2)
	for _, name := range []string{"U3-1", "U5-1", "U5-2"} {
		tr := MustTemplate(name)
		want := float64(ExactCount(g, tr))
		if want == 0 {
			continue
		}
		res, err := Count(g, tr, DefaultOptions().WithIterations(60).WithSeed(4))
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(res.Count-want) / want; rel > 0.15 {
			t.Errorf("%s: estimate %.0f, exact %.0f (rel %.3f)", name, res.Count, want, rel)
		}
	}
}

// TestPipelineLabeledPruning mirrors Figures 4/6: labels shrink both the
// counts and the table footprint.
func TestPipelineLabeledPruning(t *testing.T) {
	g := Generate("ecoli", 0.4, 3)
	AssignRandomLabels(g, 8, 5)
	base := MustTemplate("U7-1")
	labels := make([]int32, base.K())
	for i := range labels {
		labels[i] = int32(i % 8)
	}
	lt, err := base.WithLabels("U7-1-lab", labels)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions().WithIterations(2).WithSeed(7)
	un, err := Count(g, base, opt)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := CountLabeled(g, lt, opt)
	if err != nil {
		t.Fatal(err)
	}
	if lab.Count >= un.Count {
		t.Fatalf("labeled count %.0f not below unlabeled %.0f", lab.Count, un.Count)
	}
	if lab.PeakTableBytes >= un.PeakTableBytes {
		t.Fatalf("labeled tables %d B not below unlabeled %d B", lab.PeakTableBytes, un.PeakTableBytes)
	}
}

// TestPipelineMotifProfile mirrors Figures 12/13: estimated motif counts
// track the single-pass exact enumerator across all shapes.
func TestPipelineMotifProfile(t *testing.T) {
	g := Generate("hpylori", 0.5, 6)
	k := 5
	prof, err := FindMotifs("hpylori", g, k, 150, DefaultOptions().WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	enum, err := EnumerateAllTrees(g, k)
	if err != nil {
		t.Fatal(err)
	}
	merr, err := MotifMeanRelativeError(prof, enum.Counts)
	if err != nil {
		t.Fatal(err)
	}
	if merr > 0.2 {
		t.Fatalf("mean motif error %.3f", merr)
	}
}

// TestPipelineGDD mirrors Figures 15/16: estimated graphlet degree
// distributions agree with exact ones, improving with iterations.
func TestPipelineGDD(t *testing.T) {
	g := Generate("celegans", 0.3, 4)
	tr := MustTemplate("U5-2")
	exactDist := ExactGraphletDegrees(g, tr, 0)
	var prev float64 = -1
	for _, iters := range []int{1, 200} {
		est, err := GraphletDegrees(g, tr, 0, iters, DefaultOptions().WithSeed(9))
		if err != nil {
			t.Fatal(err)
		}
		agree := GDDAgreement(est, exactDist)
		if agree < 0.3 {
			t.Fatalf("agreement %.3f at %d iterations implausibly low", agree, iters)
		}
		if prev >= 0 && agree < prev-0.25 {
			t.Fatalf("agreement collapsed: %.3f -> %.3f", prev, agree)
		}
		prev = agree
	}
}

// TestPipelineEnumerationSampling verifies the enumeration side: sampled
// embeddings are genuine, distinct occurrences with high probability.
func TestPipelineEnumerationSampling(t *testing.T) {
	g := Generate("gnp", 0.02, 5)
	tr := MustTemplate("U5-1")
	embs, err := SampleEmbeddings(g, tr, DefaultOptions().WithIterations(30).WithSeed(6), 25)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g, tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[string]bool{}
	for _, emb := range embs {
		if err := e.VerifyEmbedding(emb); err != nil {
			t.Fatal(err)
		}
		key := ""
		for _, v := range emb.Mapping {
			key += string(rune(v)) + ","
		}
		distinct[key] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("sampling returned %d distinct embeddings from 25 draws", len(distinct))
	}
}

// TestPipelineAllParallelModesAgree runs the same workload through every
// parallelization mode and the distributed runtime; all per-iteration
// estimates must be identical.
func TestPipelineAllParallelModesAgree(t *testing.T) {
	g := Generate("circuit", 1.0, 8)
	tr := MustTemplate("U5-2")
	opt := DefaultOptions().WithIterations(5).WithSeed(11).WithThreads(4)
	var base []float64
	for _, mode := range []ParallelMode{ParallelInner, ParallelOuter, ParallelHybrid} {
		res, err := Count(g, tr, opt.WithParallel(mode))
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res.PerIteration
			continue
		}
		for i := range base {
			if res.PerIteration[i] != base[i] {
				t.Fatalf("%v diverged at iteration %d", mode, i)
			}
		}
	}
	dres, err := CountDistributed(g, tr, 3, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base {
		if dres.PerIteration[i] != base[i] {
			t.Fatalf("distributed diverged at iteration %d", i)
		}
	}
}

// TestPipelineTableLayoutsAgree runs the same seed through all table
// layouts; estimates must be bit-identical.
func TestPipelineTableLayoutsAgree(t *testing.T) {
	g := Generate("hpylori", 0.6, 2)
	tr := MustTemplate("U5-1")
	opt := DefaultOptions().WithIterations(3).WithSeed(13)
	var base []float64
	for _, layout := range []TableLayout{TableLazy, TableNaive, TableHash} {
		res, err := Count(g, tr, opt.WithTable(layout))
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res.PerIteration
			continue
		}
		for i := range base {
			if res.PerIteration[i] != base[i] {
				t.Fatalf("%v diverged at iteration %d", layout, i)
			}
		}
	}
}

// TestPipelineFileWorkflow exercises the generate → save → load → count
// workflow users of the CLI tools follow.
func TestPipelineFileWorkflow(t *testing.T) {
	dir := t.TempDir()
	g := Generate("circuit", 1.0, 3)
	AssignRandomLabels(g, 4, 1)
	for _, path := range []string{dir + "/g.txt", dir + "/g.bin"} {
		if err := SaveGraph(path, g); err != nil {
			t.Fatal(err)
		}
		g2, err := LoadGraph(path)
		if err != nil {
			t.Fatal(err)
		}
		res1, err := Count(g, MustTemplate("U3-1"), DefaultOptions().WithIterations(2).WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		res2, err := Count(g2, MustTemplate("U3-1"), DefaultOptions().WithIterations(2).WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		if res1.Count != res2.Count {
			t.Fatalf("%s: count changed across save/load: %v vs %v", path, res1.Count, res2.Count)
		}
	}
}
