package fascia

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dp"
)

func testGraph(seed int64) *Graph {
	return ErdosRenyi(40, 120, seed)
}

func TestCountAgainstExact(t *testing.T) {
	g := testGraph(1)
	tr := PathTemplate(4)
	want := float64(ExactCount(g, tr))
	res, err := Count(g, tr, DefaultOptions().WithIterations(500).WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if want == 0 {
		t.Skip("degenerate instance")
	}
	if math.Abs(res.Count-want)/want > 0.10 {
		t.Fatalf("estimate %.1f, exact %.1f", res.Count, want)
	}
	if res.Iterations != 500 || len(res.PerIteration) != 500 {
		t.Fatal("iteration accounting wrong")
	}
	if res.Elapsed <= 0 || res.PeakTableBytes <= 0 {
		t.Fatal("metrics missing")
	}
}

func TestCountPaperTemplatesSmoke(t *testing.T) {
	g := Generate("circuit", 1.0, 7)
	for _, tr := range PaperTemplates() {
		res, err := Count(g, tr, DefaultOptions().WithIterations(2).WithSeed(1))
		if err != nil {
			t.Fatalf("%s: %v", tr.Name(), err)
		}
		if res.Count < 0 || math.IsNaN(res.Count) {
			t.Fatalf("%s: bad count %v", tr.Name(), res.Count)
		}
	}
}

func TestCountLabeled(t *testing.T) {
	g := AssignRandomLabels(testGraph(2), 3, 5)
	lt, err := PathTemplate(3).WithLabels("l", []int32{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	want := float64(ExactCount(g, lt))
	res, err := CountLabeled(g, lt, DefaultOptions().WithIterations(800).WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if want > 0 && math.Abs(res.Count-want)/want > 0.15 {
		t.Fatalf("labeled estimate %.1f, exact %.1f", res.Count, want)
	}
	// Validation paths.
	if _, err := CountLabeled(g, PathTemplate(3), DefaultOptions()); err == nil {
		t.Fatal("unlabeled template accepted by CountLabeled")
	}
	un := testGraph(2)
	if _, err := CountLabeled(un, lt, DefaultOptions()); err == nil {
		t.Fatal("unlabeled graph accepted by CountLabeled")
	}
}

func TestOptionsChaining(t *testing.T) {
	o := DefaultOptions().
		WithIterations(7).
		WithSeed(11).
		WithThreads(2).
		WithTable(TableHash).
		WithPartition(PartitionBalanced).
		WithParallel(ParallelOuter)
	if o.Iterations != 7 || o.Seed != 11 || o.Threads != 2 ||
		o.Table != TableHash || o.Partition != PartitionBalanced || o.Parallel != ParallelOuter {
		t.Fatal("option chaining broken")
	}
	if o.iterations(5) != 7 {
		t.Fatal("iterations resolution wrong")
	}
	acc := DefaultOptions().WithAccuracy(0.5, 0.25)
	if acc.iterations(3) != IterationsFor(0.5, 0.25, 3) {
		t.Fatal("accuracy-derived iterations wrong")
	}
	if DefaultOptions().iterations(3) != 1 {
		t.Fatal("default iterations should be 1")
	}
}

func TestOptionStrings(t *testing.T) {
	if TableLazy.String() != "lazy" || TableNaive.String() != "naive" || TableHash.String() != "hash" {
		t.Fatal("table layout strings")
	}
	if PartitionOneAtATime.String() != "one-at-a-time" || PartitionBalanced.String() != "balanced" {
		t.Fatal("partition strings")
	}
	if ParallelAuto.String() != "auto" || ParallelInner.String() != "inner" || ParallelOuter.String() != "outer" {
		t.Fatal("parallel strings")
	}
	if TableLayout(9).String() == "" || PartitionStrategy(9).String() == "" || ParallelMode(9).String() == "" {
		t.Fatal("unknown enum strings")
	}
}

func TestInvalidOptionEnums(t *testing.T) {
	g := testGraph(3)
	tr := PathTemplate(3)
	bad := DefaultOptions()
	bad.Table = TableLayout(9)
	if _, err := Count(g, tr, bad); err == nil {
		t.Fatal("bad table layout accepted")
	}
	// TableLayout(3) named the removed compressed-row layout; it is
	// unknown now.
	bad.Table = TableLayout(3)
	const unknown = "fascia: unknown table layout 3"
	if _, err := NewEngine(g, tr, bad); err == nil || err.Error() != unknown {
		t.Fatalf("NewEngine with TableLayout(3): %v, want %q", err, unknown)
	}
	if _, err := Count(g, tr, bad); err == nil || err.Error() != unknown {
		t.Fatalf("Count with TableLayout(3): %v, want %q", err, unknown)
	}
	bad = DefaultOptions()
	bad.Partition = PartitionStrategy(9)
	if _, err := Count(g, tr, bad); err == nil {
		t.Fatal("bad partition accepted")
	}
	bad = DefaultOptions()
	bad.Parallel = ParallelMode(9)
	if _, err := Count(g, tr, bad); err == nil {
		t.Fatal("bad parallel mode accepted")
	}
	bad = DefaultOptions()
	bad.Colors = 32
	var wide *dp.RowWidthError
	if _, err := Count(g, PathTemplate(12), bad); !errors.As(err, &wide) {
		t.Fatalf("32 colors on a 12-vertex path: got %v, want a row-width error", err)
	}
	// Star(22), the one tree whose automorphism count saturates an
	// int64, needs split and singleton tables far above the cap.
	var big *dp.TableSizeError
	if _, err := Count(g, StarTemplate(22), DefaultOptions()); !errors.As(err, &big) {
		t.Fatalf("Star(22): got %v, want a table-size error", err)
	}
}

func TestEngineReuse(t *testing.T) {
	g := testGraph(4)
	e, err := NewEngine(g, PathTemplate(3), DefaultOptions().WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	a, err := e.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	// Same engine, same seeds: identical estimates.
	if a.Count != b.Count {
		t.Fatal("engine runs not reproducible")
	}
	colors, prob, aut := e.EngineInternals()
	if colors != 3 || aut != 2 || math.Abs(prob-6.0/27.0) > 1e-12 {
		t.Fatalf("internals %d %v %d", colors, prob, aut)
	}
}

func TestSampleEmbeddingsPublic(t *testing.T) {
	g := testGraph(5)
	tr := MustTemplate("U5-2")
	embs, err := SampleEmbeddings(g, tr, DefaultOptions().WithIterations(20).WithSeed(2), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(embs) != 10 {
		t.Fatalf("got %d embeddings", len(embs))
	}
	e, err := NewEngine(g, tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, emb := range embs {
		if err := e.VerifyEmbedding(emb); err != nil {
			t.Fatal(err)
		}
	}
}

func TestVertexCountsPublic(t *testing.T) {
	g := testGraph(6)
	tr := MustTemplate("U5-2") // orbit vertex 0 is the degree-3 center
	opt := DefaultOptions().WithIterations(400).WithSeed(4)
	opt.RootVertex = 0
	got, err := VertexCounts(g, tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	wantPer := ExactVertexCounts(g, tr, 0)
	var wantTotal, gotTotal float64
	for v := range got {
		gotTotal += got[v]
		wantTotal += float64(wantPer[v])
	}
	if wantTotal == 0 {
		t.Skip("degenerate instance")
	}
	if math.Abs(gotTotal-wantTotal)/wantTotal > 0.15 {
		t.Fatalf("total vertex counts %.1f, exact %.1f", gotTotal, wantTotal)
	}
}

func TestGraphletPipeline(t *testing.T) {
	g := testGraph(7)
	tr := MustTemplate("U5-2")
	est, err := GraphletDegrees(g, tr, 0, 400, DefaultOptions().WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	ex := ExactGraphletDegrees(g, tr, 0)
	agree := GDDAgreement(est, ex)
	if agree < 0.6 {
		t.Fatalf("GDD agreement %.3f too low", agree)
	}
	if GDDAgreement(ex, ex) < 0.999999 {
		t.Fatal("self agreement should be 1")
	}
}

func TestFindMotifsPublic(t *testing.T) {
	g := Generate("circuit", 1.0, 3)
	p, err := FindMotifs("circuit", g, 5, 100, DefaultOptions().WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Trees) != 3 || len(p.Counts) != 3 {
		t.Fatalf("profile sizes wrong: %d trees", len(p.Trees))
	}
	enum, err := EnumerateAllTrees(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	exacts := enum.Counts
	merr, err := MotifMeanRelativeError(p, exacts)
	if err != nil {
		t.Fatal(err)
	}
	if merr > 0.25 {
		t.Fatalf("mean relative error %.3f too high", merr)
	}
}

func TestGenerateAndNetworks(t *testing.T) {
	if len(Networks()) != 10 {
		t.Fatalf("expected 10 presets, got %d", len(Networks()))
	}
	if _, err := Network("enron"); err != nil {
		t.Fatal(err)
	}
	if _, err := Network("bogus"); err == nil {
		t.Fatal("unknown network accepted")
	}
	g := Generate("hpylori", 1.0, 1)
	if g.N() < 300 {
		t.Fatalf("hpylori-like network too small: %d", g.N())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Generate with bad name should panic")
		}
	}()
	Generate("bogus", 1.0, 1)
}

func TestGraphFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g := ErdosRenyi(30, 60, 2)
	if err := SaveGraph(dir+"/g.txt", g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadGraph(dir + "/g.txt")
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatal("file round trip mismatch")
	}
}

func TestTemplateSurface(t *testing.T) {
	if len(PaperTemplates()) != 10 || len(PaperTemplateNames()) != 10 {
		t.Fatal("paper template surface wrong")
	}
	tr, err := ParseTemplate("y", "0-1 1-2")
	if err != nil || !TemplatesIsomorphic(tr, PathTemplate(3)) {
		t.Fatal("parse/isomorphism surface broken")
	}
	if NumFreeTrees(7) != 11 || len(AllTrees(7)) != 11 {
		t.Fatal("free tree surface wrong")
	}
	if StarTemplate(5).Degree(0) != 4 {
		t.Fatal("star surface wrong")
	}
	if _, err := NewTemplate("bad", 3, [][2]int{{0, 1}}, nil); err == nil {
		t.Fatal("invalid template accepted")
	}
	if _, err := TemplateByName("U99-9"); err == nil {
		t.Fatal("unknown template accepted")
	}
}

func TestEnumerateExactEarlyStop(t *testing.T) {
	g := testGraph(8)
	n := 0
	EnumerateExact(g, PathTemplate(3), func(m []int32) bool {
		n++
		return n < 4
	})
	if n != 4 {
		t.Fatalf("early stop at %d", n)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	g := testGraph(9)
	tr := PathTemplate(5)
	opt := DefaultOptions().WithIterations(5).WithSeed(123)
	a, err := Count(g, tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Count(g, tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.PerIteration {
		if a.PerIteration[i] != b.PerIteration[i] {
			t.Fatal("runs with same seed differ")
		}
	}
}

func TestSeededRandHelper(t *testing.T) {
	// rand integration smoke: sampling API takes a caller RNG.
	g := testGraph(10)
	opt := DefaultOptions().WithSeed(77)
	opt.KeepTables = true
	e, err := NewEngine(g, PathTemplate(3), opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SampleEmbeddings(rand.New(rand.NewSource(1)), 3); err != nil {
		t.Fatal(err)
	}
}

func TestCountDistributedPublic(t *testing.T) {
	g := testGraph(11)
	tr := PathTemplate(4)
	opt := DefaultOptions().WithIterations(3).WithSeed(6)
	shared, err := Count(g, tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{1, 3} {
		res, err := CountDistributed(g, tr, ranks, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i := range shared.PerIteration {
			if res.PerIteration[i] != shared.PerIteration[i] {
				t.Fatalf("ranks=%d iter %d: distributed %v, shared %v",
					ranks, i, res.PerIteration[i], shared.PerIteration[i])
			}
		}
		if ranks > 1 && res.CommBytes == 0 {
			t.Fatal("no communication reported")
		}
	}
	if _, err := CountDistributed(g, tr, 0, opt); err == nil {
		t.Fatal("zero ranks accepted")
	}
	// Balanced strategy path.
	if _, err := CountDistributed(g, tr, 2, opt.WithPartition(PartitionBalanced)); err != nil {
		t.Fatal(err)
	}
}

func TestExactCountInducedPublic(t *testing.T) {
	g := testGraph(12)
	tr := PathTemplate(3)
	ind := ExactCountInduced(g, tr)
	non := ExactCount(g, tr)
	if ind > non {
		t.Fatalf("induced %d > non-induced %d", ind, non)
	}
}

func TestRewireGraphPublic(t *testing.T) {
	g := testGraph(13)
	r := RewireGraph(g, 10*g.M(), 3)
	if r.M() != g.M() {
		t.Fatal("rewire changed edge count")
	}
	for v := int32(0); v < int32(g.N()); v++ {
		if r.Degree(v) != g.Degree(v) {
			t.Fatal("rewire changed a degree")
		}
	}
}

func TestFindMotifSignificancePublic(t *testing.T) {
	g := Generate("circuit", 1.0, 9)
	sig, err := FindMotifSignificance("circuit", g, 4, 60, 3, DefaultOptions().WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(sig.Z) != NumFreeTrees(4) {
		t.Fatalf("z-scores for %d trees, want %d", len(sig.Z), NumFreeTrees(4))
	}
	if _, err := FindMotifSignificance("x", g, 4, 5, 1, DefaultOptions()); err == nil {
		t.Fatal("one-sample ensemble accepted")
	}
	bad := DefaultOptions()
	bad.Table = TableLayout(9)
	if _, err := FindMotifSignificance("x", g, 4, 5, 3, bad); err == nil {
		t.Fatal("bad options accepted")
	}
}

func TestCountDirectedPublic(t *testing.T) {
	g := RandomDiGraph(30, 150, 3)
	tr := DiPathTemplate(3)
	want := float64(ExactCountDirected(g, tr))
	if want == 0 {
		t.Skip("degenerate instance")
	}
	res, err := CountDirected(g, tr, DefaultOptions().WithIterations(600).WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Count-want)/want > 0.12 {
		t.Fatalf("directed estimate %.1f, exact %.1f", res.Count, want)
	}
	// Orientation matters: in- and out-stars generally differ.
	arcs := [][2]int32{{0, 1}, {0, 2}, {0, 3}, {4, 0}}
	h, err := NewDiGraph(5, arcs)
	if err != nil {
		t.Fatal(err)
	}
	if ExactCountDirected(h, DiStarOutTemplate(4)) != 1 {
		t.Fatal("out-star count wrong")
	}
	if ExactCountDirected(h, DiStarInTemplate(4)) != 0 {
		t.Fatal("in-star count wrong")
	}
	if _, err := NewDiTemplate("bad", 3, [][2]int{{0, 1}}); err == nil {
		t.Fatal("bad directed template accepted")
	}
	// A template's orientation must match its graph.
	if _, err := Count(g.Underlying(), tr, DefaultOptions()); err == nil {
		t.Fatal("Count accepted an oriented template on an undirected graph")
	}
	if _, err := CountDirected(g, PathTemplate(3), DefaultOptions()); err == nil {
		t.Fatal("CountDirected accepted an unoriented template")
	}
	var big *dp.TableSizeError
	if _, err := CountDirected(g, DiStarOutTemplate(22), DefaultOptions()); !errors.As(err, &big) {
		t.Fatalf("DiStarOut(22): got %v, want a table-size error", err)
	}
	if _, err := CountDirected(g, tr, DefaultOptions().WithIterations(0)); err != nil {
		t.Fatal("default single iteration should work:", err)
	}
	balanced := DefaultOptions().WithIterations(2).WithPartition(PartitionBalanced)
	if _, err := CountDirected(g, tr, balanced); err != nil {
		t.Fatal(err)
	}
}

func TestCountConvergedPublic(t *testing.T) {
	g := testGraph(14)
	tr := PathTemplate(4)
	res, err := CountConverged(g, tr, 0.03, 4000, DefaultOptions().WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	want := float64(ExactCount(g, tr))
	if want == 0 {
		t.Skip("degenerate")
	}
	if math.Abs(res.Count-want)/want > 0.12 {
		t.Fatalf("converged %.1f, exact %.1f after %d iterations", res.Count, want, res.Iterations)
	}
	if _, err := CountConverged(g, tr, -1, 10, DefaultOptions()); err == nil {
		t.Fatal("negative tolerance accepted")
	}
}

func TestGraphletVectorsPublic(t *testing.T) {
	g := testGraph(15)
	templates := []*Template{PathTemplate(3), MustTemplate("U5-2")}
	gdv, err := ComputeGraphletVectors(g, templates, 40, DefaultOptions().WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	// P3: 2 orbits; U5-2 (spider 2,1,1): orbits {center},{2 leaves},{mid},{tip} = 4.
	if len(gdv.Orbits) != 6 {
		t.Fatalf("got %d orbits, want 6", len(gdv.Orbits))
	}
	arith, geom, err := GDVAgreement(gdv, gdv)
	if err != nil || arith < 0.999999 || geom < 0.999999 {
		t.Fatalf("self GDV agreement %v/%v err %v", arith, geom, err)
	}
}

func TestCountCactusPublic(t *testing.T) {
	g := Generate("ecoli", 0.3, 5) // clustered: plenty of triangles
	tr := TriangleTemplate()
	want := float64(ExactCountCactus(g, tr))
	if want == 0 {
		t.Skip("no triangles")
	}
	res, err := CountCactus(g, tr, DefaultOptions().WithIterations(400).WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Count-want)/want > 0.12 {
		t.Fatalf("triangle estimate %.1f, exact %.1f", res.Count, want)
	}
	// Tailed triangle too.
	tt := TailedTriangleTemplate(1)
	wantT := float64(ExactCountCactus(g, tt))
	resT, err := CountCactus(g, tt, DefaultOptions().WithIterations(400).WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	if wantT > 0 && math.Abs(resT.Count-wantT)/wantT > 0.15 {
		t.Fatalf("tailed-triangle estimate %.1f, exact %.1f", resT.Count, wantT)
	}
	// Validation: non-cactus rejected.
	if _, err := NewCactusTemplate("c4", 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}); err == nil {
		t.Fatal("4-cycle accepted")
	}
}

// TestNewCactusTemplate pins which shapes count as triangle cacti: trees,
// the triangle, tailed triangles and the bowtie are accepted; a longer
// cycle, two triangles sharing an edge, and malformed edge lists are
// rejected.
func TestNewCactusTemplate(t *testing.T) {
	for _, c := range []struct {
		name  string
		k     int
		edges [][2]int
		ok    bool
	}{
		{"path", 4, [][2]int{{0, 1}, {1, 2}, {2, 3}}, true},
		{"triangle", 3, [][2]int{{0, 1}, {1, 2}, {0, 2}}, true},
		{"tail", 5, [][2]int{{0, 1}, {1, 2}, {0, 2}, {0, 3}, {3, 4}}, true},
		{"bowtie", 5, [][2]int{{0, 1}, {1, 2}, {0, 2}, {0, 3}, {3, 4}, {0, 4}}, true},
		{"c4", 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}, false},
		{"diamond", 4, [][2]int{{0, 1}, {1, 2}, {0, 2}, {1, 3}, {2, 3}}, false},
		{"disconnected", 4, [][2]int{{0, 1}, {2, 3}}, false},
		{"duplicate", 3, [][2]int{{0, 1}, {1, 0}, {1, 2}}, false},
		{"self-loop", 2, [][2]int{{0, 0}, {0, 1}}, false},
		{"out-of-range", 2, [][2]int{{0, 5}}, false},
	} {
		_, err := NewCactusTemplate(c.name, c.k, c.edges)
		if (err == nil) != c.ok {
			t.Errorf("%s: accepted = %v, want %v (err %v)", c.name, err == nil, c.ok, err)
		}
	}
	for tail := 0; tail <= 3; tail++ {
		tt := TailedTriangleTemplate(tail)
		if tt.K() != 3+tail || tt.NumEdges() != 3+tail || tt.CheckCactus() != nil {
			t.Errorf("TailedTriangleTemplate(%d) = %v, not a %d-vertex triangle cactus", tail, tt, 3+tail)
		}
	}
}
