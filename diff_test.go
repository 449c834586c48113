package fascia

// Oracle-differential harness: every public counting entry point —
// Count, CountLabeled, CountConverged, CountDistributed — is checked on
// randomized small graphs (n <= 30, k <= 5) against the exhaustive
// internal/exact oracle within statistical tolerance, and every
// layout × batch × parallel-mode combination is checked for
// exact (bit-identical) agreement with the reference configuration
// under a fixed seed. CountDirected gets the same matrix against golden
// estimate bits, plus exact colorful totals against the directed
// oracle. Failures print the seed and full configuration so
// any disagreement is reproducible from the log line alone. The harness
// runs under -race in CI (`make difftest`).

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dp"
	"repro/internal/exact"
	"repro/internal/tmpl"
)

// diffSeed bases every run in the harness; iteration i colors with
// diffSeed+i in every entry point, which is what makes cross-config
// bit-identity and prefix properties hold.
const diffSeed = 101

// refIters sizes the statistical reference run (tight CI against the
// exact count); comboIters sizes the per-combination bit-identity runs.
const (
	refIters   = 300
	comboIters = 24
)

type diffWorkload struct {
	gName string
	g     *Graph
	tName string
	t     *Template
}

// diffWorkloads returns the randomized small (graph, template) pairs the
// harness sweeps: Erdős–Rényi and Barabási–Albert graphs under 30
// vertices, trees up to 5 vertices including a branchy spider.
func diffWorkloads() []diffWorkload {
	er := ErdosRenyi(26, 70, 11)
	ba := BarabasiAlbert(24, 2, 12)
	spider := MustTemplate("U5-2")
	var out []diffWorkload
	for _, g := range []struct {
		name string
		g    *Graph
	}{{"er26", er}, {"ba24", ba}} {
		for _, tc := range []struct {
			name string
			t    *Template
		}{
			{"path3", PathTemplate(3)},
			{"star4", StarTemplate(4)},
			{"path5", PathTemplate(5)},
			{"u5-2", spider},
		} {
			out = append(out, diffWorkload{g.name, g.g, tc.name, tc.t})
		}
	}
	return out
}

// diffCombos enumerates every layout × batch × parallel-mode
// combination of the public options surface.
func diffCombos() []struct {
	name string
	opt  Options
} {
	var out []struct {
		name string
		opt  Options
	}
	for _, layout := range []TableLayout{TableLazy, TableNaive, TableHash} {
		for _, batch := range []int{1, 4} {
			for _, mode := range []ParallelMode{ParallelInner, ParallelOuter, ParallelHybrid} {
				opt := DefaultOptions().
					WithTable(layout).WithBatch(batch).WithParallel(mode).
					WithSeed(diffSeed).WithIterations(comboIters)
				out = append(out, struct {
					name string
					opt  Options
				}{
					fmt.Sprintf("layout=%s batch=%d parallel=%s", layout, batch, mode),
					opt,
				})
			}
		}
	}
	return out
}

// assertOracle checks a run's estimate against the exact count within
// statistical tolerance: 6 standard errors (deterministic under the
// fixed seed — any failure here is a genuine bias, not noise).
func assertOracle(t *testing.T, desc string, res Result, exactCount int64) {
	t.Helper()
	diff := math.Abs(res.Count - float64(exactCount))
	tol := 6*res.StdErr + 1e-9 + 1e-12*float64(exactCount)
	if diff > tol {
		t.Errorf("ORACLE DISAGREEMENT %s seed=%d: estimate %v over %d iterations vs exact %d (|diff| %g > 6σ tolerance %g)",
			desc, diffSeed, res.Count, res.Iterations, exactCount, diff, tol)
	}
}

// refRun executes the reference configuration (paper defaults) for the
// workload: refIters iterations at diffSeed.
func refRun(t *testing.T, w diffWorkload) Result {
	t.Helper()
	res, err := Count(w.g, w.t, DefaultOptions().WithIterations(refIters).WithSeed(diffSeed))
	if err != nil {
		t.Fatalf("reference run %s/%s seed=%d: %v", w.gName, w.tName, diffSeed, err)
	}
	return res
}

// TestOracleDifferentialCount checks Count against the exact oracle and
// every option combination against the reference run, bit for bit.
func TestOracleDifferentialCount(t *testing.T) {
	combos := diffCombos()
	for _, w := range diffWorkloads() {
		w := w
		t.Run(w.gName+"/"+w.tName, func(t *testing.T) {
			exactCount := exact.Count(w.g, w.t)
			if exactCount <= 0 {
				t.Fatalf("degenerate workload %s/%s: exact count %d", w.gName, w.tName, exactCount)
			}
			ref := refRun(t, w)
			assertOracle(t, fmt.Sprintf("Count graph=%s tmpl=%s config=defaults", w.gName, w.tName), ref, exactCount)

			for _, c := range combos {
				res, err := Count(w.g, w.t, c.opt)
				if err != nil {
					t.Fatalf("%s seed=%d: %v", c.name, diffSeed, err)
				}
				if len(res.PerIteration) != comboIters {
					t.Fatalf("%s seed=%d: %d iterations, want %d", c.name, diffSeed, len(res.PerIteration), comboIters)
				}
				for i, x := range res.PerIteration {
					if x != ref.PerIteration[i] {
						t.Fatalf("EXACTNESS DISAGREEMENT graph=%s tmpl=%s %s seed=%d iteration=%d: %v != reference %v",
							w.gName, w.tName, c.name, diffSeed, i, x, ref.PerIteration[i])
					}
				}
			}
		})
	}
}

// TestOracleDifferentialConverged checks CountConverged: its iterations
// are a bit-identical prefix of the fixed-run seed stream, its stopping
// rule is honored, and its estimate agrees with the oracle within its
// own confidence interval.
func TestOracleDifferentialConverged(t *testing.T) {
	const relStdErr = 0.2
	for _, w := range diffWorkloads() {
		w := w
		t.Run(w.gName+"/"+w.tName, func(t *testing.T) {
			exactCount := exact.Count(w.g, w.t)
			ref := refRun(t, w)
			// Options.Iterations doubles as the convergence floor: a
			// 2-sample standard error is too noisy to stop (or to test)
			// on, so require at least 20 iterations before the stopping
			// rule may fire.
			const minIters = 20
			res, err := CountConverged(w.g, w.t, relStdErr, refIters, DefaultOptions().WithSeed(diffSeed).WithIterations(minIters))
			if err != nil {
				t.Fatalf("CountConverged graph=%s tmpl=%s seed=%d: %v", w.gName, w.tName, diffSeed, err)
			}
			if len(res.PerIteration) < minIters || len(res.PerIteration) > refIters {
				t.Fatalf("converged run used %d iterations (bounds [%d, %d])", len(res.PerIteration), minIters, refIters)
			}
			for i, x := range res.PerIteration {
				if x != ref.PerIteration[i] {
					t.Fatalf("EXACTNESS DISAGREEMENT CountConverged graph=%s tmpl=%s seed=%d iteration=%d: %v != reference %v",
						w.gName, w.tName, diffSeed, i, x, ref.PerIteration[i])
				}
			}
			if n := len(res.PerIteration); n < refIters && res.Count != 0 && res.StdErr/math.Abs(res.Count) > relStdErr {
				t.Errorf("converged run stopped at %d iterations with rel stderr %v > %v",
					n, res.StdErr/math.Abs(res.Count), relStdErr)
			}
			assertOracle(t, fmt.Sprintf("CountConverged graph=%s tmpl=%s", w.gName, w.tName), res, exactCount)
		})
	}
}

// TestOracleDifferentialAdaptive checks Options.Adaptive across the
// full layout × batch × parallel-mode matrix: every adaptive
// run's PerIteration stream must be a bit-identical prefix of the
// fixed-run seed stream, and — because the per-iteration estimates are
// bit-identical across combinations — every combination must stop at
// exactly the same iteration count.
func TestOracleDifferentialAdaptive(t *testing.T) {
	const relStdErr = 0.2
	for _, w := range diffWorkloads() {
		w := w
		t.Run(w.gName+"/"+w.tName, func(t *testing.T) {
			ref := refRun(t, w)
			stop := -1
			for _, c := range diffCombos() {
				res, err := Count(w.g, w.t, c.opt.WithAdaptive(relStdErr).WithIterations(refIters))
				if err != nil {
					t.Fatalf("adaptive %s seed=%d: %v", c.name, diffSeed, err)
				}
				n := len(res.PerIteration)
				if n < 2 || n > refIters {
					t.Fatalf("adaptive %s: stopped at %d iterations (bounds [2, %d])", c.name, n, refIters)
				}
				if stop < 0 {
					stop = n
				} else if n != stop {
					t.Fatalf("STOPPING DISAGREEMENT adaptive %s seed=%d: stopped at %d iterations, other combinations at %d",
						c.name, diffSeed, n, stop)
				}
				for i, x := range res.PerIteration {
					if x != ref.PerIteration[i] {
						t.Fatalf("EXACTNESS DISAGREEMENT adaptive %s seed=%d iteration=%d: %v != reference %v",
							c.name, diffSeed, i, x, ref.PerIteration[i])
					}
				}
				if n < refIters && res.Count != 0 && res.StdErr/math.Abs(res.Count) > relStdErr {
					t.Fatalf("adaptive %s stopped at %d iterations with rel stderr %v > %v",
						c.name, n, res.StdErr/math.Abs(res.Count), relStdErr)
				}
			}
		})
	}
}

// TestOracleDifferentialLabeled checks CountLabeled against the exact
// oracle on a labeled graph (labels participate in both the DP and the
// backtracking), plus bit-identity across every option combination.
func TestOracleDifferentialLabeled(t *testing.T) {
	g := AssignRandomLabels(ErdosRenyi(30, 90, 13), 2, 14)
	base := PathTemplate(4)
	lt, err := base.WithLabels("lp4", []int32{0, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	exactCount := exact.Count(g, lt)
	if exactCount <= 0 {
		t.Fatalf("degenerate labeled workload: exact count %d", exactCount)
	}
	ref, err := CountLabeled(g, lt, DefaultOptions().WithIterations(refIters).WithSeed(diffSeed))
	if err != nil {
		t.Fatal(err)
	}
	assertOracle(t, "CountLabeled graph=er30x2labels tmpl=lp4", ref, exactCount)

	for _, c := range diffCombos() {
		res, err := CountLabeled(g, lt, c.opt)
		if err != nil {
			t.Fatalf("labeled %s seed=%d: %v", c.name, diffSeed, err)
		}
		for i, x := range res.PerIteration {
			if x != ref.PerIteration[i] {
				t.Fatalf("EXACTNESS DISAGREEMENT CountLabeled %s seed=%d iteration=%d: %v != reference %v",
					c.name, diffSeed, i, x, ref.PerIteration[i])
			}
		}
	}

	// Guard rails: unlabeled inputs are rejected loudly.
	if _, err := CountLabeled(g, base, DefaultOptions()); err == nil {
		t.Error("CountLabeled accepted an unlabeled template")
	}
	if _, err := CountLabeled(ErdosRenyi(30, 90, 13), lt, DefaultOptions()); err == nil {
		t.Error("CountLabeled accepted an unlabeled graph")
	}
}

// TestOracleDifferentialDistributed checks the simulated
// distributed-memory engine on 2–4 ranks: per-iteration estimates are
// bit-identical to the shared-memory engine under the same seed, so the
// oracle agreement follows from the shared-memory checks — asserted
// directly here anyway.
func TestOracleDifferentialDistributed(t *testing.T) {
	for _, w := range diffWorkloads() {
		w := w
		t.Run(w.gName+"/"+w.tName, func(t *testing.T) {
			if exactCount := exact.Count(w.g, w.t); exactCount <= 0 {
				t.Fatalf("degenerate workload: exact count %d", exactCount)
			}
			ref := refRun(t, w)
			for ranks := 2; ranks <= 4; ranks++ {
				res, err := CountDistributed(w.g, w.t, ranks, DefaultOptions().WithIterations(comboIters).WithSeed(diffSeed))
				if err != nil {
					t.Fatalf("CountDistributed ranks=%d graph=%s tmpl=%s seed=%d: %v", ranks, w.gName, w.tName, diffSeed, err)
				}
				if len(res.PerIteration) != comboIters {
					t.Fatalf("ranks=%d: %d iterations, want %d", ranks, len(res.PerIteration), comboIters)
				}
				for i, x := range res.PerIteration {
					if x != ref.PerIteration[i] {
						t.Fatalf("EXACTNESS DISAGREEMENT CountDistributed ranks=%d graph=%s tmpl=%s seed=%d iteration=%d: %v != shared-memory %v",
							ranks, w.gName, w.tName, diffSeed, i, x, ref.PerIteration[i])
					}
				}
			}
		})
	}
}

// nonTreeDiffWorkloads returns the non-tree sweep: small but dense
// random graphs crossed with the full size-3/4 motif zoo's non-tree
// members. The graphs are dense enough that every motif — including
// K4 — occurs, so a zero exact count marks a harness bug.
func nonTreeDiffWorkloads() []diffWorkload {
	er := ErdosRenyi(22, 90, 11)
	ba := BarabasiAlbert(20, 4, 12)
	var out []diffWorkload
	for _, g := range []struct {
		name string
		g    *Graph
	}{{"er22", er}, {"ba20", ba}} {
		for _, name := range []string{"triangle", "c4", "diamond", "tailed-triangle", "k4"} {
			tp, err := MotifZooTemplate(name)
			if err != nil {
				panic(err)
			}
			out = append(out, diffWorkload{g.name, g.g, name, tp})
		}
	}
	return out
}

// TestOracleDifferentialNonTreeMatrix is the three-way matrix for
// non-tree templates: the direct combinatorial motif counter must agree
// EXACTLY with exhaustive backtracking, and the tree-decomposition bag
// DP's estimate must land within 6σ of that exact count — across every
// layout × batch × parallel-mode combination, each of which
// must be bit-identical to the reference run (the bag DP ignores those
// knobs, and this pins that ignoring them never perturbs an estimate).
func TestOracleDifferentialNonTreeMatrix(t *testing.T) {
	combos := diffCombos()
	for _, w := range nonTreeDiffWorkloads() {
		w := w
		t.Run(w.gName+"/"+w.tName, func(t *testing.T) {
			motifCount, err := ExactMotifCount(w.g, w.tName)
			if err != nil {
				t.Fatal(err)
			}
			bruteCount := exact.Count(w.g, w.t)
			if motifCount != bruteCount {
				t.Fatalf("EXACT ORACLE DISAGREEMENT graph=%s motif=%s: combinatorial counter %d != backtracking %d",
					w.gName, w.tName, motifCount, bruteCount)
			}
			if motifCount <= 0 {
				t.Fatalf("degenerate workload %s/%s: exact count %d", w.gName, w.tName, motifCount)
			}
			ref := refRun(t, w)
			assertOracle(t, fmt.Sprintf("Count graph=%s tmpl=%s config=defaults", w.gName, w.tName), ref, motifCount)

			for _, c := range combos {
				res, err := Count(w.g, w.t, c.opt)
				if err != nil {
					t.Fatalf("%s seed=%d: %v", c.name, diffSeed, err)
				}
				if len(res.PerIteration) != comboIters {
					t.Fatalf("%s seed=%d: %d iterations, want %d", c.name, diffSeed, len(res.PerIteration), comboIters)
				}
				for i, x := range res.PerIteration {
					if x != ref.PerIteration[i] {
						t.Fatalf("EXACTNESS DISAGREEMENT graph=%s tmpl=%s %s seed=%d iteration=%d: %v != reference %v",
							w.gName, w.tName, c.name, diffSeed, i, x, ref.PerIteration[i])
					}
				}
			}
		})
	}
}

// TestOracleDifferentialNonTreeColorfulExact is the zero-noise non-tree
// oracle: under deterministic colorings the bag DP's raw colorful total
// must equal brute-force rainbow enumeration exactly — no tolerance.
// This pins the decomposition DP itself, independent of scaling and of
// the closed-form motif counters.
func TestOracleDifferentialNonTreeColorfulExact(t *testing.T) {
	workloads := nonTreeDiffWorkloads()
	// A 5-cycle exercises a decomposition with no closed-form oracle.
	c5, err := CycleTemplate(5)
	if err != nil {
		t.Fatal(err)
	}
	workloads = append(workloads, diffWorkload{"er22", ErdosRenyi(22, 90, 11), "c5", c5})
	for _, w := range workloads {
		w := w
		t.Run(w.gName+"/"+w.tName, func(t *testing.T) {
			e, err := NewEngine(w.g, w.t, DefaultOptions().WithSeed(diffSeed))
			if err != nil {
				t.Fatal(err)
			}
			for s := int64(diffSeed); s < diffSeed+5; s++ {
				got := e.inner.ColorfulTotal(s)
				want := exact.CountColorfulMappings(w.g, w.t, e.inner.ColoringFor(s))
				if got != float64(want) {
					t.Fatalf("COLORFUL DISAGREEMENT graph=%s tmpl=%s seed=%d: bag DP total %v != exact %d",
						w.gName, w.tName, s, got, want)
				}
			}
		})
	}
}

// TestOracleDifferentialColorfulExact is the zero-noise oracle: under a
// deterministic coloring, the DP's raw colorful total must equal the
// brute-force count of rainbow mappings exactly — no statistical
// tolerance at all. This pins the DP itself, independent of scaling.
func TestOracleDifferentialColorfulExact(t *testing.T) {
	for _, w := range diffWorkloads() {
		w := w
		t.Run(w.gName+"/"+w.tName, func(t *testing.T) {
			e, err := NewEngine(w.g, w.t, DefaultOptions().WithSeed(diffSeed))
			if err != nil {
				t.Fatal(err)
			}
			for s := int64(diffSeed); s < diffSeed+5; s++ {
				got := e.inner.ColorfulTotal(s)
				want := exact.CountColorfulMappings(w.g, w.t, e.inner.ColoringFor(s))
				if got != float64(want) {
					t.Fatalf("COLORFUL DISAGREEMENT graph=%s tmpl=%s seed=%d: DP total %v != exact %d",
						w.gName, w.tName, s, got, want)
				}
			}
		})
	}
}

// directedGolden holds CountDirected's per-iteration estimate bits
// (math.Float64bits) at 6 iterations and seed diffSeed, as recorded from
// the private scalar engine directed counting ran on before it moved
// onto dp's kernels, for the workloads of directedDiffWorkloads in
// order. Every value is an exact integer total scaled once, far below
// 2^53, so any correct engine reproduces the bits.
var directedGolden = []struct {
	name string
	bits []uint64
}{
	{"ex400/DP4", []uint64{0x40f520aaaaaaaaab, 0x40f45e0000000000, 0x40f4f55555555555, 0x40f4a15555555555, 0x40f5720000000000, 0x40f38c0000000000}},
	{"ex400/DSout4", []uint64{0x40cc255555555555, 0x40cc500000000000, 0x40cb900000000000, 0x40c9d00000000000, 0x40cdf55555555555, 0x40c8daaaaaaaaaab}},
	{"ex400/DSin4", []uint64{0x40c8655555555555, 0x40c9300000000000, 0x40ca500000000000, 0x40c9755555555555, 0x40caf55555555555, 0x40c7355555555555}},
	{"ex400/feedfwd", []uint64{0x40f4daaaaaaaaaab, 0x40f4aaaaaaaaaaab, 0x40f4d75555555555, 0x40f4180000000000, 0x40f60e0000000000, 0x40f3040000000000}},
	{"ex400/DP7", []uint64{0x4171687a48dddddf, 0x4171380c3449f4a1, 0x417123e6d9111112, 0x417214605238e390, 0x4170baaa0b3e93ea, 0x41704296285b05b2}},
	{"r0/DR2", []uint64{0x4064400000000000, 0x4061c00000000000, 0x4061c00000000000, 0x4062800000000000, 0x4062800000000000, 0x4063400000000000}},
	{"r1/DR3", []uint64{0x4074d00000000000, 0x4076c80000000000, 0x4073680000000000, 0x4076380000000000, 0x4071280000000000, 0x4076c80000000000}},
	{"r2/DR4", []uint64{0x40a82aaaaaaaaaab, 0x40a2155555555555, 0x40aad55555555555, 0x40a5555555555555, 0x409fd55555555555, 0x40a5aaaaaaaaaaab}},
	{"r3/DR5", []uint64{0x40bcc9caaaaaaaaa, 0x40c63a1aaaaaaaaa, 0x40c77f9fffffffff, 0x40c2c4b000000000, 0x40c2839555555555, 0x40c01f9aaaaaaaaa}},
	{"r4/DR6", []uint64{0x40e3c68000000000, 0x40d9c16666666667, 0x40d32c999999999a, 0x40e7418000000000, 0x40df123333333334, 0x40e759cccccccccd}},
	{"r5/DR7", []uint64{0x40d1b66377777779, 0x40e8f9144fa4fa51, 0x40d6570c71c71c73, 0x40f7f9c3c16c16c3, 0x40f1e97393e93e95, 0x40ec2a1616c16c19}},
	{"r6/DR8", []uint64{0x41244e04e04e04e0, 0x412ced4ed4ed4ed5, 0x4102492492492492, 0x410f49f49f49f49f, 0x411b813813813814, 0x41108f08f08f08f1}},
	{"r7/DR2", []uint64{0x4062000000000000, 0x4060c00000000000, 0x4064000000000000, 0x4063800000000000, 0x4063400000000000, 0x4065000000000000}},
	{"r8/DR3", []uint64{0x4072900000000000, 0x406c200000000000, 0x4072480000000000, 0x4073f80000000000, 0x4071280000000000, 0x4072000000000000}},
	{"r9/DR4", []uint64{0x40a46aaaaaaaaaab, 0x40a3800000000000, 0x40a2eaaaaaaaaaab, 0x409c2aaaaaaaaaab, 0x40a1800000000000, 0x409d000000000000}},
	{"r10/DR5", []uint64{0x40bf88eaaaaaaaaa, 0x40c4655aaaaaaaaa, 0x40c053b000000000, 0x40b542b555555555, 0x40bd31f555555555, 0x40aa3ebfffffffff}},
	{"r11/DR6", []uint64{0x40c605999999999a, 0x40cd5ccccccccccd, 0x40d990cccccccccd, 0x40df226666666667, 0x40e4074ccccccccd, 0x40d990cccccccccd}},
	{"r12/DR7", []uint64{0x40d95f348888888a, 0x40edd703d27d27d5, 0x40e6d19982d82d85, 0x40f013ac27d27d29, 0x40f6c76316c16c18, 0x40f0281900000001}},
	{"r13/DR8", []uint64{0x41139b39b39b39b4, 0x410f8af8af8af8b0, 0x40f0410410410410, 0x411ec7ec7ec7ec7f, 0x410f2ff2ff2ff2ff, 0x41127d27d27d27d2}},
	{"r14/DR2", []uint64{0x4063800000000000, 0x4060c00000000000, 0x4064c00000000000, 0x4062c00000000000, 0x4063000000000000, 0x4062c00000000000}},
	{"r15/DR3", []uint64{0x4076380000000000, 0x4070980000000000, 0x406f800000000000, 0x4074880000000000, 0x4073f80000000000, 0x4073f80000000000}},
	{"r16/DR4", []uint64{0x408d000000000000, 0x4093000000000000, 0x40912aaaaaaaaaab, 0x409c555555555555, 0x4085000000000000, 0x408faaaaaaaaaaab}},
	{"r17/DR5", []uint64{0x406a0aaaaaaaaaaa, 0x406a0aaaaaaaaaaa, 0x407528aaaaaaaaaa, 0x4076c95555555555, 0x403a0aaaaaaaaaaa, 0x407869ffffffffff}},
	{"r18/DR6", []uint64{0x40e5b4999999999a, 0x40aa533333333334, 0x40cea0cccccccccd, 0x40dc18cccccccccd, 0x40d0e56666666667, 0x40c92f999999999a}},
	{"r19/DR7", []uint64{0x40b6570c71c71c73, 0x40f6b2f63e93e940, 0x40d84140b60b60b8, 0x40fe3d240b60b60e, 0x410183535b05b05c, 0x40e2ab7d9999999b}},
	{"r20/DR8", []uint64{0x4100820820820821, 0x4104854854854855, 0x40bd41d41d41d41d, 0x40feadeadeadeadf, 0x4110f70f70f70f71, 0x4104b94b94b94b95}},
	{"r21/DR2", []uint64{0x4063800000000000, 0x4061800000000000, 0x4061800000000000, 0x4061c00000000000, 0x4060800000000000, 0x4063400000000000}},
	{"r22/DR3", []uint64{0x407ab80000000000, 0x4077e80000000000, 0x4079500000000000, 0x4078c00000000000, 0x4079980000000000, 0x4077100000000000}},
	{"r23/DR4", []uint64{0x4094aaaaaaaaaaab, 0x409e800000000000, 0x4091d55555555555, 0x407e000000000000, 0x4090800000000000, 0x4090800000000000}},
}

type directedWorkload struct {
	name string
	g    *DiGraph
	t    *DiTemplate
}

// directedDiffWorkloads returns the directed matrix's workloads: the
// four examples/directed templates and DiPath(7) on the example's
// digraph, then 24 random oriented trees of 2–8 vertices, each on its
// own random digraph.
func directedDiffWorkloads() []directedWorkload {
	ex := RandomDiGraph(400, 2400, 7)
	feedfwd, err := NewDiTemplate("feedfwd", 4, [][2]int{{0, 1}, {0, 2}, {1, 3}})
	if err != nil {
		panic(err)
	}
	var out []directedWorkload
	for _, t := range []*DiTemplate{DiPathTemplate(4), DiStarOutTemplate(4), DiStarInTemplate(4), feedfwd, DiPathTemplate(7)} {
		out = append(out, directedWorkload{"ex400/" + t.Name(), ex, t})
	}
	for i := 0; i < 24; i++ {
		k := 2 + i%7
		out = append(out, directedWorkload{fmt.Sprintf("r%d/DR%d", i, k),
			RandomDiGraph(36, 160, int64(300+i)), tmpl.RandomDiTemplate(k, int64(200+i))})
	}
	return out
}

// TestOracleDifferentialDirected is the directed matrix: CountDirected
// must reproduce the golden bits under every layout × batch
// width (1, 4, auto) × parallel mode at 2 threads, and with
// ShareSubtemplates requested (directed engines run unshared); and under
// fixed colorings the DP's raw colorful total must equal the directed
// rainbow enumeration exactly.
func TestOracleDifferentialDirected(t *testing.T) {
	var combos []struct {
		name string
		opt  Options
	}
	for _, layout := range []TableLayout{TableLazy, TableNaive, TableHash} {
		for _, batch := range []int{1, 4, BatchAuto} {
			for _, mode := range []ParallelMode{ParallelInner, ParallelOuter, ParallelHybrid} {
				combos = append(combos, struct {
					name string
					opt  Options
				}{
					fmt.Sprintf("layout=%s batch=%d parallel=%s", layout, batch, mode),
					DefaultOptions().WithTable(layout).WithBatch(batch).WithParallel(mode).WithThreads(2),
				})
			}
		}
	}
	shared := DefaultOptions()
	shared.ShareSubtemplates = true
	combos = append(combos, struct {
		name string
		opt  Options
	}{"share=true", shared})

	workloads := directedDiffWorkloads()
	if len(workloads) != len(directedGolden) {
		t.Fatalf("%d workloads for %d golden streams", len(workloads), len(directedGolden))
	}
	for wi, w := range workloads {
		want := directedGolden[wi]
		t.Run(w.name, func(t *testing.T) {
			if want.name != w.name {
				t.Fatalf("workload %d is %s, golden stream is %s", wi, w.name, want.name)
			}
			for _, c := range combos {
				res, err := CountDirected(w.g, w.t, c.opt.WithSeed(diffSeed).WithIterations(len(want.bits)))
				if err != nil {
					t.Fatalf("%s seed=%d: %v", c.name, diffSeed, err)
				}
				if len(res.PerIteration) != len(want.bits) {
					t.Fatalf("%s seed=%d: %d iterations, want %d", c.name, diffSeed, len(res.PerIteration), len(want.bits))
				}
				for i, x := range res.PerIteration {
					if math.Float64bits(x) != want.bits[i] {
						t.Fatalf("EXACTNESS DISAGREEMENT %s %s seed=%d iteration=%d: %v != golden %v",
							w.name, c.name, diffSeed, i, x, math.Float64frombits(want.bits[i]))
					}
				}
			}

			cfg, err := DefaultOptions().config()
			if err != nil {
				t.Fatal(err)
			}
			e, err := dp.NewDirected(w.g, w.t, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for s := int64(diffSeed); s < diffSeed+3; s++ {
				got := e.ColorfulTotal(s)
				want := exact.CountColorfulMappingsDirected(w.g, w.t, e.ColoringFor(s))
				if got != float64(want) {
					t.Fatalf("COLORFUL DISAGREEMENT %s seed=%d: DP total %v != exact %d", w.name, s, got, want)
				}
			}
		})
	}
}

// k200Golden holds the per-iteration estimate bits of the default
// options on the complete graph K₂₀₀ (seed 11, 4 iterations, one
// thread), recorded from the engine that still chose per vertex between
// a per-neighbor and an aggregated contraction.
var k200Golden = []struct {
	name string
	bits []uint64
}{
	{"U10-1", []uint64{0x449e4f7ccc9a3028, 0x44a1d0b3aa3a07e6, 0x449c8bf595b8b663, 0x44a1d2474f6070b3}},
	{"U10-2", []uint64{0x440af1527cfad579, 0x440fabea122e46ef, 0x44095ff6bdf985ae, 0x440faeb7a98f013f}},
	{"U12-1", []uint64{0x45932ef394a2c1fe, 0x4597c7167cfe1558, 0x45921b3f53a23ac2, 0x459444f745aedf7c}},
	{"U12-2", []uint64{0x45832ef394a2c1fe, 0x4587c7167cfe1558, 0x45821b3f53a23ac2, 0x458444f745aedf7d}},
}

// TestK200GoldenBits pins estimates past 2^53, where float64 sums stop
// being exact and two summation orders can round apart: on K₂₀₀ the
// colorful counts of 10- and 12-vertex trees reach ~1e22 to ~1e27, and
// the default options must reproduce the recorded bits exactly.
func TestK200GoldenBits(t *testing.T) {
	var edges [][2]int32
	for i := int32(0); i < 200; i++ {
		for j := i + 1; j < 200; j++ {
			edges = append(edges, [2]int32{i, j})
		}
	}
	g, err := NewGraph(200, edges, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range k200Golden {
		res, err := Count(g, MustTemplate(want.name), DefaultOptions().WithSeed(11).WithIterations(len(want.bits)).WithThreads(1))
		if err != nil {
			t.Fatalf("%s: %v", want.name, err)
		}
		for i, x := range res.PerIteration {
			if got := math.Float64bits(x); got != want.bits[i] {
				t.Errorf("%s iteration %d: %v (%#016x), golden %v (%#016x)",
					want.name, i, x, got, math.Float64frombits(want.bits[i]), want.bits[i])
			}
		}
	}
}
