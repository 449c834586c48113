package lint

import (
	"go/ast"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fixturePrefix is where golden fixture packages live. Import paths are
// chosen so the path-gated analyzers see the suffix they gate on
// (e.g. …/testdata/src/maporder/internal/serve gates like
// internal/serve).
const fixturePrefix = "repro/internal/lint/testdata/src/"

func newTestLoader(t *testing.T) *Loader {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// runFixture loads one fixture package, runs the full analyzer suite on
// it, and checks every diagnostic against the fixture's `// want "re"`
// comments (and vice versa). A want comment trailing a line of code
// applies to that line; a want comment on its own line applies to the
// next line. Multiple quoted regexps in one want comment expect that
// many diagnostics on the target line.
func runFixture(t *testing.T, rel string) *Package {
	t.Helper()
	l := newTestLoader(t)
	pkg, err := l.Load(fixturePrefix + rel)
	if err != nil {
		t.Fatalf("load fixture %s: %v", rel, err)
	}
	diags := Run([]*Package{pkg}, All)
	checkWants(t, pkg, diags)
	return pkg
}

var wantRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

type wantSet map[string]map[int][]*regexp.Regexp // file -> line -> patterns

func collectWants(t *testing.T, pkg *Package) wantSet {
	t.Helper()
	wants := wantSet{}
	for _, f := range pkg.Files {
		filename := pkg.Fset.Position(f.Pos()).Filename
		src, err := os.ReadFile(filename)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(src), "\n")
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				line := pos.Line
				// Standalone comments (nothing but whitespace before
				// them) refer to the following line.
				if line-1 < len(lines) && strings.TrimSpace(lines[line-1][:pos.Column-1]) == "" {
					line++
				}
				for _, m := range wantRe.FindAllStringSubmatch(text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", filename, pos.Line, m[1], err)
					}
					if wants[filename] == nil {
						wants[filename] = map[int][]*regexp.Regexp{}
					}
					wants[filename][line] = append(wants[filename][line], re)
				}
			}
		}
	}
	return wants
}

func checkWants(t *testing.T, pkg *Package, diags []Diagnostic) {
	t.Helper()
	wants := collectWants(t, pkg)
	for _, d := range diags {
		patterns := wants[d.Pos.Filename][d.Pos.Line]
		matched := -1
		for i, re := range patterns {
			if re != nil && re.MatchString(d.Analyzer+": "+d.Message) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		patterns[matched] = nil // consume
	}
	for file, byLine := range wants {
		for line, patterns := range byLine {
			for _, re := range patterns {
				if re != nil {
					t.Errorf("%s:%d: expected diagnostic matching %q, got none", file, line, re)
				}
			}
		}
	}
}

func TestMapOrderFixture(t *testing.T) { runFixture(t, "maporder/internal/serve") }
func TestCtxPollFixture(t *testing.T)  { runFixture(t, "ctxpoll/internal/dp") }
func TestCtxPollShardFixture(t *testing.T) {
	// The sharded tier is covered too: dispatch-round and rank-iteration
	// loops (runGroup/RunRank heavy calls) must poll, with the worker
	// run's stopped() accessor accepted as a poll.
	runFixture(t, "ctxpoll/internal/shard")
}
func TestFingerprintFixture(t *testing.T) { runFixture(t, "fingerprintcover") }
func TestFingerprintCleanFixture(t *testing.T) {
	runFixture(t, "fingerprintok")
}
func TestCSRMutFixture(t *testing.T) { runFixture(t, "csrmut") }
func TestCSRMutExemptFixture(t *testing.T) {
	// The same writes inside an owner package (internal/gen suffix) are
	// legal: the fixture has no want comments and must stay clean.
	runFixture(t, "csrmutok/internal/gen")
}
func TestGuardedByFixture(t *testing.T)   { runFixture(t, "guardedby") }
func TestSuppressionFixture(t *testing.T) { runFixture(t, "suppress/internal/serve") }
func TestWireTrustFixture(t *testing.T)   { runFixture(t, "wiretrust/internal/shard") }
func TestWireTrustCleanFixture(t *testing.T) {
	// Bounds-checked decodes — the real codec's discipline — must stay
	// silent: the fixture has no want comments.
	runFixture(t, "wiretrustok/internal/shard")
}
func TestGoLeakFixture(t *testing.T)    { runFixture(t, "goleak/internal/serve") }
func TestHotAllocFixture(t *testing.T)  { runFixture(t, "hotalloc/internal/dp") }
func TestFloatFlowFixture(t *testing.T) { runFixture(t, "floatflow/internal/dp") }

// TestUnusedSuppressions pins the -unused-suppressions contract: a
// suppression that covers a live finding is silent, one that covers
// nothing is reported as stale.
func TestUnusedSuppressions(t *testing.T) {
	l := newTestLoader(t)
	pkg, err := l.Load(fixturePrefix + "unusedsup/internal/serve")
	if err != nil {
		t.Fatal(err)
	}
	diags, unused := RunWithUnused([]*Package{pkg}, All)
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
	if len(unused) != 1 {
		t.Fatalf("expected exactly one unused suppression, got %d: %v", len(unused), unused)
	}
	u := unused[0]
	if u.Analyzer != "suppress" || !strings.Contains(u.Message, `"maporder"`) {
		t.Errorf("unexpected unused-suppression diagnostic: %s", u)
	}
	if !strings.Contains(filepath.ToSlash(u.Pos.Filename), "unusedsup/internal/serve") {
		t.Errorf("unused suppression reported outside the fixture: %s", u.Pos.Filename)
	}
}

// TestBrokenPackageDoesNotPanic feeds fasciavet a package with a
// deliberate compile error: the loader must degrade (recording the type
// error) while analyzers still fire on the well-typed remainder.
func TestBrokenPackageDoesNotPanic(t *testing.T) {
	pkg := runFixture(t, "broken/internal/serve")
	if len(pkg.TypeErrs) == 0 {
		t.Fatal("expected type errors to be recorded for the broken fixture")
	}
}

// TestEachAnalyzerFires is the acceptance check that every analyzer has
// at least one golden fixture where it produces a finding.
func TestEachAnalyzerFires(t *testing.T) {
	fixtures := []string{
		"maporder/internal/serve",
		"ctxpoll/internal/dp",
		"fingerprintcover",
		"csrmut",
		"guardedby",
		"suppress/internal/serve",
		"wiretrust/internal/shard",
		"goleak/internal/serve",
		"hotalloc/internal/dp",
		"floatflow/internal/dp",
	}
	l := newTestLoader(t)
	var pkgs []*Package
	for _, rel := range fixtures {
		p, err := l.Load(fixturePrefix + rel)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	fired := map[string]bool{}
	for _, d := range Run(pkgs, All) {
		fired[d.Analyzer] = true
	}
	for _, a := range All {
		if !fired[a.Name] {
			t.Errorf("analyzer %s fired on no fixture", a.Name)
		}
	}
	if !fired["suppress"] {
		t.Error("suppression machinery reported no malformed suppressions")
	}
}

// TestTreeIsClean runs the full suite over the whole module, pinning
// the acceptance criterion that fasciavet exits 0 on the tree (and that
// every in-tree suppression is well-formed).
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the entire module")
	}
	l := newTestLoader(t)
	pkgs, err := l.LoadPatterns([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("expected to load the whole module, got %d packages", len(pkgs))
	}
	for _, p := range pkgs {
		for _, terr := range p.TypeErrs {
			t.Errorf("typecheck %s: %v", p.Path, terr)
		}
	}
	for _, d := range Run(pkgs, All) {
		t.Errorf("unexpected finding: %s", d)
	}
}

// TestHeavyWorkCallsDeclared pins ctxpoll's driver list to the code: every
// name in heavyWorkCalls must be a function or method declared in the
// packages ctxpoll gates, so renaming a DP or shard driver fails here
// instead of silently exempting its callers' loops from the check.
func TestHeavyWorkCallsDeclared(t *testing.T) {
	l := newTestLoader(t)
	declared := map[string]bool{}
	for _, path := range []string{"repro/internal/dp", "repro/internal/dist", "repro/internal/shard"} {
		pkg, err := l.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok {
					declared[fd.Name.Name] = true
				}
			}
		}
	}
	for name := range heavyWorkCalls {
		if !declared[name] {
			t.Errorf("heavyWorkCalls names %q, which no function in internal/{dp,dist,shard} declares", name)
		}
	}
}

func TestValidSuppressionTail(t *testing.T) {
	valid := []string{
		"ok — sort below erases order",
		"ok - reason",
		"ok -- reason",
		"ok  —  spaced out reason",
	}
	invalid := []string{
		"", "ok", "ok —", "ok --", "ok-", "reason only", "okay — x",
	}
	for _, s := range valid {
		if !validSuppressionTail(s) {
			t.Errorf("validSuppressionTail(%q) = false, want true", s)
		}
	}
	for _, s := range invalid {
		if validSuppressionTail(s) {
			t.Errorf("validSuppressionTail(%q) = true, want false", s)
		}
	}
}

func TestCountVerbs(t *testing.T) {
	cases := []struct {
		format string
		want   int
	}{
		{"", 0},
		{"%d", 1},
		{"100%%", 0},
		{"v1|c=%d|part=%s|share=%t|root=%d", 4},
		{"%+0.3f %x", 2},
		{"%[1]d", 1},
	}
	for _, c := range cases {
		if got := countVerbs(c.format); got != c.want {
			t.Errorf("countVerbs(%q) = %d, want %d", c.format, got, c.want)
		}
	}
}

func TestPathHasSuffix(t *testing.T) {
	if !pathHasSuffix("repro/internal/dp", "internal/dp") {
		t.Error("expected suffix match")
	}
	if !pathHasSuffix("internal/dp", "internal/dp") {
		t.Error("expected exact match")
	}
	if pathHasSuffix("repro/printernal/dp", "internal/dp") {
		t.Error("matched across a segment boundary")
	}
}

// TestLoaderPositionsAreReal sanity-checks that fixture diagnostics
// carry positions inside the fixture files (guards against fset mixups
// between module and stdlib packages).
func TestLoaderPositionsAreReal(t *testing.T) {
	l := newTestLoader(t)
	pkg, err := l.Load(fixturePrefix + "maporder/internal/serve")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run([]*Package{pkg}, []*Analyzer{MapOrder})
	if len(diags) == 0 {
		t.Fatal("expected at least one maporder diagnostic")
	}
	for _, d := range diags {
		if !strings.Contains(filepath.ToSlash(d.Pos.Filename), "testdata/src/maporder") {
			t.Errorf("diagnostic position %s is outside the fixture", d.Pos.Filename)
		}
		if d.Pos.Line <= 0 || d.Pos.Column <= 0 {
			t.Errorf("diagnostic has no position: %+v", d)
		}
	}
	// All fixture files must have parsed.
	for _, f := range pkg.Files {
		if f == nil {
			t.Fatal("nil file in fixture package")
		}
		var _ ast.Node = f
	}
}
