package tmpl

import (
	"fmt"
	"math"
	"sort"
)

// mulAutSat multiplies two positive automorphism counts, saturating at
// math.MaxInt64 instead of wrapping. Legal templates can be
// astronomically symmetric — a 64-vertex star has 63! ≈ 2e87
// automorphisms — so the exact product does not always fit an int64;
// counts stay exact for every template whose symmetry is small enough
// to matter and stay positive for the rest (a wrap to a negative count
// was found by FuzzParse, testdata twin ac3a3e43813ceb2d).
func mulAutSat(a, b int64) int64 {
	if a > math.MaxInt64/b {
		return math.MaxInt64
	}
	return a * b
}

// CanonicalRooted returns the AHU canonical encoding of the template
// rooted at root. Two rooted (optionally labeled) trees are isomorphic iff
// their encodings are equal. Labels participate in the encoding, so
// labeled templates only match when labels agree, and so do arc
// directions (arcMark), so oriented templates only match when every
// child's arc points the same way. Tree templates only
// (AHU codes have no cheap general-graph analogue; non-tree callers use
// IsIsomorphic, which branches to a backtracking search).
func (t *Template) CanonicalRooted(root int) string {
	t.mustTree("CanonicalRooted")
	return t.encode(root, -1)
}

// mustTree guards the AHU-based entry points, which recurse by
// parent-skipping and would loop forever on a cycle.
func (t *Template) mustTree(fn string) {
	if !t.tree {
		panic(fmt.Sprintf("tmpl: %s requires a tree template (got %s with %d edges on %d vertices)", fn, t.name, t.NumEdges(), t.K()))
	}
}

func (t *Template) encode(v, parent int) string {
	kids := make([]string, 0, len(t.adj[v]))
	for _, u := range t.adj[v] {
		if int(u) != parent {
			kids = append(kids, t.arcMark(v, int(u))+t.encode(int(u), v))
		}
	}
	sort.Strings(kids)
	var sb []byte
	if t.labels != nil {
		sb = fmt.Appendf(sb, "%d", t.labels[v])
	}
	sb = append(sb, '(')
	for _, k := range kids {
		sb = append(sb, k...)
	}
	sb = append(sb, ')')
	return string(sb)
}

// arcMark prefixes the code of v's child u in an oriented template:
// ">" for the arc v → u, "<" for u → v. Unoriented templates get no
// prefix, which keeps their codes byte-identical to the plain AHU codes.
func (t *Template) arcMark(v, u int) string {
	switch {
	case t.out == nil:
		return ""
	case t.HasArc(v, u):
		return ">"
	default:
		return "<"
	}
}

// Centroids returns the one or two centroid vertices of the tree: the
// vertices minimizing the maximum component size after their removal.
func (t *Template) Centroids() []int {
	k := t.K()
	if k == 1 {
		return []int{0}
	}
	size := make([]int, k)
	maxComp := make([]int, k)
	// Iterative post-order from 0 to compute subtree sizes.
	order := make([]int, 0, k)
	parent := make([]int, k)
	parent[0] = -1
	stack := []int{0}
	seen := make([]bool, k)
	seen[0] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, v)
		for _, u := range t.adj[v] {
			if !seen[u] {
				seen[u] = true
				parent[u] = v
				stack = append(stack, int(u))
			}
		}
	}
	for i := k - 1; i >= 0; i-- {
		v := order[i]
		size[v] = 1
		maxComp[v] = 0
		for _, u := range t.adj[v] {
			if int(u) != parent[v] {
				size[v] += size[u]
				if size[u] > maxComp[v] {
					maxComp[v] = size[u]
				}
			}
		}
		if up := k - size[v]; up > maxComp[v] {
			maxComp[v] = up
		}
	}
	best := k
	for v := 0; v < k; v++ {
		if maxComp[v] < best {
			best = maxComp[v]
		}
	}
	var out []int
	for v := 0; v < k; v++ {
		if maxComp[v] == best {
			out = append(out, v)
		}
	}
	return out
}

// CanonicalFree returns a canonical encoding of the template as a free
// (unrooted) tree: the lexicographically smallest rooted encoding over its
// centroid(s). Two free trees are isomorphic iff their encodings match.
func (t *Template) CanonicalFree() string {
	t.mustTree("CanonicalFree")
	cs := t.Centroids()
	best := t.CanonicalRooted(cs[0])
	for _, c := range cs[1:] {
		if e := t.CanonicalRooted(c); e < best {
			best = e
		}
	}
	return best
}

// rootedAut returns the number of automorphisms of the subtree rooted at
// v (entered from parent) that fix the root: the product over all vertices
// of the factorials of multiplicities of isomorphic child subtrees. The
// returned encoding is the AHU code of the subtree, computed in the same
// pass.
func (t *Template) rootedAut(v, parent int) (string, int64) {
	type kid struct {
		code string
		aut  int64
	}
	kids := make([]kid, 0, len(t.adj[v]))
	for _, u := range t.adj[v] {
		if int(u) != parent {
			c, a := t.rootedAut(int(u), v)
			kids = append(kids, kid{t.arcMark(v, int(u)) + c, a})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].code < kids[j].code })
	aut := int64(1)
	run := int64(0)
	var sb []byte
	if t.labels != nil {
		sb = fmt.Appendf(sb, "%d", t.labels[v])
	}
	sb = append(sb, '(')
	for i, kd := range kids {
		aut = mulAutSat(aut, kd.aut)
		if i > 0 && kd.code == kids[i-1].code {
			run++
			aut = mulAutSat(aut, run+1)
		} else {
			run = 0
		}
		sb = append(sb, kd.code...)
	}
	sb = append(sb, ')')
	return string(sb), aut
}

// RootedAutomorphisms returns the number of automorphisms of the
// template that fix root (and, for labeled templates, preserve labels).
// Trees use the linear AHU multiplicity product; non-tree templates use
// the orbit-stabilizer chain with the root pre-fixed.
func (t *Template) RootedAutomorphisms(root int) int64 {
	if !t.tree {
		return t.generalAutomorphisms([]int{root})
	}
	_, a := t.rootedAut(root, -1)
	return a
}

// Automorphisms returns |Aut(T)| for the free (optionally labeled)
// template. For trees an automorphism either fixes the centroid
// (single-centroid case) or fixes/swaps the two centroids (two-centroid
// case; swapping is possible iff the two halves are isomorphic as rooted
// trees, and never in an oriented template, where the swap would reverse
// the arc between the centroids). Non-tree templates — where the sibling-subtree scan is
// meaningless — use the general orbit-stabilizer count (C4 = 8, K4 = 24,
// tailed triangle = 2, ...), which is what keeps the estimate's
// 1/|Aut| scale factor correct beyond trees.
func (t *Template) Automorphisms() int64 {
	if !t.tree {
		return t.generalAutomorphisms(nil)
	}
	cs := t.Centroids()
	if len(cs) == 1 {
		return t.RootedAutomorphisms(cs[0])
	}
	c1, c2 := cs[0], cs[1]
	code1, a1 := t.rootedAut(c1, c2)
	code2, a2 := t.rootedAut(c2, c1)
	if code1 == code2 && t.out == nil {
		return mulAutSat(2, mulAutSat(a1, a2))
	}
	return mulAutSat(a1, a2)
}

// Orbits partitions the template vertices into automorphism orbits. Two
// tree vertices are in the same orbit iff the tree rooted at each has the
// same canonical encoding; non-tree templates fall back to pairwise
// automorphism searches. Each orbit lists its vertices ascending; orbits
// are ordered by smallest member.
func (t *Template) Orbits() [][]int {
	if !t.tree {
		return t.generalOrbits()
	}
	byCode := map[string][]int{}
	keys := make([]string, 0, t.K())
	for v := 0; v < t.K(); v++ {
		code := t.CanonicalRooted(v)
		if _, ok := byCode[code]; !ok {
			keys = append(keys, code)
		}
		byCode[code] = append(byCode[code], v)
	}
	out := make([][]int, 0, len(keys))
	for _, k := range keys {
		out = append(out, byCode[k])
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// IsIsomorphic reports whether two templates are isomorphic as free
// (optionally labeled) graphs. Tree pairs compare canonical AHU codes;
// pairs with a non-tree member use a backtracking isomorphism search
// (a tree is never isomorphic to a non-tree).
func IsIsomorphic(a, b *Template) bool {
	if a.K() != b.K() {
		return false
	}
	if a.tree != b.tree {
		return false
	}
	if !a.tree {
		return generalIsomorphic(a, b)
	}
	return a.CanonicalFree() == b.CanonicalFree()
}
