// Package gen provides deterministic, seeded random-network generators
// that stand in for the datasets used in the FASCIA paper (SNAP social
// networks, the NDSSL Portland contact network, a PA road network, an
// ISCAS89 circuit, and four DIP protein-interaction networks). The module
// is offline, so each paper network is replaced by a generative model
// matched to its size and degree shape; see DESIGN.md §3 for the
// substitution rationale.
package gen

import (
	"math"
	"math/rand"

	"repro/internal/graph"
)

// ErdosRenyiM generates a G(n, m) graph: m undirected edges sampled
// uniformly without self-loops (duplicates are dropped during CSR build,
// so the realized edge count can be marginally lower on dense inputs).
func ErdosRenyiM(n int, m int64, seed int64) *graph.Graph {
	return graph.MustFromEdges(n, randomPairs(n, m, seed), nil)
}

// RandomDigraph generates a uniform random digraph: m arcs sampled like
// ErdosRenyiM's edges, with repeated arcs collapsing during the CSR
// build.
func RandomDigraph(n int, m int64, seed int64) *graph.Digraph {
	return graph.MustFromArcs(n, randomPairs(n, m, seed))
}

// randomPairs draws m vertex pairs (u, v) with u != v, each endpoint
// uniform over [0, n). Fewer than two vertices admit no such pair, so it
// then draws nothing rather than loop forever.
func randomPairs(n int, m int64, seed int64) [][2]int32 {
	if n < 2 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	pairs := make([][2]int32, 0, m)
	for int64(len(pairs)) < m {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		if u != v {
			pairs = append(pairs, [2]int32{u, v})
		}
	}
	return pairs
}

// BarabasiAlbert generates a preferential-attachment graph: starting from
// a small clique, each new vertex attaches to mPer existing vertices
// chosen proportionally to degree, giving the heavy-tailed degree
// distribution typical of social networks.
func BarabasiAlbert(n, mPer int, seed int64) *graph.Graph {
	if mPer < 1 {
		mPer = 1
	}
	rng := rand.New(rand.NewSource(seed))
	edges := make([][2]int32, 0, n*mPer)
	// targets holds one entry per edge endpoint: sampling uniformly from
	// it is sampling proportional to degree.
	targets := make([]int32, 0, 2*n*mPer)
	seedN := mPer + 1
	if seedN > n {
		seedN = n
	}
	for u := 0; u < seedN; u++ {
		for v := u + 1; v < seedN; v++ {
			edges = append(edges, [2]int32{int32(u), int32(v)})
			targets = append(targets, int32(u), int32(v))
		}
	}
	// picks records the distinct targets in sampling order: iterating the
	// dedup map instead would make the graph depend on Go's randomized map
	// order, breaking seed reproducibility.
	chosen := make(map[int32]bool, mPer)
	picks := make([]int32, 0, mPer)
	for u := seedN; u < n; u++ {
		for _, v := range picks {
			delete(chosen, v)
		}
		picks = picks[:0]
		for len(picks) < mPer {
			v := targets[rng.Intn(len(targets))]
			if !chosen[v] {
				chosen[v] = true
				picks = append(picks, v)
			}
		}
		for _, v := range picks {
			edges = append(edges, [2]int32{int32(u), v})
			targets = append(targets, int32(u), v)
		}
	}
	return graph.MustFromEdges(n, edges, nil)
}

// RMAT generates an R-MAT graph with 2^scale vertices and the requested
// number of sampled edges using recursive quadrant probabilities
// (a, b, c, d). The classic (0.57, 0.19, 0.19, 0.05) parameters give the
// skewed degree distributions of web/social graphs such as Enron and
// Slashdot. The result typically contains isolated vertices; callers take
// the largest connected component, as the paper does.
func RMAT(scale int, m int64, a, b, c float64, seed int64) *graph.Graph {
	n := 1 << scale
	rng := rand.New(rand.NewSource(seed))
	edges := make([][2]int32, 0, m)
	for int64(len(edges)) < m {
		u, v := 0, 0
		for bit := 0; bit < scale; bit++ {
			r := rng.Float64()
			switch {
			case r < a:
				// top-left: no bits set
			case r < a+b:
				v |= 1 << bit
			case r < a+b+c:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		if u != v {
			edges = append(edges, [2]int32{int32(u), int32(v)})
		}
	}
	return graph.MustFromEdges(n, edges, nil)
}

// WattsStrogatz generates a small-world graph: a ring lattice where each
// vertex connects to its kNear nearest neighbors on each side, with each
// edge rewired to a random endpoint with probability beta. With kNear ≈ 20
// this models the homogeneous high-degree Portland contact network.
func WattsStrogatz(n, kNear int, beta float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	edges := make([][2]int32, 0, n*kNear)
	for u := 0; u < n; u++ {
		for j := 1; j <= kNear; j++ {
			v := (u + j) % n
			if rng.Float64() < beta {
				v = rng.Intn(n)
				if v == u {
					v = (v + 1) % n
				}
			}
			edges = append(edges, [2]int32{int32(u), int32(v)})
		}
	}
	return graph.MustFromEdges(n, edges, nil)
}

// RoadNetwork generates a planar-style road network: a rows×cols grid in
// which each lattice edge is kept with probability keep, plus sparse
// shortcut diagonals. Degrees are bounded by 8 and average ≈ 2.8 with the
// defaults used by the presets, matching the PA road network's shape.
func RoadNetwork(rows, cols int, keep float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	n := rows * cols
	id := func(r, c int) int32 { return int32(r*cols + c) }
	edges := make([][2]int32, 0, 2*n)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols && rng.Float64() < keep {
				edges = append(edges, [2]int32{id(r, c), id(r, c+1)})
			}
			if r+1 < rows && rng.Float64() < keep {
				edges = append(edges, [2]int32{id(r, c), id(r+1, c)})
			}
			// Occasional diagonal, as real road grids are not perfect.
			if r+1 < rows && c+1 < cols && rng.Float64() < 0.02 {
				edges = append(edges, [2]int32{id(r, c), id(r+1, c+1)})
			}
		}
	}
	return graph.MustFromEdges(n, edges, nil)
}

// DuplicationDivergence generates a protein-interaction-style network via
// the duplication–divergence model: each new vertex copies a random
// existing vertex's edges, keeping each with probability retain, and
// attaches to the copied vertex with probability pAnchor. This is the
// standard generative model for PPI topology (sparse, skewed, clustered).
func DuplicationDivergence(n int, retain, pAnchor float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	adj := make([][]int32, n)
	addEdge := func(u, v int32) {
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	// Seed triangle.
	start := 3
	if n < 3 {
		start = n
	}
	if n >= 2 {
		addEdge(0, 1)
	}
	if n >= 3 {
		addEdge(0, 2)
		addEdge(1, 2)
	}
	for u := start; u < n; u++ {
		anchor := int32(rng.Intn(u))
		kept := false
		for _, v := range adj[anchor] {
			if rng.Float64() < retain {
				addEdge(int32(u), v)
				kept = true
			}
		}
		if rng.Float64() < pAnchor || !kept {
			addEdge(int32(u), anchor)
		}
	}
	edges := make([][2]int32, 0, n*4)
	for u := 0; u < n; u++ {
		for _, v := range adj[u] {
			if int32(u) < v {
				edges = append(edges, [2]int32{int32(u), v})
			}
		}
	}
	return graph.MustFromEdges(n, edges, nil)
}

// Circuit generates a sparse circuit-style network: a random spanning tree
// (wire fanout) plus extra chords until the target edge count is reached,
// with a maximum degree cap mimicking gate fanin/fanout limits. Matched to
// the ISCAS89 s420 circuit (252 vertices, 399 edges, dmax 14).
func Circuit(n int, m int64, maxDeg int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	deg := make([]int, n)
	edges := make([][2]int32, 0, m)
	have := make(map[int64]bool, m)
	key := func(u, v int) int64 {
		if u > v {
			u, v = v, u
		}
		return int64(u)<<32 | int64(v)
	}
	// Random attachment tree keeps it connected.
	for u := 1; u < n; u++ {
		v := rng.Intn(u)
		for deg[v] >= maxDeg {
			v = rng.Intn(u)
		}
		edges = append(edges, [2]int32{int32(u), int32(v)})
		have[key(u, v)] = true
		deg[u]++
		deg[v]++
	}
	for int64(len(edges)) < m {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v || deg[u] >= maxDeg || deg[v] >= maxDeg || have[key(u, v)] {
			continue
		}
		edges = append(edges, [2]int32{int32(u), int32(v)})
		have[key(u, v)] = true
		deg[u]++
		deg[v]++
	}
	return graph.MustFromEdges(n, edges, nil)
}

// AssignLabels attaches deterministic pseudo-random vertex labels in
// [0, numLabels) to g in place and returns g, mirroring the paper's
// randomly-assigned label methodology (8 labels for Portland: two genders
// × four age groups).
func AssignLabels(g *graph.Graph, numLabels int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	labels := make([]int32, g.N())
	for i := range labels {
		labels[i] = int32(rng.Intn(numLabels))
	}
	g.Labels = labels
	return g
}

// scaleM proportionally scales an edge target with a vertex-count ratio.
func scaleM(m int64, num, den int) int64 {
	v := int64(math.Round(float64(m) * float64(num) / float64(den)))
	if v < 1 {
		v = 1
	}
	return v
}

// Rewire performs degree-preserving randomization of g via double-edge
// swaps: repeatedly pick two edges (a,b), (c,d) and replace them with
// (a,d), (c,b) when doing so creates neither self-loops nor duplicate
// edges. This is the standard null model for motif significance analysis
// (Milo et al.): it preserves every vertex's degree exactly while
// destroying higher-order structure. swaps is the number of attempted
// swaps; 10·m or more gives a well-mixed sample.
func Rewire(g *graph.Graph, swaps int64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	edges := g.Edges()
	m := len(edges)
	if m < 2 {
		return graph.MustFromEdges(g.N(), edges, g.Labels)
	}
	have := make(map[int64]bool, m)
	key := func(u, v int32) int64 {
		if u > v {
			u, v = v, u
		}
		return int64(u)<<32 | int64(v)
	}
	for _, e := range edges {
		have[key(e[0], e[1])] = true
	}
	for s := int64(0); s < swaps; s++ {
		i := rng.Intn(m)
		j := rng.Intn(m)
		if i == j {
			continue
		}
		a, b := edges[i][0], edges[i][1]
		c, d := edges[j][0], edges[j][1]
		// Randomize orientation so both pairings are reachable.
		if rng.Intn(2) == 0 {
			c, d = d, c
		}
		if a == d || c == b || a == c || b == d {
			continue
		}
		if have[key(a, d)] || have[key(c, b)] {
			continue
		}
		delete(have, key(a, b))
		delete(have, key(c, d))
		have[key(a, d)] = true
		have[key(c, b)] = true
		edges[i] = [2]int32{a, d}
		edges[j] = [2]int32{c, b}
	}
	return graph.MustFromEdges(g.N(), edges, g.Labels)
}
