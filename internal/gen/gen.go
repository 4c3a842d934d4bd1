// Package gen generates the synthetic evaluation graphs.
//
// The paper evaluates on three real-world graphs (Orkut, Brain, Web —
// Table II) that differ chiefly in their clustering coefficient ĉ (0.04,
// 0.51, 0.82). Those datasets are not redistributable here, so this package
// provides generators whose outputs occupy the same regimes: power-law
// degree distributions with tunable clustering. See ARCHITECTURE.md
// "Evaluation substrate" for the substitution argument.
//
// All generators are deterministic for a given seed.
package gen

import (
	"fmt"
	"math/rand/v2"

	"github.com/adwise-go/adwise/internal/graph"
)

func newRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
}

// ErdosRenyi generates G(n, m): m uniformly random edges over n vertices,
// avoiding self-loops. Duplicate edges may occur for dense settings; call
// Graph.Dedup if a simple graph is required.
func ErdosRenyi(n, m int, seed uint64) (*graph.Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("gen: ErdosRenyi needs n >= 2, got %d", n)
	}
	if m < 1 {
		return nil, fmt.Errorf("gen: ErdosRenyi needs m >= 1, got %d", m)
	}
	rng := newRNG(seed)
	edges := make([]graph.Edge, 0, m)
	for len(edges) < m {
		u := graph.VertexID(rng.IntN(n))
		v := graph.VertexID(rng.IntN(n))
		if u == v {
			continue
		}
		edges = append(edges, graph.Edge{Src: u, Dst: v})
	}
	return &graph.Graph{NumV: n, Edges: edges}, nil
}

// BarabasiAlbert generates a preferential-attachment graph: n vertices,
// each new vertex attaching m edges to existing vertices with probability
// proportional to degree. Produces a power-law degree distribution with a
// near-zero clustering coefficient — the Orkut regime.
func BarabasiAlbert(n, m int, seed uint64) (*graph.Graph, error) {
	if m < 1 {
		return nil, fmt.Errorf("gen: BarabasiAlbert needs m >= 1, got %d", m)
	}
	if n < m+1 {
		return nil, fmt.Errorf("gen: BarabasiAlbert needs n > m (n=%d, m=%d)", n, m)
	}
	rng := newRNG(seed)
	edges := make([]graph.Edge, 0, (n-m)*m+m)
	// Repeated-endpoints list: picking a uniform element is equivalent to
	// degree-proportional sampling.
	targets := make([]graph.VertexID, 0, 2*((n-m)*m+m))

	// Seed clique-ish core: a path over the first m+1 vertices.
	for v := 1; v <= m; v++ {
		e := graph.Edge{Src: graph.VertexID(v - 1), Dst: graph.VertexID(v)}
		edges = append(edges, e)
		targets = append(targets, e.Src, e.Dst)
	}
	chosen := make(map[graph.VertexID]struct{}, m)
	order := make([]graph.VertexID, 0, m)
	for v := m + 1; v < n; v++ {
		clear(chosen)
		order = order[:0]
		src := graph.VertexID(v)
		for len(order) < m {
			t := targets[rng.IntN(len(targets))]
			if t == src {
				continue
			}
			if _, dup := chosen[t]; dup {
				continue
			}
			chosen[t] = struct{}{}
			order = append(order, t)
		}
		// Emit in selection order: map iteration would randomise the edge
		// order and break seed determinism.
		for _, t := range order {
			edges = append(edges, graph.Edge{Src: src, Dst: t})
			targets = append(targets, src, t)
		}
	}
	return &graph.Graph{NumV: n, Edges: edges}, nil
}

// HolmeKim generates a power-law graph with tunable clustering: classic
// preferential attachment where, after each preferential step, a
// triad-formation step with probability pt links the new vertex to a random
// neighbour of the previously chosen target — closing a triangle. Larger pt
// yields a larger clustering coefficient; this is the Brain regime.
func HolmeKim(n, m int, pt float64, seed uint64) (*graph.Graph, error) {
	if m < 1 {
		return nil, fmt.Errorf("gen: HolmeKim needs m >= 1, got %d", m)
	}
	if n < m+1 {
		return nil, fmt.Errorf("gen: HolmeKim needs n > m (n=%d, m=%d)", n, m)
	}
	if pt < 0 || pt > 1 {
		return nil, fmt.Errorf("gen: HolmeKim triad probability %v outside [0,1]", pt)
	}
	rng := newRNG(seed)
	edges := make([]graph.Edge, 0, (n-m)*m+m)
	targets := make([]graph.VertexID, 0, 2*((n-m)*m+m))
	adj := make([][]graph.VertexID, n) // needed for the triad step

	addEdge := func(u, v graph.VertexID) {
		edges = append(edges, graph.Edge{Src: u, Dst: v})
		targets = append(targets, u, v)
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	for v := 1; v <= m; v++ {
		addEdge(graph.VertexID(v-1), graph.VertexID(v))
	}
	chosen := make(map[graph.VertexID]struct{}, m)
	for v := m + 1; v < n; v++ {
		clear(chosen)
		src := graph.VertexID(v)
		var last graph.VertexID
		havePrev := false
		for len(chosen) < m {
			var t graph.VertexID
			triad := false
			if havePrev && rng.Float64() < pt && len(adj[last]) > 0 {
				t = adj[last][rng.IntN(len(adj[last]))]
				triad = true
			} else {
				t = targets[rng.IntN(len(targets))]
			}
			if t == src {
				continue
			}
			if _, dup := chosen[t]; dup {
				// A failed triad step falls back to preferential attachment
				// on the next iteration rather than spinning on a saturated
				// neighbourhood.
				if triad {
					havePrev = false
				}
				continue
			}
			chosen[t] = struct{}{}
			addEdge(src, t)
			last, havePrev = t, true
		}
	}
	return &graph.Graph{NumV: n, Edges: edges}, nil
}

// WattsStrogatz generates a small-world ring lattice over n vertices with
// k neighbours per side and rewiring probability beta. High clustering,
// near-uniform degrees; useful as a structured test graph.
func WattsStrogatz(n, k int, beta float64, seed uint64) (*graph.Graph, error) {
	if k < 1 || 2*k >= n {
		return nil, fmt.Errorf("gen: WattsStrogatz needs 1 <= k < n/2 (n=%d, k=%d)", n, k)
	}
	if beta < 0 || beta > 1 {
		return nil, fmt.Errorf("gen: WattsStrogatz rewiring probability %v outside [0,1]", beta)
	}
	rng := newRNG(seed)
	edges := make([]graph.Edge, 0, n*k)
	for v := 0; v < n; v++ {
		for j := 1; j <= k; j++ {
			dst := graph.VertexID((v + j) % n)
			src := graph.VertexID(v)
			if rng.Float64() < beta {
				for {
					cand := graph.VertexID(rng.IntN(n))
					if cand != src {
						dst = cand
						break
					}
				}
			}
			edges = append(edges, graph.Edge{Src: src, Dst: dst})
		}
	}
	return &graph.Graph{NumV: n, Edges: edges}, nil
}

// Community generates a graph of c dense communities of size s each:
// every community is an Erdős–Rényi subgraph with edge probability pin, and
// communities are stitched together by interEdges uniformly random
// cross-community edges. With pin near 1 the communities approach cliques
// and the clustering coefficient approaches 1 — the Web regime, where pages
// of a site link densely among themselves.
func Community(c, s int, pin float64, interEdges int, seed uint64) (*graph.Graph, error) {
	if c < 1 || s < 2 {
		return nil, fmt.Errorf("gen: Community needs c >= 1, s >= 2 (c=%d, s=%d)", c, s)
	}
	if pin <= 0 || pin > 1 {
		return nil, fmt.Errorf("gen: Community needs pin in (0,1], got %v", pin)
	}
	if interEdges < 0 {
		return nil, fmt.Errorf("gen: Community needs interEdges >= 0, got %d", interEdges)
	}
	rng := newRNG(seed)
	n := c * s
	expected := int(float64(c)*pin*float64(s*(s-1))/2) + interEdges
	edges := make([]graph.Edge, 0, expected)
	for ci := 0; ci < c; ci++ {
		base := graph.VertexID(ci * s)
		for i := 0; i < s; i++ {
			for j := i + 1; j < s; j++ {
				if rng.Float64() < pin {
					edges = append(edges, graph.Edge{Src: base + graph.VertexID(i), Dst: base + graph.VertexID(j)})
				}
			}
		}
	}
	for added := 0; added < interEdges; {
		u := graph.VertexID(rng.IntN(n))
		v := graph.VertexID(rng.IntN(n))
		if u == v || int(u)/s == int(v)/s {
			continue
		}
		edges = append(edges, graph.Edge{Src: u, Dst: v})
		added++
	}
	if len(edges) == 0 {
		return nil, fmt.Errorf("gen: Community produced no edges (c=%d s=%d pin=%v)", c, s, pin)
	}
	return &graph.Graph{NumV: n, Edges: edges}, nil
}

// Zipf generates m edges over n vertices with both endpoints drawn from a
// Zipf distribution with the given exponent (s > 1), avoiding self-loops.
// Vertex 0 is the heaviest rank, so low vertex ids are hubs. Unlike the
// attachment models the degree skew is a direct knob: raising the exponent
// concentrates the edge mass on fewer hubs and lengthens the degree-1
// tail — the regime where a bounded vertex cache sheds the most state for
// the least replication cost (the memory-pressure workloads of the bench
// memory experiment).
func Zipf(n, m int, exponent float64, seed uint64) (*graph.Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("gen: Zipf needs n >= 2, got %d", n)
	}
	if m < 1 {
		return nil, fmt.Errorf("gen: Zipf needs m >= 1, got %d", m)
	}
	if exponent <= 1 {
		return nil, fmt.Errorf("gen: Zipf exponent must be > 1, got %v", exponent)
	}
	rng := newRNG(seed)
	z := rand.NewZipf(rng, exponent, 1, uint64(n-1))
	edges := make([]graph.Edge, 0, m)
	for len(edges) < m {
		u := graph.VertexID(z.Uint64())
		v := graph.VertexID(z.Uint64())
		if u == v {
			continue
		}
		edges = append(edges, graph.Edge{Src: u, Dst: v})
	}
	return &graph.Graph{NumV: n, Edges: edges}, nil
}

// RMAT generates a recursive-matrix (Kronecker-like) graph with 2^scale
// vertices and m edges using partition probabilities a, b, c (d = 1-a-b-c).
// The standard Graph500 parameters a=0.57, b=0.19, c=0.19 give a skewed,
// power-law-like graph.
func RMAT(scale, m int, a, b, c float64, seed uint64) (*graph.Graph, error) {
	if scale < 1 || scale > 30 {
		return nil, fmt.Errorf("gen: RMAT scale %d outside [1,30]", scale)
	}
	if m < 1 {
		return nil, fmt.Errorf("gen: RMAT needs m >= 1, got %d", m)
	}
	d := 1 - a - b - c
	if a < 0 || b < 0 || c < 0 || d < 0 {
		return nil, fmt.Errorf("gen: RMAT probabilities a=%v b=%v c=%v must be non-negative and sum <= 1", a, b, c)
	}
	rng := newRNG(seed)
	n := 1 << uint(scale)
	edges := make([]graph.Edge, 0, m)
	for len(edges) < m {
		lo, hi := 0, 0
		size := n
		for size > 1 {
			size /= 2
			r := rng.Float64()
			switch {
			case r < a:
				// top-left quadrant: no offset
			case r < a+b:
				hi += size
			case r < a+b+c:
				lo += size
			default:
				lo += size
				hi += size
			}
		}
		if lo == hi {
			continue
		}
		edges = append(edges, graph.Edge{Src: graph.VertexID(lo), Dst: graph.VertexID(hi)})
	}
	return &graph.Graph{NumV: n, Edges: edges}, nil
}

// Star generates a hub-and-spoke graph: vertex 0 connected to vertices
// 1..n-1. The canonical example where vertex-cut beats edge-cut and where
// degree-aware strategies must replicate the hub.
func Star(n int) (*graph.Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("gen: Star needs n >= 2, got %d", n)
	}
	edges := make([]graph.Edge, 0, n-1)
	for v := 1; v < n; v++ {
		edges = append(edges, graph.Edge{Src: 0, Dst: graph.VertexID(v)})
	}
	return &graph.Graph{NumV: n, Edges: edges}, nil
}

// Path generates the path graph 0-1-2-...-n-1.
func Path(n int) (*graph.Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("gen: Path needs n >= 2, got %d", n)
	}
	edges := make([]graph.Edge, 0, n-1)
	for v := 1; v < n; v++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(v - 1), Dst: graph.VertexID(v)})
	}
	return &graph.Graph{NumV: n, Edges: edges}, nil
}

// Cycle generates the cycle graph 0-1-...-n-1-0.
func Cycle(n int) (*graph.Graph, error) {
	g, err := Path(n)
	if err != nil {
		return nil, err
	}
	g.Edges = append(g.Edges, graph.Edge{Src: graph.VertexID(n - 1), Dst: 0})
	return g, nil
}

// Clique generates the complete graph K_n.
func Clique(n int) (*graph.Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("gen: Clique needs n >= 2, got %d", n)
	}
	edges := make([]graph.Edge, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(j)})
		}
	}
	return &graph.Graph{NumV: n, Edges: edges}, nil
}

// Grid2D generates an rows×cols lattice with 4-neighbour connectivity.
func Grid2D(rows, cols int) (*graph.Graph, error) {
	if rows < 1 || cols < 1 || rows*cols < 2 {
		return nil, fmt.Errorf("gen: Grid2D needs a grid of at least 2 vertices (rows=%d, cols=%d)", rows, cols)
	}
	id := func(r, c int) graph.VertexID { return graph.VertexID(r*cols + c) }
	edges := make([]graph.Edge, 0, 2*rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, graph.Edge{Src: id(r, c), Dst: id(r, c+1)})
			}
			if r+1 < rows {
				edges = append(edges, graph.Edge{Src: id(r, c), Dst: id(r+1, c)})
			}
		}
	}
	return &graph.Graph{NumV: rows * cols, Edges: edges}, nil
}
