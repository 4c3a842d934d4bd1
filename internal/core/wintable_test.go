package core

import (
	"math/rand"
	"testing"

	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/vcache"
)

// bruteNeighbourhood is the test oracle for the window vertex table: a
// plain slice of the live window edges, with every neighbourhood and
// count recomputed from scratch against the vertex cache.
type bruteNeighbourhood struct {
	edges []graph.Edge
	cache *vcache.Cache
	parts []int
}

func (b *bruteNeighbourhood) remove(e graph.Edge) bool {
	for i, x := range b.edges {
		if x == e {
			b.edges = append(b.edges[:i], b.edges[i+1:]...)
			return true
		}
	}
	return false
}

// neighbours returns N(x): the other endpoints of live edges at x, x
// itself excluded.
func (b *bruteNeighbourhood) neighbours(x graph.VertexID) map[graph.VertexID]bool {
	n := make(map[graph.VertexID]bool)
	for _, e := range b.edges {
		if e.Src == x && e.Dst != x {
			n[e.Dst] = true
		}
		if e.Dst == x && e.Src != x {
			n[e.Src] = true
		}
	}
	return n
}

// counts returns, for a vertex set, how many members are replicated on
// each allowed partition.
func (b *bruteNeighbourhood) counts(set map[graph.VertexID]bool) []int32 {
	c := make([]int32, len(b.parts))
	for y := range set {
		_, words := b.cache.LookupWords(y)
		for i, p := range b.parts {
			if words != nil && words[p>>6]&(1<<(uint(p)&63)) != 0 {
				c[i]++
			}
		}
	}
	return c
}

// edgeCounts returns |S| and the per-partition counts over S =
// N(u)∪N(v)∖{u,v}.
func (b *bruteNeighbourhood) edgeCounts(e graph.Edge) (int, []int32) {
	s := b.neighbours(e.Src)
	for y := range b.neighbours(e.Dst) {
		s[y] = true
	}
	delete(s, e.Src)
	delete(s, e.Dst)
	return len(s), b.counts(s)
}

func equalCounts(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// check asserts that the maintained table state equals the oracle: the
// same vertex and pair population, and per vertex the same incident
// count, neighbour count, replica copy and count row; then it scores
// every live edge plus random probes — off-window endpoints and
// self-loops included — through clusterCounts against the oracle.
func (b *bruteNeighbourhood) check(t *testing.T, step string, tab *winTable, rng *rand.Rand, vertexRange int) {
	t.Helper()
	incident := make(map[graph.VertexID]int)
	pairs := make(map[[2]graph.VertexID]bool)
	for _, e := range b.edges {
		incident[e.Src]++
		if e.Dst != e.Src {
			incident[e.Dst]++
			lo, hi := e.Src, e.Dst
			if lo > hi {
				lo, hi = hi, lo
			}
			pairs[[2]graph.VertexID{lo, hi}] = true
		}
	}
	if tab.index.n != len(incident) || tab.pairs.n != len(pairs) {
		t.Fatalf("%s: table holds %d vertices / %d pairs, oracle %d / %d",
			step, tab.index.n, tab.pairs.n, len(incident), len(pairs))
	}
	for x, deg := range incident {
		s := tab.slot(x)
		if s < 0 {
			t.Fatalf("%s: window vertex %d has no slot", step, x)
		}
		if len(tab.inc[s]) != deg {
			t.Fatalf("%s: vertex %d lists %d incident entries, oracle %d", step, x, len(tab.inc[s]), deg)
		}
		nbrs := b.neighbours(x)
		if len(tab.nbrs[s]) != len(nbrs) {
			t.Fatalf("%s: d_%d = %d, oracle %d", step, x, len(tab.nbrs[s]), len(nbrs))
		}
		for _, y := range tab.nbrs[s] {
			if !nbrs[tab.key[y]] {
				t.Fatalf("%s: vertex %d lists neighbour %d the oracle does not", step, x, tab.key[y])
			}
		}
		_, words := b.cache.LookupWords(x)
		for wi, wd := range tab.replicas(s) {
			want := uint64(0)
			if words != nil {
				want = words[wi]
			}
			if wd != want {
				t.Fatalf("%s: vertex %d replica word %d = %#x, cache %#x", step, x, wi, wd, want)
			}
		}
		if got, want := tab.row(s), b.counts(nbrs); !equalCounts(got, want) {
			t.Fatalf("%s: c_%d = %v, oracle %v", step, x, got, want)
		}
	}

	// Probes: every live edge, window-vertex pairs whether adjacent or not,
	// and random pairs that mostly fall outside the window.
	probes := append([]graph.Edge(nil), b.edges...)
	for i := 0; i < 32 && len(b.edges) > 0; i++ {
		u := b.edges[rng.Intn(len(b.edges))].Src
		v := b.edges[rng.Intn(len(b.edges))].Dst
		probes = append(probes, graph.Edge{Src: u, Dst: v})
	}
	for i := 0; i < 32; i++ {
		u := graph.VertexID(rng.Intn(vertexRange))
		v := graph.VertexID(rng.Intn(vertexRange))
		if i%8 == 0 {
			v = u
		}
		probes = append(probes, graph.Edge{Src: u, Dst: v})
	}
	got := make([]int32, len(b.parts))
	for _, e := range probes {
		wantN, want := b.edgeCounts(e)
		gotN := tab.clusterCounts(e, got)
		if gotN != wantN {
			t.Fatalf("%s: |S| of %v = %d, oracle %d", step, e, gotN, wantN)
		}
		if wantN > 0 && !equalCounts(got, want) {
			t.Fatalf("%s: counts of %v = %v, oracle %v", step, e, got, want)
		}
	}
}

// TestWinTableMatchesBruteForce drives a window through random adds,
// pops and commits on graphs with duplicate edges and self-loops, and
// after every add, every removal and every commit compares the
// maintained clustering state with a from-scratch recomputation. k = 70
// spans two replica words, the spotlight spread straddles the word
// boundary, and the budgeted run's vertex cache is small enough to
// evict, which exercises the rebuild path.
func TestWinTableMatchesBruteForce(t *testing.T) {
	const k = 70
	spread := []int{0, 5, 63, 64, 69}
	for _, tc := range []struct {
		name   string
		budget int64
	}{
		{"unbounded", 0},
		{"evicting", 1}, // floored at the minimum table, which evicts
	} {
		t.Run(tc.name, func(t *testing.T) {
			cache := vcache.New(k, tc.budget)
			cfg := config{
				initialLambda: DefaultInitialLambda,
				lambdaMin:     DefaultLambdaMin,
				lambdaMax:     DefaultLambdaMax,
				balanceEps:    DefaultBalanceEps,
				clustering:    true,
				totalEdges:    4_000,
			}
			sc := newScorer(cache, spread, cfg)
			w := newWindow(sc, newScorePool(nil, 1, len(spread)), DefaultEpsilon, 16, false)
			b := &bruteNeighbourhood{cache: cache, parts: spread}
			rng := rand.New(rand.NewSource(5))

			// A small hot set makes triangles, so edges have common
			// neighbours; the wide range feeds the cache enough distinct
			// vertices to evict.
			const hot, vertexRange = 12, 20_000
			var seen []graph.Edge
			nextEdge := func() graph.Edge {
				switch r := rng.Float64(); {
				case r < 0.15 && len(seen) > 0: // duplicate of an earlier edge
					return seen[rng.Intn(len(seen))]
				case r < 0.2: // self-loop on a hot vertex
					v := graph.VertexID(rng.Intn(hot))
					return graph.Edge{Src: v, Dst: v}
				}
				pick := func() graph.VertexID {
					if rng.Float64() < 0.7 {
						return graph.VertexID(rng.Intn(hot)) // hot set: shared neighbours
					}
					return graph.VertexID(rng.Intn(vertexRange))
				}
				e := graph.Edge{Src: pick(), Dst: pick()}
				seen = append(seen, e)
				return e
			}

			for step := 0; step < 3_000; step++ {
				if w.len() < 48 || (w.len() < 96 && rng.Intn(2) == 0) {
					e := nextEdge()
					w.add(e)
					b.edges = append(b.edges, e)
					b.check(t, "add", w.verts, rng, vertexRange)
					continue
				}
				e, p, _, ok := w.popBest()
				if !ok {
					t.Fatal("popBest failed on a non-empty window")
				}
				if !b.remove(e) {
					t.Fatalf("popped %v, not a live window edge", e)
				}
				b.check(t, "remove", w.verts, rng, vertexRange)
				newSrc, newDst := sc.commit(e, p)
				b.check(t, "commit", w.verts, rng, vertexRange)
				if newSrc {
					w.reassess(e.Src)
				}
				if newDst && e.Dst != e.Src {
					w.reassess(e.Dst)
				}
				// Assignments outside the window's edges, some of them to a
				// partition outside the spread, move replica sets of window
				// vertices too.
				if rng.Intn(2) == 0 {
					x := graph.Edge{Src: graph.VertexID(rng.Intn(vertexRange)), Dst: graph.VertexID(rng.Intn(hot))}
					sc.commit(x, rng.Intn(k))
					b.check(t, "foreign commit", w.verts, rng, vertexRange)
				}
			}
			if tc.budget > 0 && cache.EvictedVertices() == 0 {
				t.Fatal("budgeted run never evicted: the rebuild path went untested")
			}
		})
	}
}
