package core

import (
	"math/rand"
	"testing"

	"github.com/adwise-go/adwise/internal/graph"
)

// populatedScorer returns a scorer over k partitions with a warm cache:
// n random assignments so replica bitmaps have plenty of set bits for
// the word-scan kernel to walk.
func populatedScorer(tb testing.TB, k, n int) *scorer {
	tb.Helper()
	sc, cache := newTestScorer(k, 1.0, true, int64(n))
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < n; i++ {
		e := graph.Edge{
			Src: graph.VertexID(rng.Intn(n / 4)),
			Dst: graph.VertexID(rng.Intn(n / 4)),
		}
		cache.Assign(e, rng.Intn(k))
	}
	return sc
}

// populatedWindow links n random edges among the first n/8 vertex ids
// into a window over sc, so the clustering kernel has overlapping
// neighbourhoods, shared neighbours and duplicate edges to walk.
func populatedWindow(sc *scorer, n int) *window {
	w := newWindow(sc, newScorePool(nil, 1, len(sc.parts)), DefaultEpsilon, DefaultMaxCandidates, false)
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < n; i++ {
		w.add(graph.Edge{
			Src: graph.VertexID(rng.Intn(n / 8)),
			Dst: graph.VertexID(rng.Intn(n / 8)),
		})
	}
	return w
}

// TestScoreEdgeKernelZeroAlloc pins the //adwise:zeroalloc stamp on the
// replica-scan kernel: a scoring evaluation — balance copy, word-scan
// replica scatter, clustering counts from the window vertex table,
// argmax — allocates nothing. The adwise-lint hotpath rule stops the
// source patterns; this proves today's compiler output.
func TestScoreEdgeKernelZeroAlloc(t *testing.T) {
	for _, k := range []int{8, 96} { // one-word and multi-word bitmaps
		sc := populatedScorer(t, k, 4_000)
		populatedWindow(sc, 512)
		view := sc.view()
		e := graph.Edge{Src: 1, Dst: 2}
		allocs := testing.AllocsPerRun(200, func() {
			view.scoreEdge(e, sc.prime)
		})
		if allocs != 0 {
			t.Errorf("k=%d: scoreEdge kernel allocated %.1f per run, want 0", k, allocs)
		}
	}
}

// TestClusteringScoreSteadyStateZeroAlloc scores every entry of a
// clustering-on window that has run to steady state — pops, commits and
// refills have recycled entries and vertex slots — and requires the
// scoring of the whole window, clustering combine included, to allocate
// nothing.
func TestClusteringScoreSteadyStateZeroAlloc(t *testing.T) {
	sc, _ := newTestScorer(70, 1.0, true, 20_000)
	w := populatedWindow(sc, 1_024)
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 2_000; i++ {
		e, p, _, ok := w.popBest()
		if !ok {
			t.Fatal("window drained")
		}
		sc.commit(e, p)
		w.add(graph.Edge{Src: graph.VertexID(rng.Intn(128)), Dst: graph.VertexID(rng.Intn(128))})
	}
	view := sc.view()
	ents := append(append([]*winEntry(nil), w.candidates...), w.secondary...)
	allocs := testing.AllocsPerRun(20, func() {
		for _, ent := range ents {
			view.scoreEdge(ent.edge, sc.prime)
		}
	})
	if allocs != 0 {
		t.Errorf("scoring a steady-state window allocated %.1f per pass, want 0", allocs)
	}
}

// BenchmarkScoreEdgeKernel measures one scoring evaluation on a warm
// cache and a populated window — the per-edge cost every window add and
// rescore pass pays.
func BenchmarkScoreEdgeKernel(b *testing.B) {
	for _, bc := range []struct {
		name       string
		k          int
		clustering bool
	}{
		{"k=8/cs=on", 8, true},
		{"k=8/cs=off", 8, false},
		{"k=96/cs=on", 96, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			sc, cache := newTestScorer(bc.k, 1.0, bc.clustering, 40_000)
			rng := rand.New(rand.NewSource(11))
			for i := 0; i < 40_000; i++ {
				e := graph.Edge{
					Src: graph.VertexID(rng.Intn(10_000)),
					Dst: graph.VertexID(rng.Intn(10_000)),
				}
				cache.Assign(e, rng.Intn(bc.k))
			}
			populatedWindow(sc, 1_024)
			view := sc.view()
			e := graph.Edge{Src: 1, Dst: 2}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				view.scoreEdge(e, sc.prime)
			}
		})
	}
}
