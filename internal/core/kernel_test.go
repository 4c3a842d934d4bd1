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

// TestScoreEdgeKernelZeroAlloc pins the //adwise:zeroalloc stamp on the
// replica-scan kernel: a scoring evaluation — balance copy, word-scan
// replica scatter, clustering accumulation, argmax — allocates nothing.
// The adwise-lint hotpath rule stops the source patterns; this proves
// today's compiler output.
func TestScoreEdgeKernelZeroAlloc(t *testing.T) {
	for _, k := range []int{8, 96} { // one-word and multi-word bitmaps
		sc := populatedScorer(t, k, 4_000)
		view := sc.view()
		neighbors := []graph.VertexID{3, 17, 99, 256, 700}
		e := graph.Edge{Src: 1, Dst: 2}
		allocs := testing.AllocsPerRun(200, func() {
			view.scoreEdge(e, neighbors, sc.prime)
		})
		if allocs != 0 {
			t.Errorf("k=%d: scoreEdge kernel allocated %.1f per run, want 0", k, allocs)
		}
	}
}

// BenchmarkScoreEdgeKernel measures one scoring evaluation on a warm
// cache — the per-edge cost every window add and rescore pass pays.
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
			view := sc.view()
			neighbors := []graph.VertexID{3, 17, 99, 256, 700}
			e := graph.Edge{Src: 1, Dst: 2}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				view.scoreEdge(e, neighbors, sc.prime)
			}
		})
	}
}
