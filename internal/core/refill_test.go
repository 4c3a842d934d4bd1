package core

import (
	"testing"

	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/metrics"
	"github.com/adwise-go/adwise/internal/stream"
)

// nextOnlyStream hides the inner stream's NextBatch, so the refill's
// buffered stream falls back to one Next per edge.
type nextOnlyStream struct{ inner stream.Stream }

func (n *nextOnlyStream) Next() (graph.Edge, bool) { return n.inner.Next() }
func (n *nextOnlyStream) Remaining() int64         { return n.inner.Remaining() }

// refillSources are the two stream kinds the refill must treat alike: a
// batch-capable in-memory stream and a Next-only wrapper around one.
var refillSources = []struct {
	name string
	mk   func([]graph.Edge) stream.Stream
}{
	{"batch", func(e []graph.Edge) stream.Stream { return stream.FromEdges(e) }},
	{"next-only", func(e []graph.Edge) stream.Stream { return &nextOnlyStream{inner: stream.FromEdges(e)} }},
}

// runRefill runs one fixed-window ADWISE pass over s and returns the
// assignment and run stats.
func runRefill(t *testing.T, s stream.Stream, window, workers int, eager bool) (*metrics.Assignment, RunStats) {
	t.Helper()
	opts := []Option{
		WithInitialWindow(window),
		WithFixedWindow(),
		WithMaxCandidates(256),
		WithScoreWorkers(workers),
	}
	if eager {
		opts = append(opts, WithEagerTraversal())
	}
	ad, err := New(8, opts...)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ad.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	return a, ad.Stats()
}

// wantRefillPasses is the refill-call count of a fixed window over n
// edges: the initial fill, then one single-edge top-up per pop while the
// stream lasts.
func wantRefillPasses(n, window int) int64 {
	if n <= window {
		return 1
	}
	return int64(1 + n - window)
}

// requireSameAssignments fails unless a and b assigned the same edges to
// the same partitions in the same order.
func requireSameAssignments(t *testing.T, label string, a, b *metrics.Assignment) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: assigned %d edges, reference %d", label, b.Len(), a.Len())
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] || a.Parts[i] != b.Parts[i] {
			t.Fatalf("%s: diverged at assignment %d: reference %v→%d, got %v→%d",
				label, i, a.Edges[i], a.Parts[i], b.Edges[i], b.Parts[i])
		}
	}
}

// TestBatchedRefillMatchesPerEdge pins the window refill against the
// source kind feeding it: a batch-capable stream and a Next-only wrapper
// must produce edge-for-edge identical assignments, equal to the golden
// fingerprints recorded before the batched refill was removed, across
// lazy and eager traversal and every tested worker count. The clustering
// score is on (the default), so every insertion feeds the neighbourhoods
// of later scores. Run under -race this also checks the pool passes.
func TestBatchedRefillMatchesPerEdge(t *testing.T) {
	all := equivalenceGraph(t)
	for _, mode := range []struct {
		name   string
		eager  bool
		n      int // stream prefix (eager pops are quadratic in the window)
		window int
		want   uint64
	}{
		{"lazy", false, 30_000, 1024, 0x18f2e01b6dafafce},
		{"eager", true, 6_000, 256, 0x1c0129fd67f00e32},
	} {
		edges := all[:mode.n]
		for _, workers := range []int{1, 2, 8} {
			var ref *metrics.Assignment
			var refOps int64
			for _, src := range refillSources {
				label := mode.name + "/" + src.name
				a, st := runRefill(t, src.mk(edges), mode.window, workers, mode.eager)
				if got := fingerprint(a); got != mode.want {
					t.Errorf("%s workers=%d: fingerprint %#016x, want %#016x", label, workers, got, mode.want)
				}
				if want := wantRefillPasses(mode.n, mode.window); st.RefillPasses != want {
					t.Errorf("%s workers=%d: RefillPasses = %d, want %d", label, workers, st.RefillPasses, want)
				}
				if ref == nil {
					ref, refOps = a, st.ScoreComputations
					continue
				}
				requireSameAssignments(t, label, ref, a)
				if st.ScoreComputations != refOps {
					t.Errorf("%s workers=%d: ScoreComputations = %d, batch source %d",
						label, workers, st.ScoreComputations, refOps)
				}
			}
		}
	}
}

// TestBatchedRefillDeficitExceedsStream pins the short-stream boundary:
// with the first window deficit larger than the whole stream, the
// initial fill must drain the stream in one refill call and every edge
// must still be assigned.
func TestBatchedRefillDeficitExceedsStream(t *testing.T) {
	edges := equivalenceGraph(t)[:3_000]
	const window = 4096 // first deficit (4096) > stream length (3000)
	for _, workers := range []int{1, 2, 8} {
		for _, src := range refillSources {
			a, st := runRefill(t, src.mk(edges), window, workers, false)
			if a.Len() != len(edges) {
				t.Fatalf("%s workers=%d: assigned %d of %d edges", src.name, workers, a.Len(), len(edges))
			}
			if got, want := fingerprint(a), uint64(0xd04815945f39f366); got != want {
				t.Errorf("%s workers=%d: fingerprint %#016x, want %#016x", src.name, workers, got, want)
			}
			if st.RefillPasses != 1 {
				t.Errorf("%s workers=%d: RefillPasses = %d, want 1 (the initial fill takes the whole stream)",
					src.name, workers, st.RefillPasses)
			}
		}
	}
}

// unsizedStream hides the stream length: Remaining is unknown (-1), the
// contract under which Run must fall back to the window-derived
// assignment-capacity hint instead of a magic constant.
type unsizedStream struct{ inner stream.Stream }

func (u *unsizedStream) Next() (graph.Edge, bool) { return u.inner.Next() }
func (u *unsizedStream) Remaining() int64         { return -1 }

// TestRefillUnknownRemaining runs the refill over a stream that cannot
// report its length: it must drain the stream through the Next
// fallback, assign every edge exactly as recorded before the batched
// refill was removed, and count one refill call per single-edge top-up.
func TestRefillUnknownRemaining(t *testing.T) {
	edges := equivalenceGraph(t)[:10_000]
	const window = 512
	ad, err := New(8, WithInitialWindow(window), WithFixedWindow(), WithScoreWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	a, err := ad.Run(&unsizedStream{inner: stream.FromEdges(edges)})
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != len(edges) {
		t.Fatalf("run over unsized stream assigned %d of %d edges", a.Len(), len(edges))
	}
	if got, want := fingerprint(a), uint64(0x5559e8db3c2c4572); got != want {
		t.Errorf("fingerprint %#016x, want %#016x", got, want)
	}
	if got, want := ad.Stats().RefillPasses, wantRefillPasses(len(edges), window); got != want {
		t.Errorf("RefillPasses = %d, want %d", got, want)
	}
}
