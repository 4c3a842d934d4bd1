package core

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"github.com/adwise-go/adwise/internal/gen"
	"github.com/adwise-go/adwise/internal/metrics"
	"github.com/adwise-go/adwise/internal/partition"
	"github.com/adwise-go/adwise/internal/stream"
	"github.com/adwise-go/adwise/internal/vcache"
)

// fingerprint is an FNV-64a hash of the (edge, partition) sequence of an
// assignment: equal fingerprints mean the same edges assigned to the same
// partitions in the same order.
func fingerprint(a *metrics.Assignment) uint64 {
	h := fnv.New64a()
	var buf [12]byte
	for i, e := range a.Edges {
		binary.LittleEndian.PutUint32(buf[0:], uint32(e.Src))
		binary.LittleEndian.PutUint32(buf[4:], uint32(e.Dst))
		binary.LittleEndian.PutUint32(buf[8:], uint32(a.Parts[i]))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestBoundedUnlimitedEquivalence is the golden-fingerprint contract of
// the unbounded vertex-state path: each run below, at the default budget
// (0, unbounded), must reproduce the assignment fingerprint recorded from
// the original unbounded table, which this budgeted table replaced. It
// sweeps ADWISE traversal mode × stream source kind (batch-capable or
// Next-only) × score-worker count {1, 2, 8}, and the single-edge
// strategies HDRF, DBH, Greedy, Grid and Hash, all on one fixed RMAT
// graph. Run under -race in CI this also
// drives the table probes through the sharded scoring pool. A changed
// fingerprint means the change altered assignments; re-record only when
// that is intended.
func TestBoundedUnlimitedEquivalence(t *testing.T) {
	all := equivalenceGraph(t)[:30_000]

	for _, mode := range []struct {
		name  string
		edges int
		next  bool // feed a Next-only wrapper instead of the batch-capable stream
		opts  []Option
		want  uint64
	}{
		{"lazy/batched", len(all), false, nil, 0x5c2f210f5fdaf95a},
		{"lazy/per-edge", len(all), true, nil, 0x5c2f210f5fdaf95a},
		// Eager rescoring is quadratic in the window per pop; a
		// shorter prefix keeps the sweep affordable under -race.
		{"eager/batched", 8_000, false, []Option{WithEagerTraversal()}, 0xcbc12fd6a01e8f99},
	} {
		t.Run(mode.name, func(t *testing.T) {
			for _, workers := range []int{1, 2, 8} {
				ad, err := New(8, append([]Option{
					WithInitialWindow(256),
					WithFixedWindow(),
					WithMaxCandidates(256),
					WithScoreWorkers(workers),
				}, mode.opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				var s stream.Stream = stream.FromEdges(all[:mode.edges])
				if mode.next {
					s = &nextOnlyStream{inner: s}
				}
				a, err := ad.Run(s)
				if err != nil {
					t.Fatal(err)
				}
				if got := fingerprint(a); got != mode.want {
					t.Errorf("workers=%d: fingerprint %#016x, want %#016x", workers, got, mode.want)
				}
				st := ad.Stats()
				if st.EvictedVertices != 0 {
					t.Fatalf("workers=%d: unbounded run evicted %d vertices", workers, st.EvictedVertices)
				}
				if st.PeakCacheBytes == 0 || st.CacheBytes == 0 {
					t.Fatalf("workers=%d: cache byte stats not reported (bytes=%d peak=%d)",
						workers, st.CacheBytes, st.PeakCacheBytes)
				}
			}
		})
	}

	cfg := partition.Config{K: 8, Seed: 42}
	for _, tc := range []struct {
		name string
		mk   func() (partition.Partitioner, error)
		want uint64
	}{
		{"hdrf", func() (partition.Partitioner, error) {
			return partition.NewHDRF(cfg, partition.HDRFDefaultLambda)
		}, 0x689c59559efafef0},
		{"dbh", func() (partition.Partitioner, error) { return partition.NewDBH(cfg) }, 0x831d19b637cd589c},
		{"greedy", func() (partition.Partitioner, error) { return partition.NewGreedy(cfg) }, 0x870a9eb1f31482cd},
		{"grid", func() (partition.Partitioner, error) { return partition.NewGrid(cfg) }, 0x964ddd925aea13b3},
		{"hash", func() (partition.Partitioner, error) { return partition.NewHash(cfg) }, 0xe605f266b587539e},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			a, err := partition.Run(stream.FromEdges(all), p)
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprint(a); got != tc.want {
				t.Errorf("fingerprint %#016x, want %#016x", got, tc.want)
			}
			if ev := p.Cache().EvictedVertices(); ev != 0 {
				t.Fatalf("unbounded run evicted %d vertices", ev)
			}
		})
	}
}

// TestBoundedEighthBudgetDegradation pins the graceful-degradation
// envelope: at one eighth of the unbounded peak footprint the run must
// still assign every edge, must actually evict, must stay within its
// effective budget, and must keep the replication factor within 2x of
// the unbounded reference on a skewed RMAT stream. The 2x bound is
// deliberately loose — it guards against pathological quality collapse
// (e.g. eviction thrashing that forgets every hub), not against the
// expected few-percent drift the memory experiment tracks.
func TestBoundedEighthBudgetDegradation(t *testing.T) {
	g, err := gen.RMAT(15, 60_000, 0.57, 0.19, 0.19, 11)
	if err != nil {
		t.Fatal(err)
	}
	run := func(budget int64) (*metrics.Assignment, RunStats) {
		t.Helper()
		opts := []Option{
			WithInitialWindow(256),
			WithFixedWindow(),
			WithMaxCandidates(256),
		}
		if budget > 0 {
			opts = append(opts, WithVertexBudget(budget))
		}
		ad, err := New(8, opts...)
		if err != nil {
			t.Fatal(err)
		}
		a, err := ad.Run(stream.FromEdges(g.Edges))
		if err != nil {
			t.Fatal(err)
		}
		return a, ad.Stats()
	}

	refA, refStats := run(0)
	refRF := metrics.Summarize(refA).ReplicationDegree
	if refStats.PeakCacheBytes == 0 {
		t.Fatal("unbounded run reported zero peak cache bytes")
	}

	budget := refStats.PeakCacheBytes / 8
	a, st := run(budget)
	if a.Len() != refA.Len() {
		t.Fatalf("bounded run assigned %d edges, unbounded %d", a.Len(), refA.Len())
	}
	effective := vcache.New(8, budget).Budget()
	if st.PeakCacheBytes > effective {
		t.Fatalf("peak %d exceeds effective budget %d", st.PeakCacheBytes, effective)
	}
	if effective < refStats.PeakCacheBytes && st.EvictedVertices == 0 {
		t.Fatalf("effective budget %d below unbounded peak %d but nothing was evicted",
			effective, refStats.PeakCacheBytes)
	}
	rf := metrics.Summarize(a).ReplicationDegree
	if rf > 2*refRF {
		t.Fatalf("replication factor %.4f at 1/8 budget exceeds 2x the unbounded %.4f", rf, refRF)
	}
	t.Logf("unbounded rf=%.4f peak=%d; 1/8 budget rf=%.4f (%.3fx) peak=%d evicted=%d",
		refRF, refStats.PeakCacheBytes, rf, rf/refRF, st.PeakCacheBytes, st.EvictedVertices)
}
