package vcache

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/adwise-go/adwise/internal/graph"
)

// driveChain assigns a chain of n edges round-robin over k partitions —
// n+1 distinct vertices, enough to force growth or eviction.
func driveChain(c *Cache, k, n int) {
	for i := 0; i < n; i++ {
		c.Assign(graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1)}, i%k)
	}
}

// TestReserveSkipsRehashes pins the capacity-hint contract: a cache
// reserved for the stream's vertex count before its first Assign never
// rehashes on the way up, while an unhinted cache pays one doubling per
// load-factor crossing.
func TestReserveSkipsRehashes(t *testing.T) {
	const k, n = 4, 50_000
	hinted := New(k, 0)
	hinted.Reserve(n + 1)
	reserved := hinted.Rehashes()
	driveChain(hinted, k, n)
	if got := hinted.Rehashes() - reserved; got != 0 {
		t.Errorf("reserved cache rehashed %d times after Reserve, want 0", got)
	}
	unhinted := New(k, 0)
	driveChain(unhinted, k, n)
	if got := unhinted.Rehashes(); got == 0 {
		t.Error("unhinted cache never rehashed over 50k inserts (hint test is vacuous)")
	}
	if hinted.Vertices() != unhinted.Vertices() || hinted.Assigned() != unhinted.Assigned() {
		t.Error("hinted and unhinted caches disagree on aggregates")
	}
}

// TestReserveIsIdempotentAndMonotone pins Reserve semantics: shrinking
// reservations are no-ops, growth preserves state.
func TestReserveIsIdempotentAndMonotone(t *testing.T) {
	c := New(4, 0)
	driveChain(c, 4, 100)
	before := c.Bytes()
	c.Reserve(10) // smaller than the current table: no-op
	if c.Bytes() != before || c.Rehashes() != 0 {
		t.Error("Reserve below current size rehashed")
	}
	c.Reserve(100_000)
	if c.Bytes() <= before {
		t.Error("Reserve above current size did not grow")
	}
	if got := c.Degree(50); got != 2 {
		t.Errorf("Degree(50) = %d after Reserve, want 2", got)
	}
}

// TestBoundedHonorsBudget drives far more vertices than the budget can
// hold and checks the budget invariant: peak tracked bytes never exceed
// the effective budget, and evictions actually happened.
func TestBoundedHonorsBudget(t *testing.T) {
	const k, n = 8, 200_000
	budget := 4 * tableBytes(minSlots, 1, k) // room for a 4096-slot table
	b := New(k, budget)
	driveChain(b, k, n)
	if got := b.PeakBytes(); got > b.Budget() {
		t.Errorf("PeakBytes = %d exceeds budget %d", got, b.Budget())
	}
	if b.EvictedVertices() == 0 {
		t.Error("no evictions under a budget 50x smaller than the stream")
	}
	if b.Assigned() != n {
		t.Errorf("Assigned = %d, want %d (edge counts are exact under eviction)", b.Assigned(), n)
	}
	var total int64
	for p := 0; p < k; p++ {
		total += b.Size(p)
	}
	if total != n {
		t.Errorf("partition sizes sum to %d, want %d", total, n)
	}
	if got := uint64(b.Vertices()); got > (b.mask+1)*3/4 {
		t.Errorf("live vertices %d exceed load capacity of the budgeted table", got)
	}
}

// TestBoundedBudgetFloor pins that an absurdly small budget still yields
// a working minimum table rather than a panic or a zero-slot table.
func TestBoundedBudgetFloor(t *testing.T) {
	b := New(4, 1)
	if b.Budget() < tableBytes(minSlots, 1, 4) {
		t.Errorf("Budget = %d below minimum table", b.Budget())
	}
	driveChain(b, 4, 5_000)
	if b.Assigned() != 5_000 {
		t.Errorf("Assigned = %d, want 5000", b.Assigned())
	}
	if b.PeakBytes() > b.Budget() {
		t.Errorf("PeakBytes %d exceeds effective budget %d", b.PeakBytes(), b.Budget())
	}
}

// TestBoundedMaxDegreeHighWater pins the maxDeg staleness contract: the
// high-water mark survives eviction of the vertex that set it.
func TestBoundedMaxDegreeHighWater(t *testing.T) {
	const k = 4
	b := New(k, 1) // minimum table: evicts hard
	// Vertex 0 reaches degree 100 (self-loops bump only the src).
	for i := 0; i < 100; i++ {
		b.Assign(graph.Edge{Src: 0, Dst: 0}, i%k)
	}
	if got := b.MaxDegree(); got != 100 {
		t.Fatalf("MaxDegree = %d, want 100", got)
	}
	// The eviction ramp drops the lowest degrees first, so a flood of
	// degree-1 vertices never touches vertex 0 — flood with degree-128
	// vertices (each fully pumped before the next insert) so the ramp
	// must pass vertex 0's degree to find room.
	for v := graph.VertexID(10_000); b.Degree(0) > 0 && v < 40_000; v++ {
		for j := 0; j < 128; j++ {
			b.Assign(graph.Edge{Src: v, Dst: v}, int(v)%k)
		}
	}
	if b.Degree(0) > 0 {
		t.Fatal("vertex 0 never evicted under minimum budget (flood too small?)")
	}
	if got := b.MaxDegree(); got < 100 {
		t.Errorf("MaxDegree decayed to %d after evicting its vertex, want >= 100", got)
	}
	// An evicted vertex re-enters as degree 1 with an empty replica set.
	newSrc, _ := b.Assign(graph.Edge{Src: 0, Dst: 1}, 0)
	if !newSrc {
		t.Error("re-inserted evicted vertex did not report a new replica")
	}
	if got := b.Degree(0); got != 1 {
		t.Errorf("Degree(0) = %d after re-insert, want 1", got)
	}
}

// TestBoundedMissAsUnseen pins the miss contract on evicted vertices:
// every read accessor reports exactly what it reports for a vertex never
// seen, including LookupWords' (0, nil).
func TestBoundedMissAsUnseen(t *testing.T) {
	const k = 4
	b := New(k, 1)
	b.Assign(graph.Edge{Src: 7, Dst: 8}, 2)
	for i := 0; b.Degree(7) > 0 && i < 1<<20; i++ {
		b.Assign(graph.Edge{Src: graph.VertexID(100 + 2*i), Dst: graph.VertexID(101 + 2*i)}, i%k)
	}
	if b.Degree(7) > 0 {
		t.Fatal("vertex 7 never evicted")
	}
	if deg, words := b.LookupWords(7); deg != 0 || words != nil {
		t.Errorf("LookupWords(evicted) = (%d, %v), want (0, nil)", deg, words)
	}
	if deg, reps := b.Lookup(7); deg != 0 || !reps.Empty() {
		t.Error("Lookup(evicted) nonzero")
	}
	if !b.Replicas(7).Empty() {
		t.Error("evicted vertex still reports replicas")
	}
}

// TestBoundedTombstoneProbing exercises the three-state probe logic
// directly: a probe chain running through tombstones must still find live
// vertices past them, and tombstone slots must be reused cleanly.
func TestBoundedTombstoneProbing(t *testing.T) {
	const k = 4
	b := New(k, 1)
	// Fill past the eviction threshold several times over, interleaving
	// lookups of a long-chain survivor set.
	survivors := make(map[graph.VertexID]int) // vertex → slot
	for i := 0; i < 40_000; i++ {
		v := graph.VertexID(i)
		b.Assign(graph.Edge{Src: v, Dst: v + 1}, int(v)%k)
	}
	// Whatever the slot sweep finds live must agree with the find-based
	// accessors — a probe bug would lose vertices behind tombstones.
	for slot, d := range b.degrees {
		if d > 0 {
			survivors[b.keys[slot]] = slot
		}
	}
	if len(survivors) != b.Vertices() {
		t.Fatalf("slot sweep found %d live vertices, Vertices() = %d", len(survivors), b.Vertices())
	}
	for v, slot := range survivors {
		deg, reps := b.Lookup(v)
		if deg != int(b.degrees[slot]) {
			t.Fatalf("vertex %d: Lookup degree %d, slot holds %d (probe lost it behind a tombstone)", v, deg, b.degrees[slot])
		}
		if got, want := reps.Count(), b.replicaView(slot).Count(); got != want {
			t.Fatalf("vertex %d: Lookup reports %d replicas, slot holds %d", v, got, want)
		}
	}
	// Live slots + tombstones never exceed the table, and the load-factor
	// invariant that bounds probe chains holds.
	if uint64(b.live+b.dead)*4 > (b.mask+1)*3+4 {
		t.Errorf("occupied slots %d exceed 3/4 of %d-slot table", b.live+b.dead, b.mask+1)
	}
}

// TestBoundedUnlimitedMatchesCache is the layer-level reference
// property: with no budget the table is observably identical to the
// map-of-entries cache model (mapCache) under any assignment sequence —
// same new-replica reports, same degrees and replica bits for every
// vertex, same aggregates — and never evicts. (The engine-level
// edge-for-edge pin is the golden-fingerprint test in internal/core.)
func TestBoundedUnlimitedMatchesCache(t *testing.T) {
	f := func(pairs []uint16) bool {
		const k = 8
		c := New(k, 0)
		m := newMapCache(k)
		for i, pr := range pairs {
			e := graph.Edge{
				Src: graph.VertexID(pr % 97),
				Dst: graph.VertexID((pr >> 8) % 97),
			}
			cs, cd := c.Assign(e, i%k)
			ms, md := m.Assign(e, i%k)
			if cs != ms || cd != md {
				return false
			}
		}
		if c.Vertices() != len(m.entries) || c.Assigned() != int64(len(pairs)) {
			return false
		}
		if len(pairs) > 0 && c.MaxDegree() != int(m.maxDeg) {
			return false
		}
		var sum int64
		for v := graph.VertexID(0); v < 97; v++ {
			mDeg, mReps := m.Lookup(v)
			deg, words := c.LookupWords(v)
			if deg != mDeg || (words == nil) != (mDeg == 0) {
				return false
			}
			for p := 0; p < k; p++ {
				if (words != nil && words[0]&(1<<uint(p)) != 0) != mReps.Contains(p) {
					return false
				}
			}
			sum += int64(mReps.Count())
		}
		for p := 0; p < k; p++ {
			if c.Size(p) != m.sizes[p] {
				return false
			}
		}
		return c.SumReplicas() == sum && c.EvictedVertices() == 0 && c.Budget() == math.MaxInt64
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestBoundedReserveClampsToBudget pins that a reservation larger than
// the budget allows is clamped, not honoured.
func TestBoundedReserveClampsToBudget(t *testing.T) {
	const k = 4
	budget := 4 * tableBytes(minSlots, 1, k)
	b := New(k, budget)
	b.Reserve(1 << 20)
	if b.Bytes() > b.Budget() {
		t.Errorf("Reserve grew table to %d bytes past budget %d", b.Bytes(), b.Budget())
	}
	if b.PeakBytes() > b.Budget() {
		t.Errorf("PeakBytes %d past budget %d after Reserve", b.PeakBytes(), b.Budget())
	}
}

func TestVerticesHintForEdges(t *testing.T) {
	cases := []struct {
		edges int64
		want  int
	}{
		{-1, 0}, {0, 0}, {4, 1}, {1000, 250}, {int64(1) << 40, 1 << 31},
	}
	for _, tc := range cases {
		if got := VerticesHintForEdges(tc.edges); got != tc.want {
			t.Errorf("VerticesHintForEdges(%d) = %d, want %d", tc.edges, got, tc.want)
		}
	}
}

func TestParseFormatBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
	}{
		{"", 0}, {"0", 0}, {"4096", 4096}, {"1k", 1 << 10}, {"1KiB", 1 << 10},
		{"64MiB", 64 << 20}, {"64mb", 64 << 20}, {"1.5g", 3 << 29}, {"2TiB", 2 << 40},
		{" 512 MiB ", 512 << 20},
	}
	for _, tc := range cases {
		got, err := ParseBytes(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseBytes(%q) = %d, %v; want %d", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"x", "-1", "12qb", "MiB", "nan", "inf", "1e19", "1e30g"} {
		if _, err := ParseBytes(bad); err == nil {
			t.Errorf("ParseBytes(%q) did not error", bad)
		}
	}
	for n, want := range map[int64]string{
		512:      "512B",
		1 << 10:  "1.0KiB",
		64 << 20: "64.0MiB",
		3 << 29:  "1.5GiB",
		2 << 40:  "2.0TiB",
		16 << 20: "16.0MiB",
	} {
		if got := FormatBytes(n); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", n, got, want)
		}
	}
}
