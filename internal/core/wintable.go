package core

import (
	"math/bits"

	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/hashx"
	"github.com/adwise-go/adwise/internal/vcache"
)

// oaTable is an open-addressed, linear-probing hash table from nonzero
// uint64 keys to values of type V. Deletion shifts the rest of the probe
// run back instead of leaving tombstones, so probe chains never carry
// dead slots. The table starts empty and doubles at 3/4 load; the slot
// indices find returns are invalidated by the next insert.
type oaTable[V any] struct {
	mask uint64
	keys []uint64 // 0 marks an empty slot
	vals []V
	n    int
}

// find returns key's slot, or -1 when absent.
func (t *oaTable[V]) find(key uint64) int {
	if t.n == 0 {
		return -1
	}
	i := hashx.SplitMix64(key) & t.mask
	for {
		switch t.keys[i] {
		case key:
			return int(i)
		case 0:
			return -1
		}
		i = (i + 1) & t.mask
	}
}

// insert adds a key that is not in the table.
func (t *oaTable[V]) insert(key uint64, val V) {
	if (t.n+1)*4 > len(t.keys)*3 {
		t.grow()
	}
	i := hashx.SplitMix64(key) & t.mask
	for t.keys[i] != 0 {
		i = (i + 1) & t.mask
	}
	t.keys[i], t.vals[i] = key, val
	t.n++
}

func (t *oaTable[V]) grow() {
	size := 2 * len(t.keys)
	if size < 64 {
		size = 64
	}
	oldKeys, oldVals := t.keys, t.vals
	t.keys, t.vals, t.mask = make([]uint64, size), make([]V, size), uint64(size-1)
	for s, k := range oldKeys {
		if k == 0 {
			continue
		}
		i := hashx.SplitMix64(k) & t.mask
		for t.keys[i] != 0 {
			i = (i + 1) & t.mask
		}
		t.keys[i], t.vals[i] = k, oldVals[s]
	}
}

// deleteAt empties slot i and moves every later entry of its probe run
// whose home slot does not lie strictly between the hole and itself back
// into the hole (backward-shift deletion).
func (t *oaTable[V]) deleteAt(i int) {
	hole := uint64(i)
	for j := (hole + 1) & t.mask; t.keys[j] != 0; j = (j + 1) & t.mask {
		home := hashx.SplitMix64(t.keys[j]) & t.mask
		if (j-home)&t.mask >= (j-hole)&t.mask {
			t.keys[hole], t.vals[hole] = t.keys[j], t.vals[j]
			hole = j
		}
	}
	var zero V
	t.keys[hole], t.vals[hole] = 0, zero
	t.n--
}

// pairRec is the window state of one unordered vertex pair {lo, hi}
// (slots, lo < hi) joined by at least one window edge.
type pairRec struct {
	mult int32    // window edges between the pair
	pos  [2]int32 // index of hi in nbrs[lo], index of lo in nbrs[hi]
}

func pairKey(a, b int32) (key uint64, lo, hi int32) {
	if a > b {
		a, b = b, a
	}
	return uint64(a+1)<<32 | uint64(b+1), a, b
}

// winTable is the window vertex table: one slot per vertex with at least
// one live window edge, found through an open-addressed index and
// recycled when the vertex's last window edge leaves. A slot holds the
// vertex's incident window entries in arrival order (reassessment walks
// them) and, with the clustering score on, the state that makes Eq. 6
// exact without walking any neighbourhood per score:
//
//   - nbrs[x]: the distinct window neighbours of x (d_x = len), as slots;
//     self-loops add none;
//   - pairs: the multiplicity of every adjacent pair, and each side's
//     position in the other's nbrs list for O(1) removal;
//   - repl[x]: a copy of x's replica bitmap words from the vertex cache;
//   - cnt[x]: one int32 per allowed partition, cnt[x][i] = #{y ∈ nbrs[x]:
//     parts[i] ∈ R(y)}.
//
// link/unlink update the state when the first edge of a pair enters or
// its last leaves; replicaGained pushes a commit's new replica to the
// neighbours' rows; rebuild recomputes repl and cnt from the cache after
// an eviction zeroed replica words. The cost is O(window vertices ×
// allowed partitions) int32s plus the pair table.
//
// Between mutations the table is read-only, so scoring workers may call
// clusterCounts concurrently.
type winTable struct {
	index oaTable[int32] // vertex id + 1 → slot
	key   []graph.VertexID
	inc   [][]*winEntry
	free  []int32

	clustering bool
	cache      *vcache.Cache
	partIdx    []int32 // global partition → allowed index, −1 outside
	wpe        int     // replica words per vertex
	nparts     int     // allowed partitions (row length)
	nbrs       [][]int32
	pairs      oaTable[pairRec]
	repl       []uint64 // wpe words per slot
	cnt        []int32  // nparts counters per slot
}

func newWinTable(cache *vcache.Cache, partIdx []int32, nparts int, clustering bool) *winTable {
	return &winTable{
		clustering: clustering,
		cache:      cache,
		partIdx:    partIdx,
		wpe:        (cache.K() + 63) / 64,
		nparts:     nparts,
	}
}

// slot returns v's slot, or −1 when v has no live window edge.
func (t *winTable) slot(v graph.VertexID) int32 {
	if i := t.index.find(uint64(v) + 1); i >= 0 {
		return t.index.vals[i]
	}
	return -1
}

// incident returns the live window entries incident to v in arrival
// order. The slice aliases the table; callers must not mutate the table
// while walking it.
func (t *winTable) incident(v graph.VertexID) []*winEntry {
	if s := t.slot(v); s >= 0 {
		return t.inc[s]
	}
	return nil
}

// acquire returns v's slot, creating it (recycling a freed one when
// possible) with empty lists and, under clustering, v's current replica
// words and a zero count row.
func (t *winTable) acquire(v graph.VertexID) int32 {
	if s := t.slot(v); s >= 0 {
		return s
	}
	var s int32
	if n := len(t.free); n > 0 {
		s = t.free[n-1]
		t.free = t.free[:n-1]
		t.key[s] = v
	} else {
		s = int32(len(t.key))
		t.key = append(t.key, v)
		t.inc = append(t.inc, nil)
		if t.clustering {
			t.nbrs = append(t.nbrs, nil)
			t.repl = append(t.repl, make([]uint64, t.wpe)...)
			t.cnt = append(t.cnt, make([]int32, t.nparts)...)
		}
	}
	if t.clustering {
		r := t.replicas(s)
		clear(r)
		_, words := t.cache.LookupWords(v)
		copy(r, words)
		clear(t.row(s))
	}
	t.index.insert(uint64(v)+1, s)
	return s
}

// release frees a slot whose last incident entry has left; its emptied
// lists keep their capacity for the next vertex.
func (t *winTable) release(s int32) {
	t.index.deleteAt(t.index.find(uint64(t.key[s]) + 1))
	t.free = append(t.free, s)
}

func (t *winTable) replicas(s int32) []uint64 {
	return t.repl[int(s)*t.wpe : (int(s)+1)*t.wpe]
}

func (t *winTable) row(s int32) []int32 {
	return t.cnt[int(s)*t.nparts : (int(s)+1)*t.nparts]
}

// link records a new window entry: it joins its endpoints' incident
// lists and, when it is the first window edge between two distinct
// vertices, makes them neighbours.
func (t *winTable) link(ent *winEntry) {
	su := t.acquire(ent.edge.Src)
	t.inc[su] = append(t.inc[su], ent)
	if ent.edge.Dst == ent.edge.Src {
		return
	}
	sv := t.acquire(ent.edge.Dst)
	t.inc[sv] = append(t.inc[sv], ent)
	if !t.clustering {
		return
	}
	key, lo, hi := pairKey(su, sv)
	if i := t.pairs.find(key); i >= 0 {
		t.pairs.vals[i].mult++
		return
	}
	t.pairs.insert(key, pairRec{mult: 1, pos: [2]int32{int32(len(t.nbrs[lo])), int32(len(t.nbrs[hi]))}})
	t.nbrs[lo] = append(t.nbrs[lo], hi)
	t.nbrs[hi] = append(t.nbrs[hi], lo)
	addReplicas(t.row(lo), t.replicas(hi), t.partIdx, 1)
	addReplicas(t.row(hi), t.replicas(lo), t.partIdx, 1)
}

// unlink drops a leaving window entry: the endpoints stop being
// neighbours when it was their last window edge, and a vertex left with
// no window edge releases its slot.
func (t *winTable) unlink(ent *winEntry) {
	su := t.slot(ent.edge.Src)
	if ent.edge.Dst == ent.edge.Src {
		t.dropIncident(su, ent)
		return
	}
	sv := t.slot(ent.edge.Dst)
	if t.clustering {
		key, lo, hi := pairKey(su, sv)
		i := t.pairs.find(key)
		if t.pairs.vals[i].mult--; t.pairs.vals[i].mult == 0 {
			pos := t.pairs.vals[i].pos
			t.pairs.deleteAt(i)
			t.dropNeighbour(lo, pos[0])
			t.dropNeighbour(hi, pos[1])
			addReplicas(t.row(lo), t.replicas(hi), t.partIdx, -1)
			addReplicas(t.row(hi), t.replicas(lo), t.partIdx, -1)
		}
	}
	t.dropIncident(su, ent)
	t.dropIncident(sv, ent)
}

// dropIncident removes ent from slot s's incident list, keeping arrival
// order (reassessment promotes in list order under the candidate cap, so
// the order is part of the assignment semantics).
func (t *winTable) dropIncident(s int32, ent *winEntry) {
	list := t.inc[s]
	for i, e := range list {
		if e == ent {
			copy(list[i:], list[i+1:])
			list[len(list)-1] = nil
			t.inc[s] = list[:len(list)-1]
			break
		}
	}
	if len(t.inc[s]) == 0 {
		t.release(s)
	}
}

// dropNeighbour swap-removes position pos of nbrs[x], re-pointing the
// pair record of the neighbour moved into the gap.
func (t *winTable) dropNeighbour(x, pos int32) {
	list := t.nbrs[x]
	last := len(list) - 1
	if moved := list[last]; int(pos) != last {
		list[pos] = moved
		key, lo, _ := pairKey(x, moved)
		side := 1
		if lo == x {
			side = 0
		}
		t.pairs.vals[t.pairs.find(key)].pos[side] = pos
	}
	t.nbrs[x] = list[:last]
}

// replicaGained mirrors a commit's new replica of v on partition p: v's
// replica copy gains the bit and every window neighbour's row counts it.
func (t *winTable) replicaGained(v graph.VertexID, p int) {
	s := t.slot(v)
	if s < 0 {
		return
	}
	t.replicas(s)[p>>6] |= 1 << (uint(p) & 63)
	if idx := t.partIdx[p]; idx >= 0 {
		for _, y := range t.nbrs[s] {
			t.cnt[int(y)*t.nparts+int(idx)]++
		}
	}
}

// rebuild recomputes every replica copy and count row from the vertex
// cache. Eviction zeroes replica words of arbitrary vertices, which no
// per-commit delta can express, so a commit that evicted calls this.
func (t *winTable) rebuild() {
	for i, k := range t.index.keys {
		if k == 0 {
			continue
		}
		s := t.index.vals[i]
		r := t.replicas(s)
		clear(r)
		_, words := t.cache.LookupWords(t.key[s])
		copy(r, words)
	}
	for i, k := range t.index.keys {
		if k == 0 {
			continue
		}
		s := t.index.vals[i]
		row := t.row(s)
		clear(row)
		for _, y := range t.nbrs[s] {
			addReplicas(row, t.replicas(y), t.partIdx, 1)
		}
	}
}

// clusterCounts evaluates the clustering score's integer inputs for e =
// (u,v) exactly, from the maintained rows: it fills counts[i] with the
// number of vertices in S = N(u)∪N(v)∖{u,v} replicated on parts[i] and
// returns |S|. For u ≠ v both in the window,
//
//	|S|      = d_u + d_v − 2·[u~v] − |N(u)∩N(v)|
//	counts_i = c_u[i] + c_v[i] − [u~v]·([p_i∈R(u)] + [p_i∈R(v)])
//	           − Σ_{w∈N(u)∩N(v)} [p_i∈R(w)]
//
// with the intersection found by walking the shorter neighbour list and
// probing the pair table. A self-loop, or an edge with one endpoint
// outside the window, reads one row. counts is left unspecified when |S|
// is 0.
//
//adwise:zeroalloc
func (t *winTable) clusterCounts(e graph.Edge, counts []int32) int {
	su, sv := t.slot(e.Src), t.slot(e.Dst)
	if e.Dst == e.Src || sv < 0 {
		su, sv = sv, su
	}
	if sv < 0 {
		return 0
	}
	if su < 0 || su == sv {
		copy(counts, t.row(sv))
		return len(t.nbrs[sv])
	}
	ru, rv := t.row(su), t.row(sv)
	for i := range counts {
		counts[i] = ru[i] + rv[i]
	}
	n := len(t.nbrs[su]) + len(t.nbrs[sv])
	if key, _, _ := pairKey(su, sv); t.pairs.find(key) >= 0 {
		n -= 2
		addReplicas(counts, t.replicas(su), t.partIdx, -1)
		addReplicas(counts, t.replicas(sv), t.partIdx, -1)
	}
	walk, other := su, sv
	if len(t.nbrs[sv]) < len(t.nbrs[su]) {
		walk, other = sv, su
	}
	for _, w := range t.nbrs[walk] {
		if w == other {
			continue
		}
		if key, _, _ := pairKey(other, w); t.pairs.find(key) >= 0 {
			n--
			addReplicas(counts, t.replicas(w), t.partIdx, -1)
		}
	}
	return n
}

// addReplicas adds delta to row[partIdx[b]] for every replica bit b set
// in words that falls in the allowed spread.
//
//adwise:zeroalloc
func addReplicas(row []int32, words []uint64, partIdx []int32, delta int32) {
	for wi, wd := range words {
		base := wi << 6
		for wd != 0 {
			if idx := partIdx[base+bits.TrailingZeros64(wd)]; idx >= 0 {
				row[idx] += delta
			}
			wd &= wd - 1
		}
	}
}
