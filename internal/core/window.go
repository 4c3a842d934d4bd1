package core

import (
	"github.com/adwise-go/adwise/internal/graph"
)

// window implements the edge window with lazy traversal (§III-B): edges are
// split into a candidate set C of high-score edges and a secondary set Q.
// Per assignment only C is (re-)scored; Q is touched when C runs dry or
// when an incident vertex's replica set changes.
//
// The score threshold Θ = g_avg + ε tracks the mean cached score of window
// edges, so only better-than-average edges become candidates.
//
// # The Θ snapshot rule
//
// Every scoring pass — add classification, selectLazy, rescoreCandidates,
// rescanSecondary, reassess — snapshots Θ exactly once at pass entry and
// compares every promotion/demotion decision of the pass against that
// snapshot. updateScore mutates scoreSum mid-pass, but the drifting live
// Θ is never consulted until the next pass begins. This makes the
// decisions of a pass a pure function of its entry state (and hence
// independent of the order entries are evaluated in), which is both the
// correctness rule the serial code needs — historically selectLazy read
// Θ live per retry, so demotions depended on iteration order — and the
// precondition for sharding a pass across score workers.
//
// # Parallel scoring passes
//
// The heavy passes (rescoreCandidates, rescanSecondary, and the cached-
// score scans of lazy selection) run on a scorePool in two phases: a
// parallel compute phase scores a snapshot of the set into a results
// array (workers share nothing — per-worker scratches, an immutable
// scoreView, disjoint result slots), then a serial apply phase walks the
// snapshot in order, refreshing caches and promoting/demoting against
// the pass's Θ snapshot. Fixed shard boundaries plus shard-order argmax
// merges (see scorepool.go) make the assignment sequence edge-for-edge
// identical for any worker count.
//
// # Struct-of-arrays layout
//
// The per-entry data the hot loops touch lives in flat parallel arrays,
// not behind the *winEntry pointers: candScores[i] / secScores[i] mirror
// the cached score of candidates[i] / secondary[i] (the invariant every
// push/detach/updateScore maintains), and a pass's fresh results land in
// passScores / passParts slots indexed like the snapshot. The top-two
// candidate scan — the per-pop cost of lazy selection — is therefore a
// branch-light loop over a contiguous []float64 with no pointer chasing,
// and the same holds for the Θ re-sum and the apply phases.

type setKind uint8

const (
	inCandidates setKind = iota
	inSecondary
	removed
)

type winEntry struct {
	edge  graph.Edge
	score float64 // cached max_p g(edge, p)
	part  int     // cached argmax partition (global id)
	kind  setKind
	pos   int // index within its set slice, for O(1) swap-removal
}

type window struct {
	sc   *scorer
	pool *scorePool

	candidates []*winEntry
	secondary  []*winEntry
	// candScores[i] / secScores[i] cache candidates[i].score /
	// secondary[i].score — the struct-of-arrays mirror the scan kernels
	// run over. Maintained by pushCandidate/pushSecondary/detach/
	// updateScore; checkWindowInvariants asserts the sync.
	candScores []float64
	secScores  []float64
	// verts is the window vertex table (wintable.go): per window vertex,
	// its incident entries and the clustering-score state. add links an
	// entry into it and remove unlinks it, so between pops it describes
	// exactly the live entries. Owned by the scorer, which reads it to
	// score and updates it on commit.
	verts *winTable

	// free recycles removed entries and slab is the unused tail of the
	// last entry block, so the window allocates entries in proportion to
	// its peak size, not to the stream length.
	free []*winEntry
	slab []winEntry

	scoreSum float64 // Σ cached scores over live entries (for Θ)
	epsilon  float64 // ε in Θ = g_avg + ε
	maxCand  int     // bound on |C|; an engineering cap, see ARCHITECTURE.md "Window scoring"
	// eager disables lazy traversal: every window edge is a candidate and
	// all of them are re-scored on every pop — the O(w·|P|) baseline the
	// paper's §III-B improves on. Used by the lazy-vs-eager ablation.
	eager bool

	// Reusable pass buffers: the set snapshot walked by the apply phase
	// and the parallel compute phase's result slots (struct-of-arrays:
	// passScores[i] / passParts[i] are the fresh score and argmax
	// partition of entSnap[i]).
	entSnap    []*winEntry
	passScores []float64
	passParts  []int32

	// statistics
	promotions, demotions, reassessments, rescans int64
}

func newWindow(sc *scorer, pool *scorePool, epsilon float64, maxCand int, eager bool) *window {
	return &window{
		sc:      sc,
		pool:    pool,
		verts:   sc.verts,
		epsilon: epsilon,
		maxCand: maxCand,
		eager:   eager,
	}
}

func (w *window) len() int { return len(w.candidates) + len(w.secondary) }

// theta returns the candidate threshold Θ = g_avg + ε over live entries.
// Passes snapshot it once at entry (see the Θ snapshot rule above).
func (w *window) theta() float64 {
	n := w.len()
	if n == 0 {
		return w.epsilon
	}
	return w.scoreSum/float64(n) + w.epsilon
}

// add inserts a fresh stream edge into the window: score it once against
// the window as it stands (without the edge itself), classify against the
// live Θ (§III-B step 1) and link the entry into its set and the vertex
// table. In eager mode everything is a candidate.
func (w *window) add(e graph.Edge) {
	_, best, part := w.sc.scoreEdge(e)
	ent := w.newEntry()
	*ent = winEntry{edge: e, score: best, part: part}
	if w.eager || (best > w.theta() && len(w.candidates) < w.maxCand) {
		w.pushCandidate(ent)
	} else {
		w.pushSecondary(ent)
	}
	w.scoreSum += best
	w.verts.link(ent)
}

// entryBlock is the number of entries allocated together once the free
// list is empty.
const entryBlock = 256

// newEntry takes an entry from the free list, or from a fresh block.
func (w *window) newEntry() *winEntry {
	if n := len(w.free); n > 0 {
		ent := w.free[n-1]
		w.free = w.free[:n-1]
		return ent
	}
	if len(w.slab) == 0 {
		w.slab = make([]winEntry, entryBlock)
	}
	ent := &w.slab[0]
	w.slab = w.slab[1:]
	return ent
}

func (w *window) pushCandidate(ent *winEntry) {
	ent.kind = inCandidates
	ent.pos = len(w.candidates)
	w.candidates = append(w.candidates, ent)
	w.candScores = append(w.candScores, ent.score)
}

func (w *window) pushSecondary(ent *winEntry) {
	ent.kind = inSecondary
	ent.pos = len(w.secondary)
	w.secondary = append(w.secondary, ent)
	w.secScores = append(w.secScores, ent.score)
}

// detach removes ent from its current set slice and its parallel score
// slice (incident lists are untouched: a detached entry is still live,
// just changing sets).
func (w *window) detach(ent *winEntry) {
	var set *[]*winEntry
	var scores *[]float64
	switch ent.kind {
	case inCandidates:
		set, scores = &w.candidates, &w.candScores
	case inSecondary:
		set, scores = &w.secondary, &w.secScores
	default:
		return
	}
	s, sc := *set, *scores
	last := len(s) - 1
	s[ent.pos] = s[last]
	s[ent.pos].pos = ent.pos
	sc[ent.pos] = sc[last]
	*set = s[:last]
	*scores = sc[:last]
}

// remove detaches ent, unlinks it from the vertex table and recycles it.
// The entry's fields stay readable until the next add reuses it.
func (w *window) remove(ent *winEntry) {
	w.detach(ent)
	ent.kind = removed
	w.scoreSum -= ent.score
	w.verts.unlink(ent)
	w.free = append(w.free, ent)
}

// updateScore refreshes ent's cached score in place — both the entry
// field and its slot in the set's flat score slice — keeping scoreSum
// consistent.
func (w *window) updateScore(ent *winEntry, score float64, part int) {
	w.scoreSum += score - ent.score
	ent.score, ent.part = score, part
	switch ent.kind {
	case inCandidates:
		w.candScores[ent.pos] = score
	case inSecondary:
		w.secScores[ent.pos] = score
	}
}

// recomputeScoreSum replaces the incrementally maintained scoreSum with
// the exact Σ of live cached scores. The incremental form accumulates one
// floating-point rounding per updateScore over millions of operations;
// re-summing at every secondary rescan bounds the drift of Θ. The flat
// score slices make this a pure float64 reduction.
func (w *window) recomputeScoreSum() {
	var sum float64
	for _, s := range w.candScores {
		sum += s
	}
	for _, s := range w.secScores {
		sum += s
	}
	w.scoreSum = sum
}

// snapshotSet copies a set slice into the reusable pass snapshot buffer,
// sizing the flat result buffers to match. The apply phase walks this
// snapshot in order while promote/demote surgery perturbs the live slice.
func (w *window) snapshotSet(set []*winEntry) ([]*winEntry, []float64, []int32) {
	w.entSnap = append(w.entSnap[:0], set...)
	if cap(w.passScores) < len(set) {
		w.passScores = make([]float64, len(set))
		w.passParts = make([]int32, len(set))
	}
	w.passScores = w.passScores[:len(set)]
	w.passParts = w.passParts[:len(set)]
	return w.entSnap, w.passScores, w.passParts
}

// scoreAll is the parallel compute phase: score every snapshot entry
// against the pass view into its result slots (disjoint indices of the
// flat score/part arrays). Workers read window state nobody mutates
// during the pass; the shard id doubles as the scratch id.
func (w *window) scoreAll(ents []*winEntry, view *scoreView, scores []float64, parts []int32) {
	w.pool.forEach(len(ents), scoreGrainPerWorker, func(shard, lo, hi int) {
		scr := w.sc.prime
		if w.pool != nil {
			scr = w.pool.scratch[shard]
		}
		for i := lo; i < hi; i++ {
			_, best, part := view.scoreEdge(ents[i].edge, scr)
			scores[i], parts[i] = best, int32(part)
		}
	})
}

// popBest implements GETBESTASSIGNMENT's search (Alg. 1 line 9) with lazy
// traversal: only candidates are considered, falling back to a full
// secondary rescan when the candidate set is empty. The returned entry is
// removed from the window; the winning score g(ê,p̂) is reported for the
// (C1) bookkeeping of the adaptive window.
//
// Candidate selection itself is lazy too: cached scores order the
// candidates (a float comparison scan, no score computation) and only the
// argmax is re-scored. Because replica sets only grow and the balance term
// drifts slowly, a candidate's score rarely drops; when the fresh score
// does fall below the runner-up's cached score, the cache is updated and
// the selection retries, degenerating to a bounded number of re-scorings
// per pop — this is the "high-score edges in one window are likely to
// remain high-score edges in the subsequent window" property of §III-B.
func (w *window) popBest() (e graph.Edge, part int, score float64, ok bool) {
	if w.len() == 0 {
		return graph.Edge{}, 0, 0, false
	}
	if len(w.candidates) == 0 {
		w.rescanSecondary()
	}
	if w.eager {
		if len(w.candidates) > 0 {
			if best := w.rescoreCandidates(); best != nil {
				w.remove(best)
				return best.edge, best.part, best.score, true
			}
		}
	} else if len(w.candidates) > 0 {
		if best := w.selectLazy(); best != nil {
			w.remove(best)
			return best.edge, best.part, best.score, true
		}
	}
	if len(w.secondary) == 0 {
		// Everything was consumed by demotion-free candidate selection.
		if len(w.candidates) == 0 {
			return graph.Edge{}, 0, 0, false
		}
		return w.popFreshFrom(w.candidates, w.candScores)
	}
	// Everything scored at or below Θ: pop the best secondary entry. Its
	// cached score may predate arbitrary cache changes — e.g. when lazy
	// selection demoted every candidate, pre-existing secondary entries
	// were last scored whenever they entered the window — so the winner
	// is re-scored before the assignment is committed.
	return w.popFreshFrom(w.secondary, w.secScores)
}

// popFreshFrom picks the set's best entry by cached score (scanning the
// set's flat score slice), re-scores it against the current cache state,
// and removes it. The fresh score is what the caller commits: a cached
// (score, part) pair may be stale on every fallback path, and assigning a
// stale argmax partition would desynchronise the assignment from the
// scoring function.
func (w *window) popFreshFrom(set []*winEntry, scores []float64) (graph.Edge, int, float64, bool) {
	idx, _ := w.pool.topTwoCached(scores)
	best := set[idx]
	view := w.sc.view()
	_, fresh, part := view.scoreEdge(best.edge, w.sc.prime)
	w.updateScore(best, fresh, part)
	w.remove(best)
	return best.edge, part, fresh, true
}

// selectLazy picks the winning candidate: scan cached scores for the two
// best entries, refresh only the leader, and accept it unless its fresh
// score fell below the runner-up — in which case retry with the updated
// cache (bounded). Returns nil only if demotions empty the candidate set.
// Θ and the scoring view are snapshotted once for the whole selection
// (the Θ snapshot rule): every retry's demotion decision compares against
// the same threshold, so the outcome does not depend on how many leaders
// were refreshed before a given entry was considered.
func (w *window) selectLazy() *winEntry {
	const maxTries = 4
	theta := w.theta()
	view := w.sc.view()
	for try := 0; try < maxTries; try++ {
		if len(w.candidates) == 0 {
			return nil
		}
		idx, second := w.pool.topTwoCached(w.candScores)
		best := w.candidates[idx]
		_, fresh, part := view.scoreEdge(best.edge, w.sc.prime)
		w.updateScore(best, fresh, part)
		if fresh >= second || len(w.candidates) == 1 {
			return best
		}
		// The leader's score decayed below the runner-up: demote it if it
		// also fell under Θ, then retry against the updated cache.
		if fresh <= theta {
			w.detach(best)
			w.pushSecondary(best)
			w.demotions++
		}
	}
	// Give up on laziness for this pop: full rescore, exact argmax.
	return w.rescoreCandidates()
}

// rescoreCandidates refreshes every candidate's score, demoting those that
// fell to or below the pass's Θ snapshot (lazy mode only), and returns the
// argmax (nil if all demoted). The compute phase runs on the score
// workers; the serial apply phase walks the snapshot in insertion-position
// order, so the argmax tie-break (first strictly-greater win) is fixed.
func (w *window) rescoreCandidates() *winEntry {
	theta := w.theta()
	view := w.sc.view()
	ents, scores, parts := w.snapshotSet(w.candidates)
	w.scoreAll(ents, &view, scores, parts)

	var best *winEntry
	bestScore := 0.0
	for i, ent := range ents {
		w.updateScore(ent, scores[i], int(parts[i]))
		if !w.eager && scores[i] <= theta {
			// Demote: swap-remove from candidates, push to secondary.
			w.detach(ent)
			w.pushSecondary(ent)
			w.demotions++
			continue
		}
		if best == nil || scores[i] > bestScore {
			best, bestScore = ent, scores[i]
		}
	}
	return best
}

// rescanSecondary re-scores every secondary entry and promotes those whose
// fresh score exceeds the pass's Θ snapshot (§III-B step 2). Compute runs
// on the score workers; the apply phase promotes in snapshot order. Since
// the pass just refreshed every secondary score anyway, it finishes by
// re-summing scoreSum exactly, flushing accumulated floating-point drift.
func (w *window) rescanSecondary() {
	w.rescans++
	theta := w.theta()
	view := w.sc.view()
	ents, scores, parts := w.snapshotSet(w.secondary)
	w.scoreAll(ents, &view, scores, parts)

	for i, ent := range ents {
		w.updateScore(ent, scores[i], int(parts[i]))
		if scores[i] > theta && len(w.candidates) < w.maxCand {
			w.detach(ent)
			w.pushCandidate(ent)
			w.promotions++
		}
	}
	w.recomputeScoreSum()
}

// reassess re-scores the secondary edges incident to v — called when v
// gained a new replica, which may have raised their replication or
// clustering scores past Θ (§III-B step 3). Incident lists are short, so
// the pass runs serially on the prime scratch; Θ and the view are
// snapshotted at entry like every other pass.
func (w *window) reassess(v graph.VertexID) {
	w.reassessments++
	theta := w.theta()
	view := w.sc.view()
	for _, ent := range w.verts.incident(v) {
		if ent.kind != inSecondary || len(w.candidates) >= w.maxCand {
			continue
		}
		_, score, part := view.scoreEdge(ent.edge, w.sc.prime)
		w.updateScore(ent, score, part)
		if score > theta {
			w.detach(ent)
			w.pushCandidate(ent)
			w.promotions++
		}
	}
}
