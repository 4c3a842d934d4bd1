package engine

import (
	"fmt"

	"github.com/adwise-go/adwise/internal/graph"
)

// CycleSearchConfig configures one subgraph-isomorphism search for circles
// (simple cycles) of a fixed length — the Figure 7d workload. The paper
// searches the Brain graph for circles of lengths 19/15/21; the
// reproduction uses shorter lengths at its reduced scale (ARCHITECTURE.md
// "Evaluation substrate").
type CycleSearchConfig struct {
	// Length is the circle length to search for (number of edges).
	Length int
	// Seeds are the vertices walkers start from. Bounding the seed set
	// bounds the exponential path expansion on commodity hardware; pass
	// every vertex for an exhaustive search on small graphs.
	Seeds []graph.VertexID
	// MaxMessagesPerPartition caps the paths a partition may produce per
	// superstep; excess paths are dropped and counted (0 = unlimited).
	MaxMessagesPerPartition int
}

// CycleSearchResult reports what a cycle search found.
type CycleSearchResult struct {
	// Found counts closed simple paths of the requested length discovered
	// by the walkers. Each cycle is found once per seed vertex on it and
	// direction, so the raw count over-counts distinct cycles by up to
	// 2·|seeds on cycle|; tests normalise accordingly.
	Found int64
	// Dropped counts path messages discarded by the per-partition cap.
	Dropped int64
}

type pathMsg struct {
	path []graph.VertexID // path[0] is the origin
}

// CycleSearch runs the message-passing circle search: path messages extend
// hop by hop along local edges, partitions exchange messages for vertices
// mastered elsewhere, and a path closing back at its origin at exactly the
// requested length counts as a found circle. This is the communication-
// and computation-heavy regime the paper uses to show the partitioning
// sweet spot most clearly.
func (e *Engine) CycleSearch(cfg CycleSearchConfig) (CycleSearchResult, Report, error) {
	if cfg.Length < 3 {
		return CycleSearchResult{}, Report{}, fmt.Errorf("engine: cycle length must be >= 3, got %d", cfg.Length)
	}
	if len(cfg.Seeds) == 0 {
		return CycleSearchResult{}, Report{}, fmt.Errorf("engine: cycle search needs at least one seed")
	}
	start := e.clk.Now()

	// inbox[v] holds the path messages whose frontier is v.
	inbox := make([][]pathMsg, e.numV)
	for _, s := range cfg.Seeds {
		if int(s) >= e.numV {
			return CycleSearchResult{}, Report{}, fmt.Errorf("engine: seed %d outside vertex universe", s)
		}
		inbox[s] = append(inbox[s], pathMsg{path: []graph.VertexID{s}})
	}

	var res CycleSearchResult
	rep := Report{}
	edgeOps := make([]int64, e.k)
	vertexOps := make([]int64, e.k)
	msgs := make([]int64, e.k)
	outPer := make([]map[graph.VertexID][]pathMsg, e.k)
	foundPer := make([]int64, e.k)
	droppedPer := make([]int64, e.k)

	for step := 0; step < cfg.Length; step++ {
		for p := 0; p < e.k; p++ {
			edgeOps[p], vertexOps[p], msgs[p] = 0, 0, 0
			outPer[p] = make(map[graph.VertexID][]pathMsg)
			foundPer[p], droppedPer[p] = 0, 0
		}

		// Broadcast cost (sequential, race-free): every vertex with a
		// non-empty inbox is shipped from its master to all mirrors before
		// the parallel phase; the sending master's partition is charged.
		for v := range inbox {
			if len(inbox[v]) == 0 {
				continue
			}
			reps := e.replicas[v]
			if len(reps) > 1 {
				msgs[int(e.master[v])] += int64(len(reps) - 1)
			}
		}

		e.parallel(func(p int) {
			lp := &e.parts[p]
			out := outPer[p]
			var produced int64
			for _, ed := range lp.edges {
				e.extendAlong(cfg, p, ed.Src, ed.Dst, inbox, out, &produced, edgeOps, foundPer, droppedPer)
				if ed.Dst != ed.Src {
					e.extendAlong(cfg, p, ed.Dst, ed.Src, inbox, out, &produced, edgeOps, foundPer, droppedPer)
				}
			}
			var vops int64
			for _, v := range lp.vertices {
				if len(inbox[v]) > 0 {
					vops++
				}
			}
			vertexOps[p] = vops
		})

		// Merge per-partition outboxes into the next inboxes, charging a
		// message for every path whose destination is mastered elsewhere.
		next := make([][]pathMsg, e.numV)
		var delivered int64
		for p := 0; p < e.k; p++ {
			for dst, list := range outPer[p] {
				if e.master[dst] != int32(p) {
					msgs[p] += int64(len(list))
				}
				next[dst] = append(next[dst], list...)
				delivered += int64(len(list))
			}
			res.Found += foundPer[p]
			res.Dropped += droppedPer[p]
		}
		inbox = next

		var stepMsgs int64
		for p := range msgs {
			rep.EdgeOps += edgeOps[p]
			stepMsgs += msgs[p]
		}
		rep.Messages += stepMsgs
		stepLat := e.stepCost(edgeOps, vertexOps, msgs)
		rep.PerStep = append(rep.PerStep, stepLat)
		rep.SimulatedLatency += stepLat
		rep.Supersteps++
		if delivered == 0 {
			break
		}
	}
	rep.WallTime = e.clk.Now().Sub(start)
	return res, rep, nil
}

// extendAlong extends every path message waiting at from across the local
// edge (from → to), recording completed circles and queueing the extended
// paths at to.
func (e *Engine) extendAlong(cfg CycleSearchConfig, p int, from, to graph.VertexID,
	inbox [][]pathMsg, out map[graph.VertexID][]pathMsg, produced *int64,
	edgeOps []int64, foundPer, droppedPer []int64) {

	waiting := inbox[from]
	if len(waiting) == 0 {
		return
	}
	edgeOps[p] += int64(len(waiting))
	for _, m := range waiting {
		hops := len(m.path) - 1 // edges traversed so far
		// The extension (from → to) is hop number hops+1.
		if hops+1 == cfg.Length {
			if to == m.path[0] {
				foundPer[p]++ // closed back at the origin: circle found
			}
			continue
		}
		if contains(m.path, to) {
			continue // simple paths only
		}
		if cfg.MaxMessagesPerPartition > 0 && *produced >= int64(cfg.MaxMessagesPerPartition) {
			droppedPer[p]++
			continue
		}
		np := make([]graph.VertexID, len(m.path)+1)
		copy(np, m.path)
		np[len(m.path)] = to
		out[to] = append(out[to], pathMsg{path: np})
		*produced++
	}
}

func contains(path []graph.VertexID, v graph.VertexID) bool {
	for _, u := range path {
		if u == v {
			return true
		}
	}
	return false
}
