// Package engine is the distributed graph-processing substrate of the
// reproduction: a vertex-cut, master/mirror engine in the mould of
// PowerGraph and the paper's GrapH system, executing workloads over a
// partitioned graph with one worker per partition.
//
// The engine really computes each workload (results are validated against
// sequential references in tests) and, alongside, accounts a deterministic
// simulated processing latency through a network cost model. Replica
// synchronisation — the engine's only cross-partition traffic — costs
// 2·(|Rv|−1) messages per synchronised vertex, which is precisely how the
// replication degree produced by a partitioner turns into graph processing
// latency. See ARCHITECTURE.md "Evaluation substrate" for the
// substitution argument versus the paper's 8-node cluster.
package engine

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/adwise-go/adwise/internal/clock"
	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/hashx"
	"github.com/adwise-go/adwise/internal/metrics"
)

// CostModel maps abstract work to simulated time. The defaults are
// calibrated to a 1GbE-cluster-like regime where a replica-sync message is
// roughly 25x the cost of streaming one edge through a local compute
// kernel, so communication dominates for poorly partitioned graphs —
// matching the paper's observation that replication degree drives
// processing latency.
type CostModel struct {
	// PerEdge is the compute cost of touching one local edge in a
	// superstep.
	PerEdge time.Duration
	// PerVertex is the compute cost of applying one local vertex update.
	PerVertex time.Duration
	// PerMessage is the network cost of one replica-sync or workload
	// message crossing partitions.
	PerMessage time.Duration
	// StepOverhead is the fixed barrier/coordination cost per superstep.
	StepOverhead time.Duration
	// Machines is the number of worker machines partitions are spread
	// over (partition p lives on machine p mod Machines). A BSP superstep
	// is bounded by the slowest machine, so per-partition work is
	// aggregated per machine first — the paper's testbed runs 32
	// partitions on 8 machines. Zero or negative means one machine per
	// partition.
	Machines int
}

// DefaultCostModel returns the calibration used by the benchmark harness.
func DefaultCostModel() CostModel {
	return CostModel{
		PerEdge:      20 * time.Nanosecond,
		PerVertex:    10 * time.Nanosecond,
		PerMessage:   500 * time.Nanosecond,
		StepOverhead: 2 * time.Millisecond,
		Machines:     8,
	}
}

// localPart is one partition's share of the graph: its edges and the local
// vertex universe (every vertex incident to a local edge, i.e. a replica).
type localPart struct {
	id       int
	edges    []graph.Edge
	vertices []graph.VertexID
	localIdx map[graph.VertexID]int32
}

// Engine executes workloads over a partitioned graph.
type Engine struct {
	k    int
	numV int
	cost CostModel

	parts    []localPart
	master   []int32   // per vertex: master partition, -1 if absent
	replicas [][]int32 // per vertex: sorted replica partitions (nil if |Rv|<=1)
	outDeg   []int32
	deg      []int32
	csr      *graph.CSR

	workers int
	clk     clock.Clock // wall-time source for Report.WallTime
}

// SetClock substitutes the time source behind Report.WallTime — tests
// drive workload timing deterministically with a clock.Fake. It must be
// called before running workloads.
func (e *Engine) SetClock(clk clock.Clock) { e.clk = clk }

// Report summarises one workload execution.
type Report struct {
	// Supersteps is the number of executed supersteps.
	Supersteps int
	// SimulatedLatency is the total simulated processing latency.
	SimulatedLatency time.Duration
	// PerStep holds the simulated latency of each superstep, so callers
	// can report cumulative blocks (e.g. "100 iterations of PageRank")
	// without re-running.
	PerStep []time.Duration
	// Messages is the total cross-partition message count (replica sync
	// plus workload messages).
	Messages int64
	// EdgeOps is the total number of local edge traversals.
	EdgeOps int64
	// WallTime is the real execution time of the engine run.
	WallTime time.Duration
}

// CumulativeLatency returns the simulated latency of the first n
// supersteps (all of them if n exceeds the run length).
func (r Report) CumulativeLatency(n int) time.Duration {
	if n > len(r.PerStep) {
		n = len(r.PerStep)
	}
	var total time.Duration
	for _, d := range r.PerStep[:n] {
		total += d
	}
	return total
}

// New builds an engine from a partitioning. numV fixes the vertex universe
// (use the source graph's NumV); workers bounds the goroutine pool (0
// means GOMAXPROCS).
func New(a *metrics.Assignment, numV int, cost CostModel, workers int) (*Engine, error) {
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("engine: invalid assignment: %w", err)
	}
	if a.Len() == 0 {
		return nil, fmt.Errorf("engine: empty assignment")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	for _, e := range a.Edges {
		if int(e.Src) >= numV || int(e.Dst) >= numV {
			return nil, fmt.Errorf("engine: edge %v outside vertex universe of size %d", e, numV)
		}
	}

	e := &Engine{
		k:       a.K,
		numV:    numV,
		cost:    cost,
		parts:   make([]localPart, a.K),
		master:  make([]int32, numV),
		outDeg:  make([]int32, numV),
		deg:     make([]int32, numV),
		workers: workers,
		clk:     clock.Real{},
	}
	for i := range e.master {
		e.master[i] = -1
	}
	for p := range e.parts {
		e.parts[p] = localPart{id: p, localIdx: make(map[graph.VertexID]int32)}
	}

	replicaSets := make(map[graph.VertexID]map[int32]struct{}, 1024)
	addReplica := func(v graph.VertexID, p int32) {
		set, ok := replicaSets[v]
		if !ok {
			set = make(map[int32]struct{}, 2)
			replicaSets[v] = set
		}
		set[p] = struct{}{}
	}
	for i, ed := range a.Edges {
		p := a.Parts[i]
		lp := &e.parts[p]
		lp.edges = append(lp.edges, ed)
		addReplica(ed.Src, p)
		e.outDeg[ed.Src]++
		e.deg[ed.Src]++
		if ed.Dst != ed.Src {
			addReplica(ed.Dst, p)
			e.deg[ed.Dst]++
		}
	}

	e.replicas = make([][]int32, numV)
	for v, set := range replicaSets {
		list := make([]int32, 0, len(set))
		for p := range set {
			list = append(list, p)
		}
		sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
		// Master is a deterministic hash-selected replica, mirroring
		// PowerGraph's randomized master placement: a fixed convention
		// such as "lowest partition id" concentrates masters (and with
		// them the gather/scatter fan-in) on few partitions and makes the
		// max-partition communication term brittle.
		e.master[v] = list[masterIndex(v, len(list))]
		e.replicas[v] = list
		for _, p := range list {
			lp := &e.parts[p]
			lp.localIdx[v] = int32(len(lp.vertices))
			lp.vertices = append(lp.vertices, v)
		}
	}

	g := &graph.Graph{NumV: numV, Edges: a.Edges}
	e.csr = graph.BuildCSR(g)
	return e, nil
}

// K returns the partition count.
func (e *Engine) K() int { return e.k }

// NumV returns the vertex universe size.
func (e *Engine) NumV() int { return e.numV }

// ReplicaCount returns |Rv| for vertex v (0 if v has no edges).
func (e *Engine) ReplicaCount(v graph.VertexID) int { return len(e.replicas[v]) }

// masterIndex picks which replica hosts the master of v: a SplitMix64 hash
// of the vertex id modulo the replica count, deterministic across runs.
func masterIndex(v graph.VertexID, replicas int) int {
	return int(hashx.SplitMix64(uint64(v)) % uint64(replicas))
}

// parallel runs fn(p) for every partition on the worker pool and blocks
// until all complete.
func (e *Engine) parallel(fn func(p int)) {
	sem := make(chan struct{}, e.workers)
	var wg sync.WaitGroup
	for p := 0; p < e.k; p++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(p int) {
			defer wg.Done()
			defer func() { <-sem }()
			fn(p)
		}(p)
	}
	wg.Wait()
}

// stepCost turns per-partition work counters into the simulated superstep
// latency: per-partition work is aggregated onto machines (partition p on
// machine p mod Machines), and the superstep is bounded by the slowest
// machine's compute plus the slowest machine's communication, plus the
// fixed barrier overhead (BSP-style).
func (e *Engine) stepCost(edgeOps, vertexOps, msgs []int64) time.Duration {
	machines := e.cost.Machines
	if machines <= 0 || machines > e.k {
		machines = e.k
	}
	computeBy := make([]int64, machines)
	vertexBy := make([]int64, machines)
	msgsBy := make([]int64, machines)
	for p := 0; p < e.k; p++ {
		m := p % machines
		computeBy[m] += edgeOps[p]
		vertexBy[m] += vertexOps[p]
		msgsBy[m] += msgs[p]
	}
	var maxCompute, maxComm time.Duration
	for m := 0; m < machines; m++ {
		compute := time.Duration(computeBy[m])*e.cost.PerEdge + time.Duration(vertexBy[m])*e.cost.PerVertex
		if compute > maxCompute {
			maxCompute = compute
		}
		comm := time.Duration(msgsBy[m]) * e.cost.PerMessage
		if comm > maxComm {
			maxComm = comm
		}
	}
	return maxCompute + maxComm + e.cost.StepOverhead
}

// addSyncCost accounts the replica synchronisation of vertex v into the
// per-partition message counters: one gather message from every mirror to
// the master and one scatter message back (2·(|Rv|−1) in total), charged
// to the sending partition.
func (e *Engine) addSyncCost(v graph.VertexID, msgs []int64) int64 {
	reps := e.replicas[v]
	if len(reps) <= 1 {
		return 0
	}
	m := e.master[v]
	var total int64
	for _, p := range reps {
		if p == m {
			continue
		}
		msgs[p]++ // mirror → master (gather)
		msgs[m]++ // master → mirror (scatter)
		total += 2
	}
	return total
}

// fullSyncCost accounts one full replica synchronisation (every replicated
// vertex) and returns the message total.
func (e *Engine) fullSyncCost(msgs []int64) int64 {
	var total int64
	for v := range e.replicas {
		total += e.addSyncCost(graph.VertexID(v), msgs)
	}
	return total
}
