package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	gort "runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"time"

	"github.com/adwise-go/adwise/internal/bench"
	"github.com/adwise-go/adwise/internal/core"
	"github.com/adwise-go/adwise/internal/engine"
	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/metrics"
	"github.com/adwise-go/adwise/internal/runtime"
	"github.com/adwise-go/adwise/internal/stream"
)

// PageRank settings of the processing step (paper Fig. 7: blocks of 100
// iterations), simulated under the bench harness's cluster cost model.
const (
	prIterations = 100
	prDamping    = 0.85
	// prTolerance bounds |engine − reference| per rank, relative to the
	// reference rank: the engine sums partials in partition order, the
	// reference in stream order, so only rounding may differ.
	prTolerance = 1e-9
)

// graphInput is one population member: the generated graph (kept for the
// correctness checks only; the system reads the file) and its ADWB file.
type graphInput struct {
	seed uint64
	path string
	g    *graph.Graph
	// rangeKeys caches the sorted edge keys of each planned range, the
	// reference side of the permutation check.
	rangeKeys [][]uint64
}

// writeGraphFile generates population member j and writes it as an ADWB
// binary file under dir. This is harness work: it is timed by no metric.
func writeGraphFile(w *workload, seed uint64, j int, scale float64, dir string) (*graphInput, error) {
	gs := graphSeed(seed, j)
	g, err := w.generate(gs, scale)
	if err != nil {
		return nil, fmt.Errorf("generating graph %d: %w", j, err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d-%d.adwb", w.name, seed, j))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := graph.WriteBinary(bw, g); err != nil {
		f.Close()
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return &graphInput{seed: gs, path: path, g: g}, nil
}

// iteration is one partitioning pass over a graph file.
type iteration struct {
	a      *metrics.Assignment
	ranges []stream.Range
	// setup covers PlanFile, OpenSegment and strategy construction.
	setup time.Duration
	// wall runs from the executor call (first stream read) to the merged
	// assignment.
	wall time.Duration
	// allocBytes is the heap allocated during the wall-time region.
	allocBytes uint64
	stats      []runtime.Stats
	detail     []core.RunStats // window strategies only
}

func (it *iteration) scoreOps() int64 {
	var ops int64
	for _, st := range it.stats {
		ops += st.ScoreComputations
	}
	return ops
}

// instances is an iteration's set-up: the planned and opened file
// segments and one constructed strategy per spotlight instance.
type instances struct {
	ranges     []stream.Range
	segs       []stream.FileStream
	strategies []runtime.Strategy
}

func (x *instances) close() {
	for _, s := range x.segs {
		if s != nil {
			s.Close()
		}
	}
}

// setUp plans and opens the file and constructs one strategy per
// spotlight instance. On error the opened segments are already closed.
func setUp(w *workload, in *graphInput, tr *tracer, run int64) (*instances, error) {
	sc := w.spotlight()
	start := tr.begin()
	ranges, err := stream.PlanFile(in.path, w.z)
	tr.end("stream.plan", 0, run, start)
	if err != nil {
		return nil, err
	}
	x := &instances{ranges: ranges, segs: make([]stream.FileStream, len(ranges)), strategies: make([]runtime.Strategy, w.z)}
	for i, r := range ranges {
		start := tr.begin()
		x.segs[i], err = stream.OpenSegment(r)
		tr.end("stream.open", 0, run, start)
		if err != nil {
			x.close()
			return nil, err
		}
	}
	for i := range x.strategies {
		spec := runtime.Spec{K: benchK, Allowed: sc.SpreadFor(i), Seed: in.seed + uint64(i), TotalEdgesHint: ranges[i].Edges}
		w.spec(&spec)
		start := tr.begin()
		x.strategies[i], err = runtime.New(w.strategy, spec)
		tr.end("runtime.new", 0, run, start)
		if err != nil {
			x.close()
			return nil, err
		}
	}
	return x, nil
}

// timeSetUp samples the iteration set-up once more, untraced, from a
// collected heap, and discards what it built.
func timeSetUp(w *workload, in *graphInput) (time.Duration, error) {
	gort.GC()
	t0 := time.Now()
	x, err := setUp(w, in, nil, 0)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	x.close()
	return d, nil
}

// partitionOnce sets up the iteration and runs the spotlight executor
// over the segments. With a tracer, spans are recorded around every call
// into the system, including each NextBatch of each segment.
func partitionOnce(w *workload, in *graphInput, tr *tracer, run int64) (*iteration, error) {
	sc := w.spotlight()
	gort.GC() // start every timed region from the same heap state

	t0 := time.Now()
	x, err := setUp(w, in, tr, run)
	setup := time.Since(t0)
	if err != nil {
		return nil, err
	}
	defer x.close()
	ranges, segs, strategies := x.ranges, x.segs, x.strategies

	streams := make([]stream.Stream, len(segs))
	traced := make([]*tracedStream, len(segs))
	for i, seg := range segs {
		streams[i] = seg
		if tr != nil {
			traced[i] = &tracedStream{inner: seg, tr: tr, run: run}
			streams[i] = traced[i]
		}
	}
	instance := "partition.run"
	if meta, _ := runtime.MetaOf(w.strategy); meta.Class == runtime.ClassWindow {
		instance = "core.run"
	}
	spotID := tr.reserve()
	build := func(i int, _ []int) (runtime.Runner, error) {
		if tr == nil {
			return strategies[i], nil
		}
		return runtime.RunnerFunc(func(s stream.Stream) (*metrics.Assignment, error) {
			id := tr.reserve()
			traced[i].parent = id
			start := tr.begin()
			a, err := strategies[i].Run(s)
			tr.record(id, instance, spotID, run, start)
			return a, err
		}), nil
	}

	alloc0 := heapAllocBytes()
	spotStart := tr.begin()
	t1 := time.Now()
	a, _, err := runtime.RunSpotlightStreamsStats(streams, sc, build)
	wall := time.Since(t1)
	tr.record(spotID, "runtime.spotlight", 0, run, spotStart)
	alloc := heapAllocBytes() - alloc0
	if err != nil {
		return nil, err
	}

	it := &iteration{a: a, ranges: ranges, setup: setup, wall: wall, allocBytes: alloc}
	for _, st := range strategies {
		it.stats = append(it.stats, st.Stats())
		if d, ok := st.(interface{ Detail() core.RunStats }); ok {
			it.detail = append(it.detail, d.Detail())
		}
	}
	return it, nil
}

var heapAllocSample = []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocBytes is the cumulative count of heap bytes allocated.
func heapAllocBytes() uint64 {
	rtmetrics.Read(heapAllocSample)
	return heapAllocSample[0].Value.Uint64()
}

func edgeKey(e graph.Edge) uint64 { return uint64(e.Src)<<32 | uint64(e.Dst) }

func sortedKeys(edges []graph.Edge) []uint64 {
	keys := make([]uint64, len(edges))
	for i, e := range edges {
		keys[i] = edgeKey(e)
	}
	slices.Sort(keys)
	return keys
}

// checkAssignment is the partitioning correctness gate: every generated
// edge is assigned exactly once, instance i assigned exactly the edges of
// its own file segment (the executor merges in instance order), and every
// partition lies inside the instance's spotlight spread.
func checkAssignment(in *graphInput, ranges []stream.Range, sc runtime.SpotlightConfig, a *metrics.Assignment) error {
	edges := in.g.Edges
	if a.K != sc.K {
		return fmt.Errorf("assignment has k=%d, want %d", a.K, sc.K)
	}
	if a.Len() != len(edges) || len(a.Parts) != len(edges) {
		return fmt.Errorf("assignment has %d edges, the input %d", a.Len(), len(edges))
	}
	if in.rangeKeys == nil {
		off := 0
		for _, r := range ranges {
			n := int(r.Edges)
			if n < 0 || off+n > len(edges) {
				return fmt.Errorf("planned ranges exceed the input's %d edges", len(edges))
			}
			in.rangeKeys = append(in.rangeKeys, sortedKeys(edges[off:off+n]))
			off += n
		}
		if off != len(edges) {
			in.rangeKeys = nil
			return fmt.Errorf("planned ranges cover %d of %d edges", off, len(edges))
		}
	}
	if len(ranges) != len(in.rangeKeys) {
		return fmt.Errorf("got %d planned ranges, want %d", len(ranges), len(in.rangeKeys))
	}
	off := 0
	for i, want := range in.rangeKeys {
		n := len(want)
		allowed := make([]bool, sc.K)
		for _, p := range sc.SpreadFor(i) {
			allowed[p] = true
		}
		for j := off; j < off+n; j++ {
			if p := a.Parts[j]; p < 0 || int(p) >= sc.K || !allowed[p] {
				return fmt.Errorf("instance %d put edge %v in partition %d, outside its spread", i, a.Edges[j], p)
			}
		}
		if !slices.Equal(sortedKeys(a.Edges[off:off+n]), want) {
			return fmt.Errorf("instance %d did not assign exactly the edges of its segment", i)
		}
		off += n
	}
	return nil
}

// fingerprint hashes the assignment sequence (edges and partitions in
// order). Equal fingerprints mean equal rf and max_load.
func fingerprint(a *metrics.Assignment) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 0, 12*4096)
	for i, e := range a.Edges {
		p := uint32(a.Parts[i])
		buf = append(buf, byte(e.Src), byte(e.Src>>8), byte(e.Src>>16), byte(e.Src>>24),
			byte(e.Dst), byte(e.Dst>>8), byte(e.Dst>>16), byte(e.Dst>>24),
			byte(p), byte(p>>8), byte(p>>16), byte(p>>24))
		if len(buf) == cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	return h.Sum64()
}

// processGraph runs the processing step — PageRank on the engine over the
// partitioned graph — and checks the ranks against the sequential
// reference. The report's simulated latency is a deterministic function
// of the assignment.
func processGraph(in *graphInput, a *metrics.Assignment, tr *tracer, run int64) (engine.Report, error) {
	start := tr.begin()
	defer tr.end("engine.pagerank", 0, run, start)
	eng, err := engine.New(a, in.g.NumV, bench.DefaultBenchCostModel(), 0)
	if err != nil {
		return engine.Report{}, err
	}
	ranks, rep, err := eng.PageRank(prIterations, prDamping)
	if err != nil {
		return engine.Report{}, err
	}
	ref := engine.PageRankReference(in.g, prIterations, prDamping)
	if len(ranks) != len(ref) {
		return rep, fmt.Errorf("PageRank returned %d ranks, want %d", len(ranks), len(ref))
	}
	for v := range ref {
		if d := math.Abs(ranks[v] - ref[v]); !(d <= prTolerance*math.Abs(ref[v])+1e-15) {
			return rep, fmt.Errorf("PageRank rank of vertex %d is %g, reference %g", v, ranks[v], ref[v])
		}
	}
	return rep, nil
}
