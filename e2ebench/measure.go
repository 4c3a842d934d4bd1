package main

import (
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	gort "runtime"
	"slices"
	"time"

	"github.com/adwise-go/adwise/internal/metrics"
)

const (
	// roundDuration is the length of one closed-loop lookup round;
	// per-round figures are reduced by a median.
	roundDuration = 250 * time.Millisecond
	// lookupRatio is lookup time per unit of partitioning-step time in the
	// measured loop: a round follows a step while lookups are behind it,
	// so a fifth of every workload's loop serves lookups.
	lookupRatio = 0.25
	// The serving set-up is repeated at least minServeSetups times and then
	// until serveSetupSeconds have passed or maxServeSetups ran.
	minServeSetups    = 9
	maxServeSetups    = 250
	serveSetupSeconds = 1.0
	// setupSamples is how many times a counted untraced iteration's set-up
	// is timed: once in the iteration, the rest by timeSetUp.
	setupSamples = 3
	// ballastBytes is the pointer-free heap held during lookup rounds only.
	// The load generator shares the server's process, so on a graph whose
	// index is a few MB the client's garbage alone would set the server's
	// GC rate; the ballast gives every workload the heap floor the large
	// web-serve index has anyway, so the lookup tail measures serving.
	// Partitioning runs without it, so its GC cost stays in its figures.
	ballastBytes = 64 << 20
	// lookupConns is the closed-loop client count (capped at GOMAXPROCS).
	lookupConns = 2
	// maxFailures is how many failure messages a result keeps.
	maxFailures = 8
)

// config is one benchmark run.
type config struct {
	w       *workload
	seed    uint64
	seconds float64
	trace   bool
	scale   float64 // graph size factor: 1 in real runs, smaller in tests
	outDir  string
	root    string
	faults  faults
}

// faults inject wrong system outputs, so tests can show that the
// correctness gates fail the run. Zero in every real run.
type faults struct {
	// assignment mutates every partitioning result before the checks.
	assignment func(*metrics.Assignment)
	// handler wraps the public lookup handler.
	handler func(http.Handler) http.Handler
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run measured.
type result struct {
	Workload  string                 `json:"workload"`
	Env       envInfo                `json:"env"`
	Trace     bool                   `json:"trace"`
	Seconds   float64                `json:"seconds"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Graphs is how many population members were measured, Passes how
	// many complete passes over them ran, Runs the partitioning runs
	// including the warm-up.
	Graphs int `json:"graphs"`
	Passes int `json:"passes"`
	Runs   int `json:"runs"`
	// LookupRounds and LookupSamples describe the latency sample: the
	// /v1/edge latencies of the untraced rounds (trace 0) or of all rounds.
	LookupRounds    int `json:"lookup_rounds"`
	LookupSamples   int `json:"lookup_samples"`
	MinRoundSamples int `json:"min_round_samples"`
	// LookupP99Us is the untraced runs' lookup tail, kept in the record and
	// the report; the traced run reports it as a per-layer metric.
	LookupP99Us float64    `json:"lookup_p99_us,omitempty"`
	Layers      []layerRow `json:"layers,omitempty"`
	// PerGraph and PerRound keep the samples behind the medians.
	PerGraph []graphSample `json:"per_graph,omitempty"`
	PerRound []roundSample `json:"per_round,omitempty"`
}

type graphSample struct {
	Graph  int       `json:"graph"`
	Edges  int       `json:"edges"`
	WallsS []float64 `json:"walls_s"`
	SimS   float64   `json:"sim_s"`
}

type roundSample struct {
	Traced   bool    `json:"traced"`
	Samples  int     `json:"samples"`
	P50Us    float64 `json:"p50_us"`
	P99Us    float64 `json:"p99_us"`
	Requests int     `json:"requests"`
}

func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < maxFailures {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// graphRecord accumulates one population member's measurements.
type graphRecord struct {
	in          *graphInput
	fingerprint uint64
	scoreOps    int64
	rf, maxLoad float64
	sim         time.Duration
	messages    int64
	walls       []float64 // untraced, seconds
	allocs      []float64 // untraced, bytes
	tracedWalls []float64
	layers      []map[string]float64
}

// session is the state of one run.
type session struct {
	cfg     config
	res     *result
	tr      *tracer
	runID   int64
	inputs  map[int]*graphInput
	records map[int]*graphRecord
	order   []int     // graphs in first-visit order
	setups  []float64 // untraced iteration set-up times
}

// run executes one workload. A warm-up iteration on graph 0 (checked,
// untimed) gives the assignment the lookup service serves; the serving
// set-up is then repeated and timed. The measured loop walks the whole
// population in passes: each step partitions the next graph and is
// followed by closed-loop lookup rounds while lookup time is behind
// lookupRatio of step time, so both halves of the pipeline are sampled
// across the whole run. The first pass always completes; another starts
// only while one more pass of the last one's length fits in cfg.seconds.
// So every run measures the same graphs, each the same number of times,
// however fast the code is; the speed sets only the repeats. A traced
// run partitions every graph twice, traced and untraced, so it walks only
// the first half of the population and takes about as long as an
// untraced run. Graph 0 comes first again, so its repetition is checked
// against the warm-up (the determinism gate).
func run(cfg config) (*result, error) {
	s := &session{
		cfg:     cfg,
		res:     &result{Workload: cfg.w.name, Env: readEnv(cfg.root, cfg.seed), Trace: cfg.trace, Seconds: cfg.seconds, Metrics: map[string]metricValue{}},
		inputs:  map[int]*graphInput{},
		records: map[int]*graphRecord{},
	}
	if cfg.trace {
		s.tr = newTracer()
	}
	defer func() {
		for _, in := range s.inputs {
			os.Remove(in.path)
		}
	}()
	served, err := s.partition(0, false, false)
	if err != nil {
		return nil, err
	}
	var (
		client     *loadClient
		serveTimes []float64
		rounds     []round
	)
	if served != nil {
		srv, times, err := s.startServing(served)
		if err != nil {
			return nil, err
		}
		defer srv.close()
		serveTimes = times
		client = newLoadClient(srv.base, newKeyPool(served, cfg.seed), min(lookupConns, s.res.Env.GOMAXPROCS), s.tr)
		defer client.close()
		// The warm-up round opens the connections; it is checked, not timed.
		ballast := make([]byte, ballastBytes)
		s.account(client.runRound(roundDuration/2, s.nextRun(), false, cfg.seed))
		gort.KeepAlive(ballast)
	} else {
		s.res.fail("no checked assignment to serve")
	}

	measured := cfg.w.population
	if cfg.trace {
		measured = (measured + 1) / 2
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	var stepTime, lookupTime time.Duration
	lookupsBehind := func() bool {
		return client != nil && (len(rounds) < 2 || lookupTime < time.Duration(lookupRatio*float64(stepTime)))
	}
	for step := 0; ; {
		passStart := time.Now()
		for j := range measured {
			step++
			modes := []bool{false}
			if cfg.trace {
				modes = []bool{step%2 == 1, step%2 == 0} // alternate which goes first
			}
			t0 := time.Now()
			for _, traced := range modes {
				if _, err := s.partition(j, traced, true); err != nil {
					return nil, err
				}
			}
			stepTime += time.Since(t0)
			if !lookupsBehind() {
				continue
			}
			// Rounds start from a collected heap, so the step's garbage is
			// not collected inside them.
			ballast := make([]byte, ballastBytes)
			gort.GC()
			for lookupsBehind() {
				// In a traced run, rounds alternate traced and untraced.
				rd := client.runRound(roundDuration, s.nextRun(), cfg.trace && len(rounds)%2 == 0, cfg.seed)
				s.account(rd)
				rounds = append(rounds, rd)
				lookupTime += rd.elapsed
			}
			gort.KeepAlive(ballast)
		}
		s.res.Passes++
		if time.Since(start)+time.Since(passStart) > budget {
			break
		}
	}

	res := s.res
	graphs := make([]*graphRecord, 0, len(s.order))
	for _, j := range s.order {
		g := s.records[j]
		graphs = append(graphs, g)
		if len(g.walls) > 0 {
			res.Graphs++
		}
		res.PerGraph = append(res.PerGraph, graphSample{Graph: j, Edges: len(g.in.g.Edges), WallsS: g.walls, SimS: g.sim.Seconds()})
	}
	for _, rd := range rounds {
		res.PerRound = append(res.PerRound, roundSample{Traced: rd.traced, Samples: len(rd.edgeLat),
			P50Us: percentileUs(rd.edgeLat, 0.50), P99Us: percentileUs(rd.edgeLat, 0.99), Requests: rd.requests})
	}
	if cfg.trace {
		spans := s.tr.snapshot()
		res.Layers = layerTable(spans)
		perLayerMetrics(res, graphs, spans, rounds)
		if err := s.tr.write(filepath.Join(cfg.outDir, "traces", cfg.w.name+".jsonl.gz")); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	} else {
		endToEndMetrics(res, graphs, s.setups, serveTimes, rounds)
	}
	res.Correct = res.Failed == 0 && res.Graphs > 0 && len(rounds) > 0
	return res, nil
}

func (s *session) nextRun() int64 {
	s.runID++
	return s.runID
}

// input returns population member j, generating its file on first use.
func (s *session) input(j int) (*graphInput, error) {
	if in, ok := s.inputs[j]; ok {
		return in, nil
	}
	in, err := writeGraphFile(s.cfg.w, s.cfg.seed, j, s.cfg.scale, filepath.Join(s.cfg.outDir, "data"))
	if err != nil {
		return nil, err
	}
	s.inputs[j] = in
	return in, nil
}

// partition runs one checked partitioning iteration over graph j and
// records it when counted. The first run of a graph is the reference of
// the determinism gate and also runs the processing step. A failed check
// is recorded in the result and returns a nil assignment; the error is
// reserved for the harness itself failing.
func (s *session) partition(j int, traced, counted bool) (*metrics.Assignment, error) {
	in, err := s.input(j)
	if err != nil {
		return nil, err
	}
	res, w := s.res, s.cfg.w
	run := s.nextRun()
	res.Runs++
	res.Attempted++
	var tr *tracer
	if traced {
		tr = s.tr
	}
	spansBefore := s.tr.count()
	it, err := partitionOnce(w, in, tr, run)
	if err == nil && s.cfg.faults.assignment != nil {
		s.cfg.faults.assignment(it.a)
	}
	if err == nil {
		err = checkAssignment(in, it.ranges, w.spotlight(), it.a)
	}
	if err != nil {
		res.fail("graph %d: partitioning: %v", j, err)
		return nil, nil
	}
	rec := s.records[j]
	fp, ops := fingerprint(it.a), it.scoreOps()
	if rec == nil {
		q := metrics.Summarize(it.a)
		rec = &graphRecord{in: in, fingerprint: fp, scoreOps: ops, rf: q.ReplicationDegree, maxLoad: q.NormalizedMaxLoad()}
		s.records[j] = rec
		s.order = append(s.order, j)
		res.Attempted++
		rep, err := processGraph(in, it.a, tr, run)
		if err != nil {
			res.fail("graph %d: processing: %v", j, err)
		}
		rec.sim, rec.messages = rep.SimulatedLatency, rep.Messages
	} else if fp != rec.fingerprint || ops != rec.scoreOps {
		res.fail("graph %d: determinism: a repeated run gave assignment %016x with %d score ops, the first %016x with %d",
			j, fp, ops, rec.fingerprint, rec.scoreOps)
		return nil, nil
	}
	switch {
	case !counted:
	case traced:
		rec.tracedWalls = append(rec.tracedWalls, it.wall.Seconds())
		rec.layers = append(rec.layers, layerValues(s.tr.since(spansBefore), it, len(in.g.Edges)))
	default:
		rec.walls = append(rec.walls, it.wall.Seconds())
		rec.allocs = append(rec.allocs, float64(it.allocBytes))
		s.setups = append(s.setups, it.setup.Seconds())
		for range setupSamples - 1 {
			d, err := timeSetUp(w, in)
			if err != nil {
				res.fail("graph %d: set-up: %v", j, err)
				return nil, nil
			}
			s.setups = append(s.setups, d.Seconds())
		}
	}
	return it.a, nil
}

// startServing repeats the serving set-up — at least minServeSetups
// times, then until serveSetupSeconds passed or maxServeSetups ran — and
// keeps the last server running.
func (s *session) startServing(a *metrics.Assignment) (*server, []float64, error) {
	wrap := s.cfg.faults.handler
	if s.tr != nil {
		inner, traced := wrap, traceHandler(s.tr)
		wrap = func(h http.Handler) http.Handler {
			if inner != nil {
				h = inner(h)
			}
			return traced(h)
		}
	}
	var times []float64
	start := time.Now()
	for {
		gort.GC() // every set-up starts from the same heap state
		t0 := time.Now()
		srv, err := startServer(a, wrap, s.tr, s.nextRun())
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if n := len(times); n >= maxServeSetups || n >= minServeSetups && time.Since(start).Seconds() >= serveSetupSeconds {
			return srv, times, nil
		}
		srv.close()
	}
}

// account adds a lookup round's requests and failures to the result.
func (s *session) account(rd round) {
	s.res.Attempted += rd.requests
	s.res.Failed += rd.failures
	if rd.firstErr != nil && len(s.res.Failures) < maxFailures {
		s.res.Failures = append(s.res.Failures, fmt.Sprintf("lookups: %d of %d requests failed, first: %v", rd.failures, rd.requests, rd.firstErr))
	}
}

func endToEndMetrics(res *result, graphs []*graphRecord, setups, serveSetupTimes []float64, rounds []round) {
	var edges, walls, total, alloc, rf, load []float64
	for _, g := range graphs {
		if len(g.walls) == 0 {
			continue
		}
		wall := median(g.walls)
		edges = append(edges, float64(len(g.in.g.Edges)))
		walls = append(walls, wall)
		total = append(total, wall+g.sim.Seconds())
		alloc = append(alloc, median(g.allocs)/1e6)
		rf = append(rf, g.rf)
		load = append(load, g.maxLoad)
	}
	var p50, p99, lps []float64 // p99 goes to the record only, see perLayer
	minSamples := math.MaxInt
	for _, rd := range rounds {
		if rd.traced {
			continue
		}
		p50 = append(p50, percentileUs(rd.edgeLat, 0.50))
		p99 = append(p99, percentileUs(rd.edgeLat, 0.99))
		lps = append(lps, float64(rd.lookups)/rd.elapsed.Seconds())
		res.LookupRounds++
		res.LookupSamples += len(rd.edgeLat)
		minSamples = min(minSamples, len(rd.edgeLat))
	}
	if res.LookupRounds > 0 {
		res.MinRoundSamples = minSamples
	}
	set := func(name string, v float64) {
		res.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
	}
	set("setup_s", median(setups)+median(serveSetupTimes))
	// Throughput and latency pool the run's graphs (each graph's median
	// wall when it ran more than once): on the lazy window the work per
	// graph is heavy-tailed in the input, and the pooled figures spread
	// less across seeds than a median over graphs.
	if len(walls) > 0 {
		set("edges_per_s", sum(edges)/sum(walls))
	} else {
		set("edges_per_s", 0)
	}
	set("rf", median(rf))
	set("max_load", median(load))
	set("total_latency_s", mean(total))
	set("alloc_mb", median(alloc))
	set("lookup_p50_us", median(p50))
	set("lookups_per_s", median(lps))
	res.LookupP99Us = median(p99)
}

// layerValues derives one traced iteration's per-layer figures from its
// spans and the strategies' public statistics.
func layerValues(spans []span, it *iteration, edges int) map[string]float64 {
	self := selfTimes(spans)
	v := map[string]float64{}
	var spot, longest, instTotal float64
	instances := 0
	for _, s := range spans {
		d := s.dur().Seconds()
		switch s.Name {
		case "stream.plan":
			v["stream.plan_s"] += d
		case "stream.read":
			v["stream.read_s"] += d
			v["stream.batches"]++
		case "core.run", "partition.run":
			layer := "partition.self_s"
			if s.Name == "core.run" {
				layer = "core.self_s"
			}
			v[layer] += self[s.ID].Seconds()
			longest = max(longest, d)
			instTotal += d
			instances++
		case "runtime.spotlight":
			spot = d
		}
	}
	v["runtime.spotlight_s"] = spot
	if instances > 0 && instTotal > 0 {
		v["runtime.instance_skew"] = longest / (instTotal / float64(instances))
	}
	v["runtime.merge_s"] = max(0, spot-longest)
	ops := it.scoreOps()
	v["core.score_ops_per_edge"] = float64(ops) / float64(edges)
	if ops > 0 {
		v["core.us_per_score_op"] = v["core.self_s"] / float64(ops) * 1e6
	}
	for _, d := range it.detail {
		v["core.secondary_rescans"] += float64(d.SecondaryRescans)
		v["core.reassessments"] += float64(d.Reassessments)
		v["core.promotions"] += float64(d.Promotions)
		v["core.demotions"] += float64(d.Demotions)
		v["core.refill_passes"] += float64(d.RefillPasses)
		v["scorepool.parallel_passes"] += float64(d.ParallelScorePasses)
		v["scorepool.stolen_shards"] += float64(d.StolenScoreShards)
		v["scorepool.peak_helpers"] = max(v["scorepool.peak_helpers"], float64(d.PeakPassHelpers))
	}
	for _, st := range it.stats {
		v["vcache.peak_bytes"] += float64(st.PeakCacheBytes)
		v["vcache.evicted"] += float64(st.EvictedVertices)
	}
	return v
}

func perLayerMetrics(res *result, graphs []*graphRecord, spans []span, rounds []round) {
	perGraph := map[string][]float64{}
	var overhead []float64
	for _, g := range graphs {
		if len(g.layers) == 0 {
			continue
		}
		for _, m := range iterationLayers {
			vals := make([]float64, len(g.layers))
			for i, l := range g.layers {
				vals[i] = l[m.name]
			}
			perGraph[m.name] = append(perGraph[m.name], median(vals))
		}
		perGraph["engine.messages"] = append(perGraph["engine.messages"], float64(g.messages))
		perGraph["engine.sim_s"] = append(perGraph["engine.sim_s"], g.sim.Seconds())
		if len(g.walls) > 0 {
			overhead = append(overhead, (median(g.tracedWalls)/median(g.walls)-1)*100)
		}
	}

	var builds []float64
	handler := map[int64][]time.Duration{}
	for _, s := range spans {
		switch s.Name {
		case "serve.build":
			builds = append(builds, s.dur().Seconds())
		case "serve.edge":
			handler[s.Run] = append(handler[s.Run], s.dur())
		}
	}
	var hp50, hp99, transport, tracedP50, plainP50, plainP99 []float64
	requests, errs := 0, 0
	for i, rd := range rounds {
		if i == 0 {
			res.MinRoundSamples = len(rd.edgeLat)
		}
		requests += rd.requests
		errs += rd.failures
		res.LookupRounds++
		res.LookupSamples += len(rd.edgeLat)
		res.MinRoundSamples = min(res.MinRoundSamples, len(rd.edgeLat))
		p50 := percentileUs(rd.edgeLat, 0.50)
		if !rd.traced {
			plainP50 = append(plainP50, p50)
			plainP99 = append(plainP99, percentileUs(rd.edgeLat, 0.99))
			continue
		}
		tracedP50 = append(tracedP50, p50)
		h50 := percentileUs(handler[rd.run], 0.50)
		hp50 = append(hp50, h50)
		hp99 = append(hp99, percentileUs(handler[rd.run], 0.99))
		transport = append(transport, p50-h50)
	}

	for _, m := range perLayer {
		if vals, ok := perGraph[m.name]; ok {
			res.Metrics[m.name] = metricValue{Value: median(vals), Unit: m.unit}
		}
	}
	set := func(name string, v float64) {
		res.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
	}
	set("serve.build_s", median(builds))
	set("lookup_p99_us", median(plainP99))
	set("serve.handler_p50_us", median(hp50))
	set("serve.handler_p99_us", median(hp99))
	set("serve.transport_p50_us", median(transport))
	set("serve.requests", float64(requests))
	set("serve.errors", float64(errs))
	set("trace.overhead_pct", median(overhead))
	lookupOverhead := 0.0
	if p := median(plainP50); p > 0 {
		lookupOverhead = (median(tracedP50)/p - 1) * 100
	}
	set("trace.lookup_overhead_pct", lookupOverhead)
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// mean of xs (0 for an empty slice).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// median of xs (0 for an empty slice); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentileUs is the nearest-rank q-quantile of ds in microseconds.
func percentileUs(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[max(i, 0)].Nanoseconds()) / 1e3
}
