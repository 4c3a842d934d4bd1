package bench

import (
	"fmt"
	"time"

	"github.com/adwise-go/adwise/internal/gen"
	"github.com/adwise-go/adwise/internal/metrics"
	"github.com/adwise-go/adwise/internal/runtime"
	"github.com/adwise-go/adwise/internal/stream"
)

// Figure1 regenerates the research-gap landscape of Figure 1: partitioning
// latency against partitioning quality for the whole algorithm spectrum —
// the hashing family (Hash, 1D, 2D, Grid, DBH), the stateful single-edge
// streamers (Greedy, HDRF), ADWISE at growing window sizes, and the
// all-edge NE heuristic. Run on the Brain stand-in with a single
// partitioner instance so latencies are directly comparable.
func Figure1(cfg Config) (*Table, error) {
	g, err := gen.BrainLike(cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("bench: fig1: %w", err)
	}
	// Single-instance runs use a mildly interleaved stream: the generator's
	// raw ring order is so perfectly local that HDRF's balance term
	// saturates and leaves partitions empty (see ARCHITECTURE.md
	// "Evaluation substrate").
	edges := stream.Interleave(g.Edges, 64)
	clk := cfg.clock()

	t := &Table{
		ID:      "Figure 1",
		Title:   fmt.Sprintf("Partitioning latency vs quality landscape (Brain-like, k=%d, single instance)", cfg.K),
		Columns: []string{"algorithm", "class", "latency", "RF", "imbalance"},
	}

	type entry struct {
		label, class string
		spec         runtime.Spec
		strategy     string
	}
	base := runtime.Spec{K: cfg.K, Seed: cfg.Seed}
	var entries []entry
	for _, name := range runtime.Baselines() {
		entries = append(entries, entry{name, "single-edge", base, name})
	}
	for _, w := range []int{16, 128, 1024} {
		spec := base
		spec.Window = w
		entries = append(entries, entry{fmt.Sprintf("adwise w=%d", w), "window", spec, "adwise"})
	}
	entries = append(entries, entry{"ne", "all-edge", base, "ne"})

	for _, e := range entries {
		p, err := runtime.New(e.strategy, e.spec)
		if err != nil {
			return nil, fmt.Errorf("bench: fig1 %s: %w", e.label, err)
		}
		start := clk.Now()
		a, err := p.Run(stream.FromEdges(edges))
		if err != nil {
			return nil, fmt.Errorf("bench: fig1 %s: %w", e.label, err)
		}
		lat := clk.Now().Sub(start)
		s := metrics.Summarize(a)
		t.AddRow(e.label, e.class, lat, s.ReplicationDegree, s.Imbalance)
		cfg.progressf("fig1: %-14s RF=%.3f lat=%v", e.label, s.ReplicationDegree, lat.Round(time.Millisecond))
	}
	t.Notes = append(t.Notes,
		"single-edge streamers minimize latency; window/all-edge trade latency for quality (lower RF)")
	return t, nil
}
