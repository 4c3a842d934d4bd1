package main

import (
	"fmt"

	"github.com/adwise-go/adwise/internal/gen"
	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/runtime"
)

// benchK is the partition count of every workload (the paper's k=32).
const benchK = 32

// workload is one named input set and system configuration. Every
// workload runs the whole pipeline — graph file → plan/open → partition →
// PageRank on the engine → serving index → closed-loop HTTP lookups — and
// differs in the graph family and the partitioner, which decide the layer
// that carries the time.
type workload struct {
	name string
	// strategy is the registry name of the partitioner.
	strategy string
	// z is the number of spotlight instances; each fills K/z partitions
	// when z > 1, all K when z = 1.
	z int
	// population is how many distinct graphs a run draws from its seed.
	// Every run measures all of them, each the same number of times, and
	// reduces per-graph figures over them, so seed-to-seed differences in
	// how much work one graph takes (large and chaotic for the lazy
	// window) average out inside a run. On the 2-vCPU reference VM an
	// untraced zipf-clustered run, one pass with its lookup rounds, takes
	// 49–68 s.
	population int
	// generate builds a population member from its seed at the given size scale.
	generate func(seed uint64, scale float64) (*graph.Graph, error)
	// spec completes the registry Spec of every instance.
	spec func(s *runtime.Spec)
}

var workloads = []*workload{
	// ADWISE defaults (clustering on) on a Zipf stream: window maintenance,
	// mostly neighbourhood collection, carries the time; few costly score ops.
	{
		name:       "zipf-clustered",
		strategy:   "adwise",
		z:          1,
		population: 30,
		generate: func(seed uint64, scale float64) (*graph.Graph, error) {
			m := max(int(20_000*scale), 400)
			return gen.Zipf(m/4, m, 1.3, seed)
		},
		spec: func(s *runtime.Spec) { s.Window = 1024 },
	},
	// HDRF, z=2 spotlight, on a large web-like graph: ingest, vertex-state
	// writes, spotlight merge, index build and HTTP serving carry the time;
	// no window.
	{
		name:       "web-serve",
		strategy:   "hdrf",
		z:          2,
		population: 1,
		generate: func(seed uint64, scale float64) (*graph.Graph, error) {
			return gen.PresetWeb.Generate(4.3*scale, seed)
		},
		spec: func(*runtime.Spec) {},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// spotlight is the executor configuration of the workload.
func (w *workload) spotlight() runtime.SpotlightConfig {
	return runtime.SpotlightConfig{K: benchK, Z: w.z, Spread: benchK / w.z}
}

// graphSeed derives the seed of population member j from the run seed.
func graphSeed(seed uint64, j int) uint64 {
	return seed*1_000_003 + uint64(j)
}
