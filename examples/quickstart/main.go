// Quickstart: generate a graph, partition it with ADWISE, inspect the
// partitioning quality.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	adwise "github.com/adwise-go/adwise"
)

func main() {
	// A Brain-like evaluation graph at 5% of the default size: dense with
	// a moderate clustering coefficient — the regime where windowing
	// pays off most.
	g, err := adwise.Generate(adwise.GraphBrain, 0.05, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d vertices, %d edges\n", g.V(), g.E())
	// Mildly interleave the generator's emission order, as a real scan
	// would be; see ARCHITECTURE.md "Evaluation substrate" on stream
	// orders.
	edges := adwise.Interleave(g.Edges, 64)

	// ADWISE with a latency preference: the window grows as long as the
	// run stays on track to finish within L.
	p, err := adwise.NewADWISE(16, adwise.WithLatencyPreference(500*time.Millisecond))
	if err != nil {
		log.Fatal(err)
	}
	assignment, err := p.Run(adwise.StreamEdges(edges))
	if err != nil {
		log.Fatal(err)
	}

	s := adwise.Summarize(assignment)
	st := p.Stats()
	fmt.Printf("replication degree: %.3f (lower is better; 1.0 = no replication)\n", s.ReplicationDegree)
	fmt.Printf("imbalance: %.3f   cut vertices: %d/%d\n", s.Imbalance, s.CutVertices, s.Vertices)
	fmt.Printf("partitioning latency: %v   peak window: %d   score computations: %d\n",
		st.PartitioningLatency.Round(time.Millisecond), st.PeakWindow, st.ScoreComputations)

	// Compare against the strongest single-edge baseline, HDRF.
	h, err := adwise.NewBaseline(adwise.BaselineHDRF, adwise.BaselineConfig{K: 16})
	if err != nil {
		log.Fatal(err)
	}
	ha, err := adwise.RunBaseline(adwise.StreamEdges(edges), h)
	if err != nil {
		log.Fatal(err)
	}
	hs := adwise.Summarize(ha)
	fmt.Printf("HDRF replication degree for comparison: %.3f\n", hs.ReplicationDegree)
}
