package metrics

import (
	"testing"

	"github.com/adwise-go/adwise/internal/graph"
)

func buildAssignment(k int, pairs []struct {
	e graph.Edge
	p int
}) *Assignment {
	a := NewAssignment(k, len(pairs))
	for _, pr := range pairs {
		a.Add(pr.e, pr.p)
	}
	return a
}

func TestSummarizeHandExample(t *testing.T) {
	// Figure 2 of the paper: cut vertex u (=1) spans two partitions.
	a := NewAssignment(2, 4)
	a.Add(graph.Edge{Src: 0, Dst: 1}, 0)
	a.Add(graph.Edge{Src: 1, Dst: 2}, 0)
	a.Add(graph.Edge{Src: 1, Dst: 3}, 1)
	a.Add(graph.Edge{Src: 1, Dst: 4}, 1)

	s := Summarize(a)
	if s.Vertices != 5 {
		t.Errorf("Vertices = %d, want 5", s.Vertices)
	}
	if s.Replicas != 6 { // vertex 1 twice, others once
		t.Errorf("Replicas = %d, want 6", s.Replicas)
	}
	if s.ReplicationDegree != 6.0/5.0 {
		t.Errorf("RF = %v, want 1.2", s.ReplicationDegree)
	}
	if s.CutVertices != 1 {
		t.Errorf("CutVertices = %d, want 1", s.CutVertices)
	}
	if s.MinSize != 2 || s.MaxSize != 2 || s.Imbalance != 0 {
		t.Errorf("sizes: min=%d max=%d imb=%v", s.MinSize, s.MaxSize, s.Imbalance)
	}
	if !s.BalanceOK(0.9) {
		t.Error("BalanceOK(0.9) = false for perfectly balanced assignment")
	}
	if s.NormalizedMaxLoad() != 1.0 {
		t.Errorf("NormalizedMaxLoad = %v, want 1.0", s.NormalizedMaxLoad())
	}
}

func TestSummarizeSelfLoop(t *testing.T) {
	a := NewAssignment(2, 1)
	a.Add(graph.Edge{Src: 3, Dst: 3}, 1)
	s := Summarize(a)
	if s.Vertices != 1 || s.Replicas != 1 {
		t.Errorf("self-loop: vertices=%d replicas=%d, want 1,1", s.Vertices, s.Replicas)
	}
}

func TestImbalanceAndBalanceOK(t *testing.T) {
	a := NewAssignment(2, 4)
	a.Add(graph.Edge{Src: 0, Dst: 1}, 0)
	a.Add(graph.Edge{Src: 1, Dst: 2}, 0)
	a.Add(graph.Edge{Src: 2, Dst: 3}, 0)
	a.Add(graph.Edge{Src: 3, Dst: 4}, 1)
	s := Summarize(a)
	if s.Imbalance != 2.0/3.0 {
		t.Errorf("Imbalance = %v, want 2/3", s.Imbalance)
	}
	// min/max = 1/3 > τ must fail for τ=0.5, pass for τ=0.2.
	if s.BalanceOK(0.5) {
		t.Error("BalanceOK(0.5) = true for 1:3 split")
	}
	if !s.BalanceOK(0.2) {
		t.Error("BalanceOK(0.2) = false for 1:3 split")
	}
}

func TestReplicaHistogram(t *testing.T) {
	a := NewAssignment(3, 3)
	a.Add(graph.Edge{Src: 0, Dst: 1}, 0)
	a.Add(graph.Edge{Src: 0, Dst: 2}, 1)
	a.Add(graph.Edge{Src: 0, Dst: 3}, 2)
	hist := ReplicaHistogram(a)
	// Vertex 0 has 3 replicas; vertices 1,2,3 have 1 each.
	if hist[1] != 3 || hist[3] != 1 {
		t.Errorf("hist = %v", hist)
	}
}

func TestMerge(t *testing.T) {
	a := NewAssignment(4, 2)
	a.Add(graph.Edge{Src: 0, Dst: 1}, 0)
	b := NewAssignment(4, 2)
	b.Add(graph.Edge{Src: 1, Dst: 2}, 3)
	if err := a.Merge(b); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if a.Len() != 2 {
		t.Errorf("Len after merge = %d, want 2", a.Len())
	}
	s := Summarize(a)
	if s.Replicas != 4 { // vertex 1 on partitions 0 and 3
		t.Errorf("Replicas = %d, want 4", s.Replicas)
	}

	c := NewAssignment(5, 0)
	if err := a.Merge(c); err == nil {
		t.Error("Merge with different K succeeded")
	}
}

func TestValidate(t *testing.T) {
	good := NewAssignment(2, 1)
	good.Add(graph.Edge{Src: 0, Dst: 1}, 1)
	if err := good.Validate(); err != nil {
		t.Errorf("Validate on good assignment: %v", err)
	}

	bad := &Assignment{K: 2, Edges: []graph.Edge{{Src: 0, Dst: 1}}, Parts: []int32{5}}
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted out-of-range partition")
	}
	mismatch := &Assignment{K: 2, Edges: []graph.Edge{{Src: 0, Dst: 1}}, Parts: nil}
	if err := mismatch.Validate(); err == nil {
		t.Error("Validate accepted length mismatch")
	}
	badK := &Assignment{K: 0}
	if err := badK.Validate(); err == nil {
		t.Error("Validate accepted K=0")
	}
	wideK := &Assignment{K: MaxPartitions + 1}
	if err := wideK.Validate(); err == nil {
		t.Errorf("Validate accepted K=%d above MaxPartitions", wideK.K)
	}
}

func TestSummaryString(t *testing.T) {
	a := NewAssignment(2, 1)
	a.Add(graph.Edge{Src: 0, Dst: 1}, 0)
	if got := Summarize(a).String(); got == "" {
		t.Error("String() empty")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(NewAssignment(3, 0))
	if s.ReplicationDegree != 0 || s.Vertices != 0 {
		t.Errorf("empty summary: %+v", s)
	}
	if !s.BalanceOK(0.99) {
		t.Error("BalanceOK on empty = false")
	}
}

func TestForEachReplicaIncidences(t *testing.T) {
	a := NewAssignment(4, 3)
	a.Add(graph.Edge{Src: 0, Dst: 1}, 2)
	a.Add(graph.Edge{Src: 3, Dst: 3}, 1) // self-loop: one incidence
	a.Add(graph.Edge{Src: 1, Dst: 0}, 0)
	var got [][2]int32
	a.ForEachReplica(func(v graph.VertexID, p int32) {
		got = append(got, [2]int32{int32(v), p})
	})
	want := [][2]int32{{0, 2}, {1, 2}, {3, 1}, {1, 0}, {0, 0}}
	if len(got) != len(want) {
		t.Fatalf("incidences = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("incidences = %v, want %v", got, want)
		}
	}
}
