// Package metrics evaluates partitionings against the paper's objectives:
// replication degree (Eq. 1) and edge-count balance (Eq. 2).
package metrics

import (
	"fmt"

	"github.com/adwise-go/adwise/internal/bitset"
	"github.com/adwise-go/adwise/internal/graph"
)

// Assignment is the result of partitioning an edge stream: the i-th stream
// edge went to partition Parts[i].
type Assignment struct {
	K     int
	Edges []graph.Edge
	Parts []int32
}

// NewAssignment allocates an empty assignment for k partitions with
// capacity for n edges.
func NewAssignment(k, n int) *Assignment {
	return &Assignment{
		K:     k,
		Edges: make([]graph.Edge, 0, n),
		Parts: make([]int32, 0, n),
	}
}

// Add appends an edge assignment.
func (a *Assignment) Add(e graph.Edge, p int) {
	a.Edges = append(a.Edges, e)
	a.Parts = append(a.Parts, int32(p))
}

// Len returns the number of assigned edges.
func (a *Assignment) Len() int { return len(a.Edges) }

// Merge appends all assignments of b into a. Both must share the same K;
// merging is how the parallel-loading experiments combine the z
// partitioner instances into one global partitioning.
func (a *Assignment) Merge(b *Assignment) error {
	if a.K != b.K {
		return fmt.Errorf("metrics: merging assignments with different k (%d vs %d)", a.K, b.K)
	}
	a.Edges = append(a.Edges, b.Edges...)
	a.Parts = append(a.Parts, b.Parts...)
	return nil
}

// ForEachReplica streams every (vertex, partition) incidence of the
// assignment in stream order: once per endpoint per edge, with self-loops
// contributing a single incidence. It is the construction hook for
// anything that derives per-vertex replica state from an assignment —
// ReplicaSets here and the serving index build both go through it.
func (a *Assignment) ForEachReplica(yield func(v graph.VertexID, p int32)) {
	for i, e := range a.Edges {
		p := a.Parts[i]
		yield(e.Src, p)
		if e.Dst != e.Src {
			yield(e.Dst, p)
		}
	}
}

// ReplicaSets recomputes the replica set of every vertex from scratch.
func (a *Assignment) ReplicaSets() map[graph.VertexID]bitset.Set {
	sets := make(map[graph.VertexID]bitset.Set, 1024)
	a.ForEachReplica(func(v graph.VertexID, p int32) {
		s, ok := sets[v]
		if !ok {
			s = bitset.New(a.K)
		}
		s.Add(int(p))
		sets[v] = s
	})
	return sets
}

// Summary captures the partitioning-quality numbers the paper reports.
type Summary struct {
	K                 int
	Edges             int
	Vertices          int // vertices incident to at least one edge
	ReplicationDegree float64
	Replicas          int64 // Σ|Rv|
	CutVertices       int   // vertices with |Rv| > 1
	MinSize, MaxSize  int64
	Imbalance         float64 // (max-min)/max
	Sizes             []int64
}

// Summarize computes the Summary for an assignment.
func Summarize(a *Assignment) Summary {
	s := Summary{K: a.K, Edges: a.Len(), Sizes: make([]int64, a.K)}
	for _, p := range a.Parts {
		s.Sizes[p]++
	}
	if a.K > 0 && a.Len() > 0 {
		s.MinSize, s.MaxSize = s.Sizes[0], s.Sizes[0]
		for _, sz := range s.Sizes[1:] {
			if sz < s.MinSize {
				s.MinSize = sz
			}
			if sz > s.MaxSize {
				s.MaxSize = sz
			}
		}
		if s.MaxSize > 0 {
			s.Imbalance = float64(s.MaxSize-s.MinSize) / float64(s.MaxSize)
		}
	}
	for _, set := range a.ReplicaSets() {
		c := set.Count()
		s.Vertices++
		s.Replicas += int64(c)
		if c > 1 {
			s.CutVertices++
		}
	}
	if s.Vertices > 0 {
		s.ReplicationDegree = float64(s.Replicas) / float64(s.Vertices)
	}
	return s
}

// BalanceOK reports whether the balance constraint of Eq. 2 holds:
// for all partitions i, j with |Pi|>|Pj|: |Pj|/|Pi| > τ.
// Equivalently min/max > τ.
func (s Summary) BalanceOK(tau float64) bool {
	if s.MaxSize == 0 {
		return true
	}
	return float64(s.MinSize)/float64(s.MaxSize) > tau
}

// NormalizedMaxLoad returns maxsize/(edges/k), the load factor of the most
// loaded partition (1.0 is perfect balance).
func (s Summary) NormalizedMaxLoad() float64 {
	if s.Edges == 0 || s.K == 0 {
		return 0
	}
	ideal := float64(s.Edges) / float64(s.K)
	return float64(s.MaxSize) / ideal
}

// String renders the summary as a one-line report.
func (s Summary) String() string {
	return fmt.Sprintf("k=%d edges=%d RF=%.3f imbalance=%.3f maxload=%.3f cut=%d/%d",
		s.K, s.Edges, s.ReplicationDegree, s.Imbalance, s.NormalizedMaxLoad(), s.CutVertices, s.Vertices)
}

// ReplicaHistogram returns counts[h] = number of vertices with replica
// count h, for h in 0..K.
func ReplicaHistogram(a *Assignment) []int {
	hist := make([]int, a.K+1)
	for _, set := range a.ReplicaSets() {
		hist[set.Count()]++
	}
	return hist
}

// MaxPartitions bounds the partition count of an assignment read from or
// handed to the outside: 4096 partitions are 64 replica-bitmap words per
// vertex. Consumers size per-partition state by K, so the bound keeps a
// crafted assignment from demanding gigabytes per shard.
const MaxPartitions = 4096

// Validate checks structural invariants of an assignment: a partition
// count in [1, MaxPartitions], every partition id within range and
// non-NaN internal consistency. It returns the first violation found.
func (a *Assignment) Validate() error {
	if len(a.Edges) != len(a.Parts) {
		return fmt.Errorf("metrics: %d edges but %d partition labels", len(a.Edges), len(a.Parts))
	}
	if a.K < 1 || a.K > MaxPartitions {
		return fmt.Errorf("metrics: invalid partition count %d (want 1..%d)", a.K, MaxPartitions)
	}
	for i, p := range a.Parts {
		if p < 0 || int(p) >= a.K {
			return fmt.Errorf("metrics: edge %d assigned to partition %d outside [0,%d)", i, p, a.K)
		}
	}
	return nil
}
