package vcache

import (
	"testing"

	"github.com/adwise-go/adwise/internal/bitset"
	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/hashx"
)

// mapCache reproduces the seed implementation — map[VertexID]*entry with
// one heap allocation and pointer chase per vertex — as the benchmark
// baseline the open-addressing table is measured against, and as the
// reference model the unlimited table is property-checked against.
type mapEntry struct {
	replicas bitset.Set
	degree   int32
}

type mapCache struct {
	k       int
	entries map[graph.VertexID]*mapEntry
	sizes   []int64
	maxDeg  int32
}

func newMapCache(k int) *mapCache {
	return &mapCache{
		k:       k,
		entries: make(map[graph.VertexID]*mapEntry, 1024),
		sizes:   make([]int64, k),
	}
}

func (c *mapCache) entryFor(v graph.VertexID) *mapEntry {
	e, ok := c.entries[v]
	if !ok {
		e = &mapEntry{replicas: bitset.New(c.k)}
		c.entries[v] = e
	}
	return e
}

func (c *mapCache) Assign(e graph.Edge, p int) (newSrc, newDst bool) {
	se := c.entryFor(e.Src)
	newSrc = se.replicas.Add(p)
	se.degree++
	if se.degree > c.maxDeg {
		c.maxDeg = se.degree
	}
	if e.Dst != e.Src {
		de := c.entryFor(e.Dst)
		newDst = de.replicas.Add(p)
		de.degree++
		if de.degree > c.maxDeg {
			c.maxDeg = de.degree
		}
	}
	c.sizes[p]++
	return newSrc, newDst
}

func (c *mapCache) Lookup(v graph.VertexID) (int, bitset.Set) {
	if e, ok := c.entries[v]; ok {
		return int(e.degree), e.replicas
	}
	return 0, bitset.Set{}
}

// benchEdges synthesizes a power-law-ish edge stream: a few hub vertices
// plus a long tail, the degree shape the cache sees in practice.
func benchEdges(n int) []graph.Edge {
	edges := make([]graph.Edge, n)
	x := uint64(0x12345)
	for i := range edges {
		x = hashx.SplitMix64(x)
		src := graph.VertexID(x % uint64(n/8+1))
		x = hashx.SplitMix64(x)
		dst := graph.VertexID(x % uint64(n/2+1))
		edges[i] = graph.Edge{Src: src, Dst: dst}
	}
	return edges
}

const benchK = 32

func BenchmarkAssign(b *testing.B) {
	edges := benchEdges(1 << 16)
	b.Run("open", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := New(benchK, 0)
			for j, e := range edges {
				c.Assign(e, j%benchK)
			}
		}
	})
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := newMapCache(benchK)
			for j, e := range edges {
				c.Assign(e, j%benchK)
			}
		}
	})
}

func BenchmarkLookup(b *testing.B) {
	edges := benchEdges(1 << 16)
	open := New(benchK, 0)
	mapc := newMapCache(benchK)
	for j, e := range edges {
		open.Assign(e, j%benchK)
		mapc.Assign(e, j%benchK)
	}
	b.Run("open", func(b *testing.B) {
		b.ReportAllocs()
		var sink int
		for i := 0; i < b.N; i++ {
			e := edges[i%len(edges)]
			d, r := open.Lookup(e.Src)
			sink += d + r.Count()
		}
		_ = sink
	})
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		var sink int
		for i := 0; i < b.N; i++ {
			e := edges[i%len(edges)]
			d, r := mapc.Lookup(e.Src)
			sink += d + r.Count()
		}
		_ = sink
	})
}

// BenchmarkAssignSteadyState documents the pointer-free claim: steady-state
// Assign must not allocate per edge (growth amortizes to ~0 over the run).
func BenchmarkAssignSteadyState(b *testing.B) {
	edges := benchEdges(1 << 14)
	c := New(benchK, 0)
	for j, e := range edges {
		c.Assign(e, j%benchK)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Assign(edges[i%len(edges)], i%benchK)
	}
}
