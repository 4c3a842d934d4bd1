package runtime

import (
	"github.com/adwise-go/adwise/internal/metric"
)

// Metric names published by PublishStats for a completed pass. They carry
// the strategy-independent Stats view, so hashing baselines and window
// strategies report through the same names; the window-only fields simply
// stay zero for strategies without a scoring pool.
const (
	// MetricRunAssignments counts edges assigned across published passes.
	MetricRunAssignments = "runtime.assignments"
	// MetricRunScoreOps counts edge score evaluations.
	MetricRunScoreOps = "runtime.score_ops"
	// MetricRunPoolPasses counts scoring passes that ran sharded on the
	// scoring pool.
	MetricRunPoolPasses = "runtime.pool.passes"
	// MetricRunPoolScoreOps is the share of score ops done on pool passes.
	MetricRunPoolScoreOps = "runtime.pool.score_ops"
	// MetricRunStolenShards counts pool-pass shards executed by pool
	// workers rather than the owning instance's goroutine.
	MetricRunStolenShards = "runtime.pool.stolen_shards"
	// MetricRunLatency is the partitioning wall-clock per published pass,
	// as a histogram timer.
	MetricRunLatency = "runtime.partitioning.latency"
	// MetricRunRefillPasses counts window refills that inserted at least
	// one edge.
	MetricRunRefillPasses = "runtime.refill.passes"
	// MetricRunVcacheEvicted counts vertex-state evictions under a vertex
	// budget; the byte gauges carry the final and peak tracked footprints
	// of the published pass (summed across instances when publishing an
	// AggregateStats fold).
	MetricRunVcacheEvicted   = "runtime.vcache.evicted"
	MetricRunVcacheBytes     = "runtime.vcache.bytes"
	MetricRunVcachePeakBytes = "runtime.vcache.peak_bytes"
)

// PublishStats pushes one pass's Stats onto reg — the bridge from the
// pull-style Stats structs every Strategy reports to the push-style
// registry the flusher samples. Callers publish either per instance or
// once with an AggregateStats fold; counters accumulate either way. A nil
// registry is a no-op.
func PublishStats(reg *metric.Registry, st Stats) {
	if reg == nil {
		return
	}
	reg.Counter(MetricRunAssignments).Inc(st.Assignments)
	reg.Counter(MetricRunScoreOps).Inc(st.ScoreComputations)
	reg.Counter(MetricRunPoolPasses).Inc(st.ParallelScorePasses)
	reg.Counter(MetricRunPoolScoreOps).Inc(st.PoolScoreOps)
	reg.Counter(MetricRunStolenShards).Inc(st.StolenScoreShards)
	reg.Counter(MetricRunRefillPasses).Inc(st.RefillPasses)
	reg.Counter(MetricRunVcacheEvicted).Inc(st.EvictedVertices)
	reg.Gauge(MetricRunVcacheBytes).Set(st.CacheBytes)
	reg.Gauge(MetricRunVcachePeakBytes).Set(st.PeakCacheBytes)
	reg.Timer(MetricRunLatency).Observe(st.PartitioningLatency)
}
