package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/stream"
)

// span is one timed call into a layer of the system. Start and End are
// nanoseconds since the tracer was created; Parent is 0 for a root span.
// Spans of one partitioning iteration or one lookup round share a Run id.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Run    int64  `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out once, when the run
// ends. A nil *tracer records nothing, so the untraced path pays only a
// nil check at each benchmark-side call site.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	nextID int64
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin returns the start offset of a span that end records.
func (t *tracer) begin() (start int64) {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.origin))
}

// end records the span [start, now) under a fresh id.
func (t *tracer) end(name string, parent, run, start int64) {
	t.record(t.reserve(), name, parent, run, start)
}

// reserve hands out an id for a span whose children are recorded before
// it closes (the children need the parent id up front); record closes it.
func (t *tracer) reserve() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

func (t *tracer) record(id int64, name string, parent, run, start int64) {
	if t == nil {
		return
	}
	end := int64(time.Since(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: run, Name: name, Start: start, End: end})
}

// count is the number of spans recorded so far (0 when nil).
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// since returns a copy of the spans recorded after the first n.
func (t *tracer) since(n int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[n:]...)
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as gzip-compressed JSON lines at path. A traced
// run records a few hundred thousand spans, most of them one per lookup
// request and one per stream batch.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed) // the level is valid
	w := bufio.NewWriter(zw)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, for every span id, the span's duration minus the part
// of its interval covered by its children. Children may overlap (parallel
// spotlight instances under one executor span), so the covered part is the
// measure of the union of the children's intervals clipped to the parent.
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - time.Duration(coveredNs(s.Start, s.End, children[s.ID]))
	}
	return self
}

// coveredNs is the length of the union of ivs clipped to [lo, hi).
func coveredNs(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curLo, curHi, open = iv[0], iv[1], true
		case iv[0] <= curHi:
			curHi = max(curHi, iv[1])
		default:
			total += curHi - curLo
			curLo, curHi = iv[0], iv[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layerRow is one line of the per-layer self-time table.
type layerRow struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"`
}

// layerTable aggregates spans by name: call count, total and self time.
func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	rows := map[string]*layerRow{}
	for _, s := range spans {
		r, ok := rows[s.Name]
		if !ok {
			r = &layerRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.Total += s.dur().Seconds()
		r.Self += self[s.ID].Seconds()
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

func printLayerTable(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "  %-22s %9s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-22s %9d %12.6f %12.6f\n", r.Name, r.Count, r.Total, r.Self)
	}
}

// tracedStream times every NextBatch call of one segment stream as a
// "stream.read" span under the instance span that consumes it. Remaining
// and Err are forwarded unchanged, so condition (C2) and the stream error
// contract see exactly the wrapped stream.
type tracedStream struct {
	inner  stream.FileStream
	tr     *tracer
	run    int64
	parent int64 // the consuming instance's span; set before Run starts
}

func (s *tracedStream) Next() (graph.Edge, bool) {
	var one [1]graph.Edge
	if s.NextBatch(one[:]) == 0 {
		return graph.Edge{}, false
	}
	return one[0], true
}

func (s *tracedStream) NextBatch(dst []graph.Edge) int {
	start := s.tr.begin()
	n := s.inner.NextBatch(dst)
	if n > 0 {
		s.tr.end("stream.read", s.parent, s.run, start)
	}
	return n
}

func (s *tracedStream) Remaining() int64 { return s.inner.Remaining() }

func (s *tracedStream) Err() error { return s.inner.Err() }
