package main

import (
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/metrics"
)

// smokeScale shrinks every workload's graphs to a few thousand edges.
const smokeScale = 0.05

func smokeConfig(t *testing.T, w *workload, trace bool) config {
	t.Helper()
	return config{w: w, seed: 7, seconds: 0.6, trace: trace, scale: smokeScale, outDir: t.TempDir(), root: "."}
}

// TestSmokeWorkloads runs every workload at tiny scale, untraced and
// traced, and checks that the run is correct and reports every metric of
// its mode.
func TestSmokeWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			w, trace := w, trace
			name := w.name + map[bool]string{false: "/untraced", true: "/traced"}[trace]
			t.Run(name, func(t *testing.T) {
				res, err := run(smokeConfig(t, w, trace))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("run not correct: failed=%d %v", res.Failed, res.Failures)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("reported %d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, m := range defs {
					v, ok := res.Metrics[m.name]
					if !ok {
						t.Errorf("metric %s missing", m.name)
						continue
					}
					if v.Unit != m.unit {
						t.Errorf("metric %s unit %q, want %q", m.name, v.Unit, m.unit)
					}
					if !trace && !(v.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.name, v.Value)
					}
				}
				if res.Runs < 2 {
					t.Errorf("only %d partitioning runs; the determinism gate needs a repeat", res.Runs)
				}
			})
		}
	}
}

// TestSelfTimes pins the span self-time arithmetic: overlapping children
// count once, children are clipped to the parent, grandchildren only
// reduce their own parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past root
		{ID: 5, Parent: 2, Name: "d", Start: 12, End: 18},
		{ID: 6, Parent: 2, Name: "d", Start: 18, End: 20}, // touches the previous
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 50, 2: 12, 3: 30, 4: 30, 5: 6, 6: 2}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self(%d) = %d, want %d", id, self[id], w)
		}
	}
	rows := layerTable(spans)
	var d layerRow
	for _, r := range rows {
		if r.Name == "d" {
			d = r
		}
	}
	if d.Count != 2 || d.Self != 8e-9 {
		t.Errorf("layer row for d = %+v, want count 2, self 8ns", d)
	}
}

func TestCoveredNsEmpty(t *testing.T) {
	if got := coveredNs(0, 10, nil); got != 0 {
		t.Errorf("coveredNs with no children = %d", got)
	}
	if got := coveredNs(0, 10, [][2]int64{{20, 30}}); got != 0 {
		t.Errorf("coveredNs with a child outside = %d", got)
	}
}

// TestCorruptAssignmentFails shows that the partitioning gate fails the
// run when the system's assignment is not a checked permutation of the
// input inside the spotlight spreads.
func TestCorruptAssignmentFails(t *testing.T) {
	cases := map[string]struct {
		workload string
		corrupt  func(*metrics.Assignment)
	}{
		"duplicated edge": {"zipf-clustered", func(a *metrics.Assignment) { a.Edges[1] = a.Edges[0] }},
		"foreign edge":    {"zipf-clustered", func(a *metrics.Assignment) { a.Edges[0] = graph.Edge{Src: 1 << 30, Dst: 1} }},
		"outside spread":  {"web-serve", func(a *metrics.Assignment) { a.Parts[0] = (a.Parts[0] + benchK/2) % benchK }},
		"dropped edge":    {"web-serve", func(a *metrics.Assignment) { a.Edges, a.Parts = a.Edges[1:], a.Parts[1:] }},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			w, err := workloadByName(tc.workload)
			if err != nil {
				t.Fatal(err)
			}
			cfg := smokeConfig(t, w, false)
			cfg.faults.assignment = tc.corrupt
			res, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed == 0 {
				t.Fatalf("corrupted assignment passed: correct=%t failed=%d", res.Correct, res.Failed)
			}
		})
	}
}

// TestCorruptLookupFails shows that a wrong lookup answer fails the run.
func TestCorruptLookupFails(t *testing.T) {
	w, err := workloadByName("zipf-clustered")
	if err != nil {
		t.Fatal(err)
	}
	cfg := smokeConfig(t, w, false)
	cfg.faults.handler = func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/edge" && r.URL.Query().Get("src") != "" {
				rw.Header().Set("Content-Type", "application/json")
				_, _ = rw.Write([]byte(`{"partition":` + "-1" + `}`))
				return
			}
			h.ServeHTTP(rw, r)
		})
	}
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("wrong lookup answers passed: correct=%t failed=%d", res.Correct, res.Failed)
	}
	if !strings.Contains(strings.Join(res.Failures, "\n"), "the assignment says") {
		t.Errorf("failures do not name the wrong answer: %v", res.Failures)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--trace", "2"},
		{"--seconds", "0"},
		{"extra"},
	} {
		var out, errOut strings.Builder
		if code := benchMain(args, &out, &errOut); code != 2 {
			t.Errorf("benchMain(%v) = %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("benchMain(%v) printed a result: %q", args, out.String())
		}
	}
}

// TestBenchmarkFile pins BENCHMARK.json to the workloads and metrics this
// program reports.
func TestBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s metric %d is %s [%s] in BENCHMARK.json, %s [%s] here", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
