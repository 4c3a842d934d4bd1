package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/metrics"
	"github.com/adwise-go/adwise/internal/serve"
)

const (
	// batchSize is the edge count of one POST /v1/edges request.
	batchSize = 256
	// batchEvery makes every batchEvery-th request of a connection a batch;
	// the rest are single-edge GET /v1/edge lookups. No source fixes this
	// share. At 512, single-edge lookups resolve two thirds of the edges
	// (511 of 767), so lookups_per_s mostly measures the blocking
	// single-edge path the processing model needs, and every round still
	// sends batches through the correctness check.
	batchEvery = 512
	// keyPoolSize is the number of lookup keys drawn per run, uniformly
	// over the assignment's stream positions.
	keyPoolSize = 1 << 16
	// spanHeader carries "<run>/<span id>" of a traced client request, so
	// the server-side span becomes its child.
	spanHeader = "X-Bench-Span"
)

// keyPool is the lookup key sample with the answer each key must get: the
// partition of the key's last occurrence in the assignment (the serving
// index resolves duplicate stream edges last-write-wins).
type keyPool struct {
	edges []graph.Edge
	want  []int32
}

func newKeyPool(a *metrics.Assignment, seed uint64) keyPool {
	rng := rand.New(rand.NewPCG(seed, 0x6c6f6f6b))
	n := min(keyPoolSize, a.Len())
	p := keyPool{edges: make([]graph.Edge, n), want: make([]int32, n)}
	last := make(map[uint64]int32, n)
	for i := range p.edges {
		p.edges[i] = a.Edges[rng.IntN(a.Len())]
		last[edgeKey(p.edges[i])] = -1
	}
	for i, e := range a.Edges {
		if _, ok := last[edgeKey(e)]; ok {
			last[edgeKey(e)] = a.Parts[i]
		}
	}
	for i, e := range p.edges {
		p.want[i] = last[edgeKey(e)]
	}
	return p
}

// server is one running lookup service on a loopback listener.
type server struct {
	srv  *http.Server
	done chan error
	base string
}

// startServer is the serving set-up: serve.Build over the assignment, the
// store and handler, a loopback listener, and a first healthy /healthz
// answer. wrap, when non-nil, wraps the public handler.
func startServer(a *metrics.Assignment, wrap func(http.Handler) http.Handler, tr *tracer, run int64) (*server, error) {
	start := tr.begin()
	ix, err := serve.Build(a)
	tr.end("serve.build", 0, run, start)
	if err != nil {
		return nil, err
	}
	start = tr.begin()
	defer tr.end("serve.listen", 0, run, start)
	var h http.Handler = serve.NewHandler(serve.NewStore(ix))
	if wrap != nil {
		h = wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: serve.NewServer(h), done: make(chan error, 1), base: "http://" + ln.Addr().String()}
	go func() { s.done <- s.srv.Serve(ln) }()
	tp := &http.Transport{}
	defer tp.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tp, Timeout: 10 * time.Second}).Get(s.base + "/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("/healthz answered %d", resp.StatusCode)
		}
	}
	if err != nil {
		s.close()
		return nil, fmt.Errorf("lookup service not ready: %w", err)
	}
	return s, nil
}

// close stops the server and waits for its Serve goroutine to return.
func (s *server) close() {
	s.srv.Close()
	<-s.done
}

// traceHandler records a "serve.<route>" span around the public handler
// for requests that carry a client span, as that span's child.
func traceHandler(tr *tracer) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			runStr, idStr, ok := strings.Cut(r.Header.Get(spanHeader), "/")
			if !ok {
				h.ServeHTTP(w, r)
				return
			}
			// The header comes from this benchmark's own client; a value
			// that does not parse only leaves the span unparented.
			run, _ := strconv.ParseInt(runStr, 10, 64)
			parent, _ := strconv.ParseInt(idStr, 10, 64)
			start := tr.begin()
			h.ServeHTTP(w, r)
			tr.end("serve."+strings.TrimPrefix(r.URL.Path, "/v1/"), parent, run, start)
		})
	}
}

// round is one closed-loop load interval.
type round struct {
	run     int64
	traced  bool
	edgeLat []time.Duration // client-observed GET /v1/edge latencies
	// requests counts attempted requests; failures those that errored,
	// answered non-2xx, or answered with a wrong or missing partition.
	requests, failures int
	lookups            int // edges resolved correctly, both endpoints
	elapsed            time.Duration
	firstErr           error
}

// batchBody is one pre-encoded POST /v1/edges request with its answers.
type batchBody struct {
	body []byte
	want []int32
}

func batchBodies(p keyPool, n int) []batchBody {
	out := make([]batchBody, n)
	for b := range out {
		pairs := make([][2]uint32, batchSize)
		want := make([]int32, batchSize)
		for i := range pairs {
			k := (b*batchSize + i*7919) % len(p.edges)
			pairs[i] = [2]uint32{uint32(p.edges[k].Src), uint32(p.edges[k].Dst)}
			want[i] = p.want[k]
		}
		body, _ := json.Marshal(map[string]any{"edges": pairs}) // a [][2]uint32 always encodes
		out[b] = batchBody{body: body, want: want}
	}
	return out
}

// loadClient drives closed-loop lookups over conns connections: each
// connection sends its next request only after the previous answer.
type loadClient struct {
	base    string
	pool    keyPool
	batches []batchBody
	conns   int
	client  *http.Client
	tr      *tracer
}

func newLoadClient(base string, pool keyPool, conns int, tr *tracer) *loadClient {
	tp := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true}
	return &loadClient{
		base:    base,
		pool:    pool,
		batches: batchBodies(pool, 16),
		conns:   conns,
		client:  &http.Client{Transport: tp, Timeout: 30 * time.Second},
		tr:      tr,
	}
}

func (c *loadClient) close() { c.client.CloseIdleConnections() }

// runRound drives load for d and merges the connections' results.
func (c *loadClient) runRound(d time.Duration, run int64, traced bool, seed uint64) round {
	parts := make([]round, c.conns)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, uint64(run)<<8|uint64(i)))
			parts[i] = c.connLoop(start.Add(d), rng, run, traced)
		}(i)
	}
	wg.Wait()
	r := round{run: run, traced: traced, elapsed: time.Since(start)}
	for _, p := range parts {
		r.edgeLat = append(r.edgeLat, p.edgeLat...)
		r.requests += p.requests
		r.failures += p.failures
		r.lookups += p.lookups
		if r.firstErr == nil {
			r.firstErr = p.firstErr
		}
	}
	return r
}

func (c *loadClient) connLoop(deadline time.Time, rng *rand.Rand, run int64, traced bool) round {
	var r round
	fail := func(err error) {
		r.failures++
		if r.firstErr == nil {
			r.firstErr = err
		}
	}
	url := make([]byte, 0, 96)
	for n := 1; time.Now().Before(deadline); n++ {
		r.requests++
		if n%batchEvery == 0 {
			b := c.batches[rng.IntN(len(c.batches))]
			ok, err := c.batch(b, run, traced)
			if err != nil {
				fail(err)
				continue
			}
			r.lookups += ok
			continue
		}
		k := rng.IntN(len(c.pool.edges))
		e := c.pool.edges[k]
		url = append(url[:0], c.base...)
		url = append(url, "/v1/edge?src="...)
		url = strconv.AppendUint(url, uint64(e.Src), 10)
		url = append(url, "&dst="...)
		url = strconv.AppendUint(url, uint64(e.Dst), 10)
		t0 := time.Now()
		got, err := c.edge(string(url), run, traced)
		r.edgeLat = append(r.edgeLat, time.Since(t0))
		if err != nil {
			fail(err)
			continue
		}
		if got != c.pool.want[k] {
			fail(fmt.Errorf("edge %v answered partition %d, the assignment says %d", e, got, c.pool.want[k]))
			continue
		}
		r.lookups++
	}
	return r
}

// do sends req, recording a client span when traced, and decodes a 200
// JSON answer into out.
func (c *loadClient) do(req *http.Request, name string, run int64, traced bool, out any) error {
	var id, start int64
	if traced {
		id = c.tr.reserve()
		req.Header.Set(spanHeader, strconv.FormatInt(run, 10)+"/"+strconv.FormatInt(id, 10))
		start = c.tr.begin()
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if traced {
		c.tr.record(id, name, 0, run, start)
	}
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s answered %d: %s", req.URL.Path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, out)
}

func (c *loadClient) edge(url string, run int64, traced bool) (int32, error) {
	req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	var ans struct {
		Partition *int32 `json:"partition"`
	}
	if err := c.do(req, "client.edge", run, traced, &ans); err != nil {
		return 0, err
	}
	if ans.Partition == nil {
		return 0, errors.New("/v1/edge answer has no partition")
	}
	return *ans.Partition, nil
}

// batch sends one batch and returns how many edges it resolved correctly;
// any wrong or missing answer fails the whole request.
func (c *loadClient) batch(b batchBody, run int64, traced bool) (int, error) {
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, c.base+"/v1/edges", bytes.NewReader(b.body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	var ans struct {
		Partitions []int32 `json:"partitions"`
	}
	if err := c.do(req, "client.edges", run, traced, &ans); err != nil {
		return 0, err
	}
	if len(ans.Partitions) != len(b.want) {
		return 0, fmt.Errorf("/v1/edges answered %d partitions for %d edges", len(ans.Partitions), len(b.want))
	}
	for i, p := range ans.Partitions {
		if p != b.want[i] {
			return 0, fmt.Errorf("/v1/edges answer %d is partition %d, the assignment says %d", i, p, b.want[i])
		}
	}
	return len(b.want), nil
}
