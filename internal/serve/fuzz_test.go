package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/metrics"
)

// FuzzHandler sends an arbitrary POST /v1/edges body and an arbitrary
// query string to /v1/edge and /v1/vertex of the lookup handler. No
// input may panic it; a batch answers 200, 400 or 413 and a single
// lookup 200, 400 or 404 (the edge or vertex is not in the
// partitioning). Every partition a 200 reports must equal the index's
// own answer.
func FuzzHandler(f *testing.F) {
	a := metrics.NewAssignment(70, 5)
	a.Add(graph.Edge{Src: 0, Dst: 1}, 2)
	a.Add(graph.Edge{Src: 1, Dst: 2}, 69)
	a.Add(graph.Edge{Src: 2, Dst: 3}, 2)
	a.Add(graph.Edge{Src: 4294967295, Dst: 7}, 64)
	a.Add(graph.Edge{Src: 5, Dst: 5}, 0)
	ix, err := Build(a)
	if err != nil {
		f.Fatal(err)
	}
	h := NewHandler(NewStore(ix))

	f.Add([]byte(`{"edges":[[0,1],[1,0],[7,9],[4294967295,7]]}`), "src=0&dst=1&v=1")
	f.Add([]byte(`{"edges":[]}`), "src=1&dst=0")
	f.Add([]byte(`{"edges":[[0,1]],"extra":1}`), "v=4294967295")
	f.Add([]byte(`{"edges":[[4294967296,0]]}`), "src=4294967296&dst=0")
	f.Add([]byte(`{"edges":[[0,1]]} trailing`), "src=%zz&v=-1")
	f.Add([]byte(`not json`), "")
	f.Fuzz(func(t *testing.T, body []byte, query string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/edges", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
			var req batchRequest
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&req); err != nil {
				t.Fatalf("200 for a body that does not decode: %v", err)
			}
			var resp struct {
				Partitions []int32 `json:"partitions"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 reply does not decode: %v", err)
			}
			if len(resp.Partitions) != len(req.Edges) {
				t.Fatalf("%d partitions for %d edges", len(resp.Partitions), len(req.Edges))
			}
			for i, pair := range req.Edges {
				want, ok := ix.Partition(graph.VertexID(pair[0]), graph.VertexID(pair[1]))
				if !ok {
					want = -1
				}
				if resp.Partitions[i] != want {
					t.Fatalf("edge %v: partition %d, index says %d", pair, resp.Partitions[i], want)
				}
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("POST /v1/edges: status %d", rec.Code)
		}

		rec = httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodGet, "/v1/edge", nil)
		r.URL.RawQuery = query
		h.ServeHTTP(rec, r)
		switch rec.Code {
		case http.StatusOK:
			var resp struct {
				Src, Dst  graph.VertexID
				Partition int32
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 reply does not decode: %v", err)
			}
			if want, ok := ix.Partition(resp.Src, resp.Dst); !ok || resp.Partition != want {
				t.Fatalf("edge (%d,%d): partition %d, index says %d (found %v)", resp.Src, resp.Dst, resp.Partition, want, ok)
			}
		case http.StatusBadRequest, http.StatusNotFound:
		default:
			t.Fatalf("GET /v1/edge?%s: status %d", query, rec.Code)
		}

		rec = httptest.NewRecorder()
		r = httptest.NewRequest(http.MethodGet, "/v1/vertex", nil)
		r.URL.RawQuery = query
		h.ServeHTTP(rec, r)
		switch rec.Code {
		case http.StatusOK:
			var resp struct {
				Vertex   graph.VertexID
				Replicas []int
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 reply does not decode: %v", err)
			}
			want := ix.Replicas(resp.Vertex).Members()
			if len(resp.Replicas) != len(want) {
				t.Fatalf("vertex %d: replicas %v, index says %v", resp.Vertex, resp.Replicas, want)
			}
			for i := range want {
				if resp.Replicas[i] != want[i] {
					t.Fatalf("vertex %d: replicas %v, index says %v", resp.Vertex, resp.Replicas, want)
				}
			}
		case http.StatusBadRequest, http.StatusNotFound:
		default:
			t.Fatalf("GET /v1/vertex?%s: status %d", query, rec.Code)
		}
	})
}
