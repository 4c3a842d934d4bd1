package metrics

import (
	"bytes"
	"strings"
	"testing"

	"github.com/adwise-go/adwise/internal/graph"
)

// FuzzReadTSV feeds arbitrary bytes to the assignment TSV reader. Seeds
// are WriteTSV output, headerless and commented files, and inputs that
// ask for a partition count beyond MaxPartitions.
func FuzzReadTSV(f *testing.F) {
	a := NewAssignment(4, 3)
	a.Add(graph.Edge{Src: 0, Dst: 1}, 2)
	a.Add(graph.Edge{Src: 1, Dst: 2}, 0)
	a.Add(graph.Edge{Src: 9, Dst: 0}, 3)
	var buf bytes.Buffer
	if err := a.WriteTSV(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("0 1 0\n1 2 1\n")
	f.Add("# free text\n\n# k=3\n0 1 2\n")
	f.Add("0\t1\t2147483646")
	f.Add("# k=2000000000 edges=1")
	f.Fuzz(func(t *testing.T, in string) {
		got, err := ReadTSV(strings.NewReader(in))
		if err != nil {
			return
		}
		// Validate includes the bound K ≤ MaxPartitions.
		if err := got.Validate(); err != nil {
			t.Fatalf("accepted assignment fails Validate: %v", err)
		}
		var out bytes.Buffer
		if err := got.WriteTSV(&out); err != nil {
			t.Fatal(err)
		}
		back, err := ReadTSV(&out)
		if err != nil {
			t.Fatalf("re-reading WriteTSV output: %v", err)
		}
		if back.K != got.K || len(back.Edges) != len(got.Edges) {
			t.Fatalf("round trip: K %d→%d, edges %d→%d", got.K, back.K, len(got.Edges), len(back.Edges))
		}
		for i := range got.Edges {
			if back.Edges[i] != got.Edges[i] || back.Parts[i] != got.Parts[i] {
				t.Fatalf("round trip diverged at row %d: %v→%d, got %v→%d",
					i, got.Edges[i], got.Parts[i], back.Edges[i], back.Parts[i])
			}
		}
	})
}
