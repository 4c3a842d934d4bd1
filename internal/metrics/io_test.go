package metrics

import (
	"bytes"
	"strings"
	"testing"

	"github.com/adwise-go/adwise/internal/graph"
)

func TestAssignmentTSVRoundTrip(t *testing.T) {
	a := NewAssignment(4, 3)
	a.Add(graph.Edge{Src: 0, Dst: 1}, 2)
	a.Add(graph.Edge{Src: 1, Dst: 2}, 0)
	a.Add(graph.Edge{Src: 9, Dst: 0}, 3)

	var buf bytes.Buffer
	if err := a.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.K != 4 {
		t.Errorf("K = %d, want 4 (from header)", back.K)
	}
	if back.Len() != 3 {
		t.Fatalf("Len = %d, want 3", back.Len())
	}
	for i := range a.Edges {
		if back.Edges[i] != a.Edges[i] || back.Parts[i] != a.Parts[i] {
			t.Fatalf("row %d: got (%v,%d), want (%v,%d)", i,
				back.Edges[i], back.Parts[i], a.Edges[i], a.Parts[i])
		}
	}
}

func TestReadTSVWithoutHeader(t *testing.T) {
	in := "0\t1\t5\n2\t3\t0\n"
	a, err := ReadTSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if a.K != 6 {
		t.Errorf("K = %d, want 6 (inferred max+1)", a.K)
	}
}

func TestReadTSVErrors(t *testing.T) {
	tests := []struct {
		name, in string
	}{
		{"empty", ""},
		{"two fields", "0 1\n"},
		{"bad src", "x 1 0\n"},
		{"bad partition", "0 1 x\n"},
		{"negative partition", "0 1 -2\n"},
		{"header k too small", "# k=2\n0 1 5\n"},
		{"row widens header k", "# k=4 edges=2\n0 1 3\n1 2 4\n"},
		{"row equals header k", "# k=4\n0 1 4\n"},
		{"header after rows too small", "0 1 5\n# k=2\n"},
		{"malformed header k", "# k=abc edges=1\n0 1 0\n"},
		{"zero header k", "# k=0 edges=1\n0 1 0\n"},
		{"negative header k", "# k=-3 edges=1\n0 1 0\n"},
		{"malformed header edges", "# k=2 edges=two\n0 1 0\n"},
		{"truncated vs header edges", "# k=2 edges=3\n0 1 0\n1 2 1\n"},
		{"padded vs header edges", "# k=2 edges=1\n0 1 0\n1 2 1\n"},
		{"partition near int32 max", "0\t1\t2147483646"},
		{"header k above limit", "# k=2000000000 edges=1"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadTSV(strings.NewReader(tc.in)); err == nil {
				t.Errorf("ReadTSV(%q) succeeded, want error", tc.in)
			}
		})
	}
}

// TestReadTSVRejectsWideningRowAtTheRow pins the error to the offending
// line: a row whose partition exceeds the declared k must fail with the
// row's line number, not silently widen K (the pre-strictness behaviour)
// or fail with a detached end-of-file error.
func TestReadTSVRejectsWideningRowAtTheRow(t *testing.T) {
	_, err := ReadTSV(strings.NewReader("# k=3 edges=3\n0 1 2\n1 2 7\n2 3 0\n"))
	if err == nil {
		t.Fatal("row with partition 7 under header k=3 accepted")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error %q does not name line 3", err)
	}
	if !strings.Contains(err.Error(), "partition 7") {
		t.Errorf("error %q does not name the bad partition", err)
	}
}

func TestReadTSVHeaderWithoutEdgesCount(t *testing.T) {
	a, err := ReadTSV(strings.NewReader("# k=5\n0 1 4\n"))
	if err != nil {
		t.Fatal(err)
	}
	if a.K != 5 || a.Len() != 1 {
		t.Errorf("K=%d Len=%d, want 5,1", a.K, a.Len())
	}
}

// TestReadTSVFreeTextComments pins the header-shape rule: only comments
// whose first token is k=/edges= are headers; prose comments are ignored
// even when they happen to contain a "k=..." word.
func TestReadTSVFreeTextComments(t *testing.T) {
	in := "# generated with k=auto tuning\n# see edges=approx note\n# k=6 edges=1\n0 1 5\n"
	a, err := ReadTSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if a.K != 6 || a.Len() != 1 {
		t.Errorf("K=%d Len=%d, want 6,1", a.K, a.Len())
	}
}

func TestReadTSVSkipsCommentsAndBlanks(t *testing.T) {
	in := "# k=3 edges=1\n\n# another comment\n0\t1\t1\n"
	a, err := ReadTSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != 1 || a.K != 3 {
		t.Errorf("Len=%d K=%d, want 1,3", a.Len(), a.K)
	}
}
