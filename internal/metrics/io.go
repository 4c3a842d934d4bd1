package metrics

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/adwise-go/adwise/internal/graph"
)

// Assignment persistence: a TSV of "src dst partition" rows, one per
// streamed edge, preserving stream order. This is the interchange format
// between cmd/adwise (which produces partitionings) and
// cmd/adwise-process (which consumes them).

// WriteTSV writes the assignment as "src\tdst\tpartition" lines preceded
// by a header comment carrying k.
func (a *Assignment) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# k=%d edges=%d\n", a.K, a.Len()); err != nil {
		return fmt.Errorf("metrics: writing assignment header: %w", err)
	}
	buf := make([]byte, 0, 40)
	for i, e := range a.Edges {
		buf = strconv.AppendUint(buf[:0], uint64(e.Src), 10)
		buf = append(buf, '\t')
		buf = strconv.AppendUint(buf, uint64(e.Dst), 10)
		buf = append(buf, '\t')
		buf = strconv.AppendInt(buf, int64(a.Parts[i]), 10)
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return fmt.Errorf("metrics: writing assignment row: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("metrics: flushing assignment: %w", err)
	}
	return nil
}

// ReadTSV parses an assignment written by WriteTSV. The header comment —
// a '#' line whose first token is a k= or edges= field, as WriteTSV
// emits — is optional; without it, k is inferred as max(partition)+1.
// Other comment lines are free text and ignored. When a header is
// present it is authoritative: a malformed k= or edges= field, a row
// whose partition is >= k, or a row count that contradicts edges= are
// all errors — a bad row must never silently widen the assignment. A
// header k= or a row partition at or above MaxPartitions is an error too,
// so no input can make a consumer size per-partition state for an
// unbounded k.
func ReadTSV(r io.Reader) (*Assignment, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	a := &Assignment{}
	headerK, headerEdges := -1, -1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line[0] == '#' {
			if !isHeader(line) {
				continue // free-text comment
			}
			k, edges, err := parseHeader(line)
			if err != nil {
				return nil, fmt.Errorf("metrics: line %d: %w", lineNo, err)
			}
			if k > 0 {
				headerK = k
			}
			if edges >= 0 {
				headerEdges = edges
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("metrics: line %d: want 3 fields, got %d", lineNo, len(fields))
		}
		src, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %d: src: %w", lineNo, err)
		}
		dst, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %d: dst: %w", lineNo, err)
		}
		part, err := strconv.ParseInt(fields[2], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %d: partition: %w", lineNo, err)
		}
		if part < 0 {
			return nil, fmt.Errorf("metrics: line %d: negative partition %d", lineNo, part)
		}
		if part >= MaxPartitions {
			return nil, fmt.Errorf("metrics: line %d: partition %d at or above the limit of %d partitions", lineNo, part, MaxPartitions)
		}
		if headerK > 0 && int(part) >= headerK {
			return nil, fmt.Errorf("metrics: line %d: partition %d outside header k=%d", lineNo, part, headerK)
		}
		a.Edges = append(a.Edges, graph.Edge{Src: graph.VertexID(src), Dst: graph.VertexID(dst)})
		a.Parts = append(a.Parts, int32(part))
		if int(part)+1 > a.K {
			a.K = int(part) + 1
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("metrics: scanning assignment: %w", err)
	}
	if len(a.Edges) == 0 {
		return nil, fmt.Errorf("metrics: empty assignment")
	}
	if headerK > 0 {
		// A header placed after data rows still constrains them.
		if a.K > headerK {
			return nil, fmt.Errorf("metrics: header k=%d but partition ids reach %d", headerK, a.K-1)
		}
		a.K = headerK
	}
	if headerEdges >= 0 && len(a.Edges) != headerEdges {
		return nil, fmt.Errorf("metrics: header declares %d edges but file has %d (truncated or padded assignment)",
			headerEdges, len(a.Edges))
	}
	return a, nil
}

// isHeader reports whether a comment line is an assignment header: its
// first token after '#' is a k= or edges= field, the shape WriteTSV
// emits. Any other comment is free text and is ignored wholesale — a
// stray "k=..." word inside prose never becomes a half-parsed header.
func isHeader(line string) bool {
	fields := strings.Fields(strings.TrimPrefix(line, "#"))
	return len(fields) > 0 &&
		(strings.HasPrefix(fields[0], "k=") || strings.HasPrefix(fields[0], "edges="))
}

// parseHeader extracts the k= and edges= fields of a header comment,
// returning -1 for absent fields. Present-but-malformed fields are
// errors: a header that cannot be trusted must not be half-applied.
func parseHeader(line string) (k, edges int, err error) {
	k, edges = -1, -1
	for _, f := range strings.Fields(line) {
		if rest, found := strings.CutPrefix(f, "k="); found {
			k, err = strconv.Atoi(rest)
			if err != nil || k < 1 {
				return -1, -1, fmt.Errorf("malformed header field %q: k must be a positive integer", f)
			}
			if k > MaxPartitions {
				return -1, -1, fmt.Errorf("header field %q: k above the limit of %d partitions", f, MaxPartitions)
			}
		}
		if rest, found := strings.CutPrefix(f, "edges="); found {
			edges, err = strconv.Atoi(rest)
			if err != nil || edges < 0 {
				return -1, -1, fmt.Errorf("malformed header field %q: edges must be a non-negative integer", f)
			}
		}
	}
	return k, edges, nil
}
