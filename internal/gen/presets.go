package gen

import (
	"fmt"

	"github.com/adwise-go/adwise/internal/graph"
)

// Preset identifies one of the Table II evaluation graphs.
type Preset string

// The three evaluation graphs of the paper (Table II), reproduced as
// synthetic stand-ins at a configurable scale. Scale 1.0 corresponds to the
// default laptop-friendly sizes (ARCHITECTURE.md "Evaluation substrate");
// the shapes (degree skew, clustering regime) rather than the absolute
// sizes carry the experiments.
const (
	// PresetOrkut mimics the Orkut social network: power-law degrees with a
	// very low clustering coefficient (paper: ĉ=0.0413).
	PresetOrkut Preset = "orkut"
	// PresetBrain mimics the Brain biological network: dense, power-law,
	// moderate clustering (paper: ĉ=0.51).
	PresetBrain Preset = "brain"
	// PresetWeb mimics the Web graph: extremely strong clustering from
	// dense intra-site link structure (paper: ĉ=0.816).
	PresetWeb Preset = "web"
)

// Presets lists all presets in Table II order.
func Presets() []Preset { return []Preset{PresetOrkut, PresetBrain, PresetWeb} }

// PaperStats returns the |V|, |E| and ĉ the paper reports for the preset's
// real-world counterpart, for paper-vs-measured reporting.
func (p Preset) PaperStats() (v, e int64, clustering float64) {
	switch p {
	case PresetOrkut:
		return 3_072_441, 117_184_899, 0.0413
	case PresetBrain:
		return 734_600, 165_900_000, 0.509766
	case PresetWeb:
		return 41_291_594, 1_150_725_436, 0.816026
	default:
		return 0, 0, 0
	}
}

// Type returns the Table II graph type label.
func (p Preset) Type() string {
	switch p {
	case PresetOrkut:
		return "Social"
	case PresetBrain:
		return "Biological"
	case PresetWeb:
		return "Web"
	default:
		return "Unknown"
	}
}

// Generate produces the stand-in graph for the preset at the given scale.
// scale 1.0 yields the default evaluation size; smaller values shrink the
// graph proportionally (minimum sizes are enforced so tiny scales still
// produce valid graphs). The same seed always yields the same graph.
func (p Preset) Generate(scale float64, seed uint64) (*graph.Graph, error) {
	if scale <= 0 {
		return nil, fmt.Errorf("gen: preset %s: scale must be positive, got %v", p, scale)
	}
	switch p {
	case PresetOrkut:
		// Orkut: social network, power-law, ĉ≈0.04. Plain preferential
		// attachment has vanishing clustering; a light triad step lifts it
		// into the 0.03-0.06 band of the original.
		n := atLeast(int(60_000*scale), 200)
		m := 16
		return HolmeKim(n, m, 0.05, seed)
	case PresetBrain:
		// Brain: dense with moderate clustering ĉ≈0.5 and mild degree skew.
		// A small-world lattice supplies the density and clustering; a
		// preferential-attachment overlay (~8% of edges) supplies hubs.
		n := atLeast(int(12_000*scale), 150)
		base, err := WattsStrogatz(n, 25, 0.08, seed)
		if err != nil {
			return nil, err
		}
		hubs, err := BarabasiAlbert(n, 2, seed+1)
		if err != nil {
			return nil, err
		}
		nHub := len(base.Edges) / 12
		if nHub > len(hubs.Edges) {
			nHub = len(hubs.Edges)
		}
		base.Edges = append(base.Edges, hubs.Edges[:nHub]...)
		return base, nil
	case PresetWeb:
		// Web: near-clique page clusters (sites) plus sparse inter-site
		// links, ĉ≈0.8.
		communities := atLeast(int(1_500*scale), 8)
		const communitySize = 22
		inter := atLeast(int(22_000*scale), 40)
		return Community(communities, communitySize, 0.93, inter, seed)
	default:
		return nil, fmt.Errorf("gen: unknown preset %q", p)
	}
}

// OrkutLike generates the Orkut stand-in at the given scale.
func OrkutLike(scale float64, seed uint64) (*graph.Graph, error) {
	return PresetOrkut.Generate(scale, seed)
}

// BrainLike generates the Brain stand-in at the given scale.
func BrainLike(scale float64, seed uint64) (*graph.Graph, error) {
	return PresetBrain.Generate(scale, seed)
}

// WebLike generates the Web stand-in at the given scale.
func WebLike(scale float64, seed uint64) (*graph.Graph, error) {
	return PresetWeb.Generate(scale, seed)
}

func atLeast(v, min int) int {
	if v < min {
		return min
	}
	return v
}
