// Package dataset names and materialises the graphs the experiments run
// on. The paper evaluates on 10 public KONECT / Network Repository graphs
// (Table I) and 6 small exact-comparison graphs (Table IV); this repository
// is offline, so each name maps to a deterministic synthetic stand-in of
// scaled size whose structure (dense overlapping communities + degree skew)
// reproduces the clique-richness that drives the paper's results. See
// DESIGN.md §4 for the substitution rationale.
package dataset

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/gen"
	"repro/internal/graph"
)

// DataDirEnv names the environment variable that, when set to a directory
// containing <Name>.txt edge lists (e.g. the real KONECT downloads), makes
// Load prefer those files over the synthetic stand-ins. This is the hook
// for running the harness against the paper's actual datasets.
const DataDirEnv = "DKCLIQUE_DATA_DIR"

// Spec describes a named dataset.
type Spec struct {
	// Name is the registry key (the paper's abbreviation, e.g. "OR").
	Name string
	// FullName is the paper's dataset name (e.g. "Orkut").
	FullName string
	// PaperN / PaperM are the original sizes reported in Table I.
	PaperN, PaperM int64
	// Small marks the Table IV exact-comparison datasets.
	Small bool
	// Build materialises the stand-in graph.
	Build func() *graph.Graph
}

// registry lists the stand-ins in the paper's Table I order, then the
// Table IV small datasets. Sizes are scaled so the full experiment sweep
// runs in minutes on a laptop while preserving relative ordering (FTB
// smallest ... OR largest and densest).
var registry = []Spec{
	// Table I datasets.
	{Name: "FTB", FullName: "Football", PaperN: 115, PaperM: 613, Build: func() *graph.Graph {
		return gen.CommunitySocial(115, 8, 0.30, 150, 101)
	}},
	{Name: "HST", FullName: "Hamsterster", PaperN: 1860, PaperM: 12500, Build: func() *graph.Graph {
		return gen.CommunitySocial(1860, 7, 0.35, 3500, 102)
	}},
	{Name: "FB", FullName: "Facebook", PaperN: 4000, PaperM: 88000, Build: func() *graph.Graph {
		// The paper's Facebook graph is extremely clique-dense (7.8B
		// 6-cliques): big communities, little rewiring.
		return gen.CommunitySocial(4000, 18, 0.15, 15000, 103)
	}},
	{Name: "FBP", FullName: "FBPages", PaperN: 28000, PaperM: 206000, Build: func() *graph.Graph {
		return gen.CommunitySocial(8000, 7, 0.30, 15000, 104)
	}},
	{Name: "FBW", FullName: "FBWosn", PaperN: 63700, PaperM: 817000, Build: func() *graph.Graph {
		return gen.CommunitySocial(12000, 9, 0.25, 30000, 105)
	}},
	{Name: "DS", FullName: "Dogster", PaperN: 260000, PaperM: 2150000, Build: func() *graph.Graph {
		return gen.CommunitySocial(20000, 7, 0.40, 60000, 106)
	}},
	{Name: "SK", FullName: "Skitter", PaperN: 1700000, PaperM: 11000000, Build: func() *graph.Graph {
		return gen.CommunitySocial(30000, 7, 0.45, 90000, 107)
	}},
	{Name: "FL", FullName: "Flickr", PaperN: 1700000, PaperM: 15600000, Build: func() *graph.Graph {
		// Flickr has the most extreme clique counts (33.6T 6-cliques):
		// larger, tighter communities.
		return gen.CommunitySocial(30000, 12, 0.20, 80000, 108)
	}},
	{Name: "LJ", FullName: "Livejournal", PaperN: 5200000, PaperM: 48700000, Build: func() *graph.Graph {
		return gen.CommunitySocial(40000, 9, 0.30, 120000, 109)
	}},
	{Name: "OR", FullName: "Orkut", PaperN: 3000000, PaperM: 117000000, Build: func() *graph.Graph {
		return gen.CommunitySocial(40000, 10, 0.25, 200000, 110)
	}},
	// Table IV small exact-comparison datasets.
	{Name: "Swallow", FullName: "Swallow", PaperN: 17, PaperM: 53, Small: true, Build: func() *graph.Graph {
		return gen.ErdosRenyiGNM(17, 53, 201)
	}},
	{Name: "Tortoise", FullName: "Tortoise", PaperN: 35, PaperM: 104, Small: true, Build: func() *graph.Graph {
		return gen.ErdosRenyiGNM(35, 104, 202)
	}},
	{Name: "Lizard", FullName: "Lizard", PaperN: 60, PaperM: 318, Small: true, Build: func() *graph.Graph {
		return gen.ErdosRenyiGNM(60, 318, 203)
	}},
	{Name: "Football", FullName: "Football", PaperN: 115, PaperM: 613, Small: true, Build: func() *graph.Graph {
		return gen.CommunitySocial(115, 8, 0.30, 150, 101)
	}},
	{Name: "Voles", FullName: "Voles", PaperN: 181, PaperM: 515, Small: true, Build: func() *graph.Graph {
		return gen.CommunitySocial(181, 5, 0.30, 120, 204)
	}},
	{Name: "Hamsterster", FullName: "Hamsterster", PaperN: 1860, PaperM: 12500, Small: true, Build: func() *graph.Graph {
		return gen.CommunitySocial(1860, 7, 0.35, 3500, 102)
	}},
}

// Names returns the Table I dataset names in paper order.
func Names() []string {
	var out []string
	for _, s := range registry {
		if !s.Small {
			out = append(out, s.Name)
		}
	}
	return out
}

// SmallNames returns the Table IV dataset names in paper order.
func SmallNames() []string {
	var out []string
	for _, s := range registry {
		if s.Small {
			out = append(out, s.Name)
		}
	}
	return out
}

// Get returns the spec for a name (case-sensitive).
func Get(name string) (Spec, error) {
	for _, s := range registry {
		if s.Name == name {
			return s, nil
		}
	}
	var known []string
	for _, s := range registry {
		known = append(known, s.Name)
	}
	sort.Strings(known)
	return Spec{}, fmt.Errorf("dataset: unknown dataset %q (known: %v)", name, known)
}

// Load materialises the named dataset: from <DataDirEnv>/<name>.txt when
// that file exists (real data), otherwise the synthetic stand-in. Only a
// missing file falls back; a file that exists but cannot be opened or
// parsed is an error, so a run meant for real data never silently
// reports on the stand-in.
func Load(name string) (*graph.Graph, error) {
	s, err := Get(name)
	if err != nil {
		return nil, err
	}
	if dir := os.Getenv(DataDirEnv); dir != "" {
		path := filepath.Join(dir, name+".txt")
		f, err := os.Open(path)
		switch {
		case err == nil:
			defer f.Close()
			g, err := graph.ReadEdgeList(f)
			if err != nil {
				return nil, fmt.Errorf("dataset: %s: %w", path, err)
			}
			return g, nil
		case !errors.Is(err, fs.ErrNotExist):
			return nil, fmt.Errorf("dataset: %w", err)
		}
	}
	return s.Build(), nil
}
