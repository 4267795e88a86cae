// Package experiments regenerates every table and figure of the paper's
// evaluation section (§VI) against the dataset stand-ins of
// internal/dataset. Each runner prints rows in the paper's layout; absolute
// numbers differ from the paper (scaled graphs, Go, commodity hardware) but
// the orderings and growth shapes are what EXPERIMENTS.md tracks.
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
)

// Config scales an experiment run.
type Config struct {
	// Ks lists the clique sizes to sweep (paper: 3..6).
	Ks []int
	// Datasets lists Table I dataset names to include.
	Datasets []string
	// SmallDatasets lists Table IV dataset names to include.
	SmallDatasets []string
	// Budget bounds each heuristic algorithm run (paper: 24 h).
	Budget time.Duration
	// OPTBudget bounds each exact run; OPT exceeding it prints OOT.
	OPTBudget time.Duration
	// MaxStoredCliques is the storage cap for GC and OPT; exceeding it
	// prints OOM.
	MaxStoredCliques int
	// Workers bounds parallelism (0 = GOMAXPROCS).
	Workers int
	// UpdateCount is the per-workload update batch (paper: 10K).
	UpdateCount int
	// WSNodes and WSDegrees configure the §VI-D Watts–Strogatz sweep.
	WSNodes   int
	WSDegrees []int
	// DisableUnified puts every enumeration of the dynamic engines the
	// experiments build on the merge recursion, turning off the unified
	// core's word-packed kernel and the stamped first level of large
	// candidate sets (cmd/experiments -unified=off), so the speedup of
	// the shared fast paths is reproducible from the CLI. Results are
	// identical; only update latency changes.
	DisableUnified bool
	// Out receives the rendered tables.
	Out io.Writer
}

// Quick returns a configuration that finishes in well under a minute —
// the default for `go test -bench`.
func Quick(out io.Writer) Config {
	return Config{
		Ks:               []int{3, 4, 5},
		Datasets:         []string{"FTB", "HST", "FBP"},
		SmallDatasets:    []string{"Swallow", "Tortoise", "Lizard", "Football", "Voles"},
		Budget:           20 * time.Second,
		OPTBudget:        3 * time.Second,
		MaxStoredCliques: 3_000_000,
		UpdateCount:      2000,
		WSNodes:          20000,
		WSDegrees:        []int{8, 16, 32},
		Out:              out,
	}
}

// Full returns the configuration for the complete sweep (minutes).
func Full(out io.Writer) Config {
	return Config{
		Ks:               []int{3, 4, 5, 6},
		Datasets:         dataset.Names(),
		SmallDatasets:    dataset.SmallNames(),
		Budget:           120 * time.Second,
		OPTBudget:        10 * time.Second,
		MaxStoredCliques: 20_000_000,
		UpdateCount:      10000,
		WSNodes:          100000,
		WSDegrees:        []int{8, 16, 32, 64},
		Out:              out,
	}
}

// runOutcome captures one algorithm invocation for table rendering.
type runOutcome struct {
	res     *core.Result
	peakMem uint64 // peak live-heap delta during the run
	status  string // "" on success, else "OOT"/"OOM"
	elapsed time.Duration
}

// cellSize renders the |S| column.
func (r runOutcome) cellSize() string {
	if r.status != "" {
		return r.status
	}
	return fmt.Sprintf("%d", r.res.Size())
}

// cellDelta renders |S| relative to a baseline (Table II's Δ convention).
func (r runOutcome) cellDelta(base int) string {
	if r.status != "" {
		return r.status
	}
	return fmt.Sprintf("%+d", r.res.Size()-base)
}

// cellTime renders the runtime column.
func (r runOutcome) cellTime() string {
	if r.status != "" {
		return r.status
	}
	return formatDuration(r.elapsed)
}

// cellMem renders the space column in MB.
func (r runOutcome) cellMem() string {
	if r.status != "" {
		return r.status
	}
	return fmt.Sprintf("%.1f", float64(r.peakMem)/(1<<20))
}

func formatDuration(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// runAlg executes one algorithm with budget enforcement and heap-peak
// sampling (the stand-in for the paper's RSS measurements).
func runAlg(g *graph.Graph, k int, alg core.Algorithm, cfg *Config) runOutcome {
	budget := cfg.Budget
	if alg == core.OPT {
		budget = cfg.OPTBudget
	}
	opt := core.Options{
		K:                k,
		Algorithm:        alg,
		Workers:          cfg.Workers,
		Budget:           budget,
		MaxStoredCliques: cfg.MaxStoredCliques,
	}

	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	var peak atomic.Uint64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak.Load() {
					peak.Store(ms.HeapAlloc)
				}
			}
		}
	}()

	start := time.Now()
	res, err := core.Find(g, opt)
	elapsed := time.Since(start)
	close(stop)
	<-done

	out := runOutcome{elapsed: elapsed}
	if p := peak.Load(); p > base.HeapAlloc {
		out.peakMem = p - base.HeapAlloc
	}
	switch err {
	case nil:
		out.res = res
	case core.ErrOOT:
		out.status = "OOT"
	case core.ErrOOM:
		out.status = "OOM"
	default:
		out.status = "ERR"
	}
	return out
}

// newTab returns a tabwriter for aligned table output.
func newTab(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 4, 0, 2, ' ', 0)
}

// loadAll materialises the configured datasets once.
func loadAll(names []string) (map[string]*graph.Graph, error) {
	out := make(map[string]*graph.Graph, len(names))
	for _, name := range names {
		g, err := dataset.Load(name)
		if err != nil {
			return nil, err
		}
		out[name] = g
	}
	return out, nil
}
