package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/kclique"
	"repro/internal/workload"
)

// AblationPruning quantifies the score-driven pruning strategy: L (without)
// versus LP (with) on the configured datasets — the design choice of §IV-C.
func AblationPruning(cfg Config) error {
	graphs, err := loadAll(cfg.Datasets)
	if err != nil {
		return err
	}
	fmt.Fprintln(cfg.Out, "Ablation: score-driven pruning (L vs LP runtime; identical S)")
	tw := newTab(cfg.Out)
	fmt.Fprint(tw, "Dataset\tk\tL\tLP\tspeedup")
	fmt.Fprintln(tw)
	for _, name := range cfg.Datasets {
		g := graphs[name]
		for _, k := range cfg.Ks {
			l := runAlg(g, k, core.L, &cfg)
			lp := runAlg(g, k, core.LP, &cfg)
			speed := "-"
			if l.status == "" && lp.status == "" && lp.elapsed > 0 {
				speed = fmt.Sprintf("%.2fx", float64(l.elapsed)/float64(lp.elapsed))
			}
			fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\n", name, k, l.cellTime(), lp.cellTime(), speed)
		}
	}
	return tw.Flush()
}

// basicWithOrdering runs the Algorithm 1 framework under an arbitrary node
// ordering — the §IV-A ordering discussion (degree vs score orderings).
func basicWithOrdering(g *graph.Graph, k int, ord graph.Ordering) int {
	d := graph.Orient(g, ord)
	n := g.N()
	valid := make([]bool, n)
	for i := range valid {
		valid[i] = true
	}
	sc := kclique.NewScratch(k, g.MaxDegree())
	size := 0
	for r := 0; r < n; r++ {
		u := ord.ByRank[r]
		if !valid[u] || d.OutDegree(u) < k-1 {
			continue
		}
		if c, ok := kclique.FindOne(d, k, u, valid, sc); ok {
			for _, v := range c {
				valid[v] = false
			}
			size++
		}
	}
	return size
}

// AblationOrdering compares node orderings inside the basic framework:
// ascending degree (the paper's HG), descending degree, degeneracy, and
// ascending node score.
func AblationOrdering(cfg Config) error {
	graphs, err := loadAll(cfg.Datasets)
	if err != nil {
		return err
	}
	fmt.Fprintln(cfg.Out, "Ablation: node ordering in the basic framework (|S|)")
	tw := newTab(cfg.Out)
	fmt.Fprint(tw, "Dataset\tk\tdeg-asc\tdeg-desc\tdegeneracy\tscore-asc")
	fmt.Fprintln(tw)
	for _, name := range cfg.Datasets {
		g := graphs[name]
		for _, k := range cfg.Ks {
			degAsc := graph.DegreeOrdering(g)
			degDesc := degAsc.Reverse()
			degen, _ := graph.DegeneracyOrdering(g)
			_, scores := kclique.ScoreGraph(g, k, cfg.Workers)
			scoreOrd := graph.ScoreOrdering(g, scores)
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\n", name, k,
				basicWithOrdering(g, k, degAsc),
				basicWithOrdering(g, k, degDesc),
				basicWithOrdering(g, k, degen),
				basicWithOrdering(g, k, scoreOrd))
		}
	}
	return tw.Flush()
}

// AblationParallel measures root-parallel score counting against the
// serial implementation.
func AblationParallel(cfg Config) error {
	graphs, err := loadAll(cfg.Datasets)
	if err != nil {
		return err
	}
	fmt.Fprintln(cfg.Out, "Ablation: parallel vs serial k-clique counting")
	tw := newTab(cfg.Out)
	fmt.Fprint(tw, "Dataset\tk\tserial\tparallel\tspeedup")
	fmt.Fprintln(tw)
	for _, name := range cfg.Datasets {
		g := graphs[name]
		d := graph.Orient(g, graph.ListingOrdering(g))
		for _, k := range cfg.Ks {
			t0 := time.Now()
			kclique.CountSerial(d, k)
			serial := time.Since(t0)
			t0 = time.Now()
			kclique.Count(d, k, cfg.Workers)
			par := time.Since(t0)
			speed := "-"
			if par > 0 {
				speed = fmt.Sprintf("%.2fx", float64(serial)/float64(par))
			}
			fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\n", name, k, formatDuration(serial), formatDuration(par), speed)
		}
	}
	return tw.Flush()
}

// AblationLeafCount measures the leaf-level bulk counting against naive
// per-clique enumeration.
func AblationLeafCount(cfg Config) error {
	graphs, err := loadAll(cfg.Datasets)
	if err != nil {
		return err
	}
	fmt.Fprintln(cfg.Out, "Ablation: leaf-level bulk counting vs per-clique enumeration")
	tw := newTab(cfg.Out)
	fmt.Fprint(tw, "Dataset\tk\tnaive\tleaf-bulk\tspeedup")
	fmt.Fprintln(tw)
	for _, name := range cfg.Datasets {
		g := graphs[name]
		d := graph.Orient(g, graph.ListingOrdering(g))
		for _, k := range cfg.Ks {
			t0 := time.Now()
			kclique.CountNaive(d, k)
			naive := time.Since(t0)
			t0 = time.Now()
			kclique.CountSerial(d, k)
			bulk := time.Since(t0)
			speed := "-"
			if bulk > 0 {
				speed = fmt.Sprintf("%.2fx", float64(naive)/float64(bulk))
			}
			fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\n", name, k, formatDuration(naive), formatDuration(bulk), speed)
		}
	}
	return tw.Flush()
}

// AblationBitset measures the word-packed bitset kernel inside Count
// against the merge-scan recursion of CountSerial, both on one goroutine
// so the kernel is the only difference.
func AblationBitset(cfg Config) error {
	graphs, err := loadAll(cfg.Datasets)
	if err != nil {
		return err
	}
	fmt.Fprintln(cfg.Out, "Ablation: word-packed bitset kernel vs merge-scan counting (1 worker)")
	tw := newTab(cfg.Out)
	fmt.Fprint(tw, "Dataset\tk\tmerge\tbitset\tspeedup")
	fmt.Fprintln(tw)
	for _, name := range cfg.Datasets {
		g := graphs[name]
		d := graph.Orient(g, graph.ListingOrdering(g))
		for _, k := range cfg.Ks {
			t0 := time.Now()
			wantTotal, _ := kclique.CountSerial(d, k)
			merge := time.Since(t0)
			t0 = time.Now()
			gotTotal, _ := kclique.Count(d, k, 1)
			bits := time.Since(t0)
			if wantTotal != gotTotal {
				return fmt.Errorf("bitset kernel disagrees on %s k=%d: %d vs %d", name, k, gotTotal, wantTotal)
			}
			speed := "-"
			if bits > 0 {
				speed = fmt.Sprintf("%.2fx", float64(merge)/float64(bits))
			}
			fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\n", name, k, formatDuration(merge), formatDuration(bits), speed)
		}
	}
	return tw.Flush()
}

// AblationSwap quantifies the TrySwap operation: maintained |S| after the
// mixed workload with swaps enabled versus disabled.
func AblationSwap(cfg Config) error {
	graphs, err := loadAll(cfg.Datasets)
	if err != nil {
		return err
	}
	fmt.Fprintln(cfg.Out, "Ablation: TrySwap on vs off (|S| after mixed workload)")
	tw := newTab(cfg.Out)
	fmt.Fprint(tw, "Dataset\tk\tswaps-on\tswaps-off")
	fmt.Fprintln(tw)
	for _, name := range cfg.Datasets {
		g := graphs[name]
		for _, k := range cfg.Ks {
			on, err1 := mixedWithEngine(g, k, &cfg, false)
			off, err2 := mixedWithEngine(g, k, &cfg, true)
			if err1 != nil || err2 != nil {
				fmt.Fprintf(tw, "%s\t%d\tERR\tERR\n", name, k)
				continue
			}
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\n", name, k, on, off)
		}
	}
	return tw.Flush()
}

func mixedWithEngine(g *graph.Graph, k int, cfg *Config, disableSwaps bool) (int, error) {
	w := workload.Mixed(g, cfg.UpdateCount, 7003)
	d := graph.DynamicFrom(g)
	for _, op := range w.Prepare {
		d.DeleteEdge(op.U, op.V)
	}
	res, err := core.Find(d.Snapshot(), core.Options{K: k, Algorithm: core.LP, Workers: cfg.Workers, Budget: cfg.Budget})
	if err != nil {
		return 0, err
	}
	e, err := dynamic.NewWorkers(d.Snapshot(), k, res.Cliques, cfg.Workers)
	if err != nil {
		return 0, err
	}
	if disableSwaps {
		e.DisableSwaps()
	}
	for _, op := range w.Stream {
		if op.Insert {
			e.InsertEdge(op.U, op.V)
		} else {
			e.DeleteEdge(op.U, op.V)
		}
	}
	return e.Size(), nil
}
