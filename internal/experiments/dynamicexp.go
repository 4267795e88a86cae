package experiments

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/workload"
)

// seedEngine runs static LP and wraps the result in a dynamic engine,
// honouring the -unified=off ablation.
func seedEngine(g *graph.Graph, k int, cfg *Config) (*dynamic.Engine, error) {
	res, err := core.Find(g, core.Options{K: k, Algorithm: core.LP, Workers: cfg.Workers, Budget: cfg.Budget})
	if err != nil {
		return nil, err
	}
	e, err := dynamic.NewWorkers(g, k, res.Cliques, cfg.Workers)
	if err != nil {
		return nil, err
	}
	if cfg.DisableUnified {
		e.DisableUnifiedFastPath()
	}
	return e, nil
}

// Table7 prints indexing time and index size (#candidate cliques) per
// dataset and k (the paper's Table VII).
func Table7(cfg Config) error {
	graphs, err := loadAll(cfg.Datasets)
	if err != nil {
		return err
	}
	fmt.Fprintln(cfg.Out, "Table VII: indexing time and index size")
	tw := newTab(cfg.Out)
	fmt.Fprint(tw, "Dataset")
	for _, k := range cfg.Ks {
		fmt.Fprintf(tw, "\tt(k=%d)", k)
	}
	for _, k := range cfg.Ks {
		fmt.Fprintf(tw, "\t|C|(k=%d)", k)
	}
	fmt.Fprintln(tw)
	for _, name := range cfg.Datasets {
		g := graphs[name]
		times := make([]string, 0, len(cfg.Ks))
		sizes := make([]string, 0, len(cfg.Ks))
		for _, k := range cfg.Ks {
			e, err := seedEngine(g, k, &cfg)
			if err != nil {
				times = append(times, "ERR")
				sizes = append(sizes, "ERR")
				continue
			}
			times = append(times, formatDuration(e.Stats().IndexBuild))
			sizes = append(sizes, fmt.Sprintf("%d", e.NumCandidates()))
		}
		fmt.Fprintf(tw, "%s", name)
		for _, t := range times {
			fmt.Fprintf(tw, "\t%s", t)
		}
		for _, s := range sizes {
			fmt.Fprintf(tw, "\t%s", s)
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// updateResult summarises one measured workload run.
type updateResult struct {
	avgNs int64
	p99Ns int64
	size  int
	err   error
}

// measureOps applies the updates one by one, timing each, and returns the
// average and 99th-percentile latency.
func measureOps(e *dynamic.Engine, ops []workload.Op) (avg, p99 int64) {
	if len(ops) == 0 {
		return 0, 0
	}
	lat := make([]int64, 0, len(ops))
	for _, op := range ops {
		t0 := time.Now()
		if op.Insert {
			e.InsertEdge(op.U, op.V)
		} else {
			e.DeleteEdge(op.U, op.V)
		}
		lat = append(lat, time.Since(t0).Nanoseconds())
	}
	var total int64
	for _, l := range lat {
		total += l
	}
	return total / int64(len(lat)), percentile(lat, 0.99)
}

// percentile returns the q-quantile (0 < q <= 1) of the samples by the
// nearest-rank method. The slice is reordered.
func percentile(samples []int64, q float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	slices.Sort(samples)
	idx := int(q*float64(len(samples))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(samples) {
		idx = len(samples) - 1
	}
	return samples[idx]
}

// runDeletions measures the deletion workload on a fresh engine.
func runDeletions(g *graph.Graph, k int, cfg *Config) updateResult {
	e, err := seedEngine(g, k, cfg)
	if err != nil {
		return updateResult{err: err}
	}
	ops := workload.Deletions(g, cfg.UpdateCount, 7001)
	avg, p99 := measureOps(e, ops)
	return updateResult{avgNs: avg, p99Ns: p99, size: e.Size()}
}

// runInsertions measures re-insertion of a deleted batch: the engine
// starts from the graph with the batch removed, then the batch is added
// back (the paper's insertion workload).
func runInsertions(g *graph.Graph, k int, cfg *Config) updateResult {
	ops := workload.Insertions(g, cfg.UpdateCount, 7001)
	d := graph.DynamicFrom(g)
	for _, op := range ops {
		d.DeleteEdge(op.U, op.V)
	}
	e, err := seedEngine(d.Snapshot(), k, cfg)
	if err != nil {
		return updateResult{err: err}
	}
	avg, p99 := measureOps(e, ops)
	return updateResult{avgNs: avg, p99Ns: p99, size: e.Size()}
}

// runMixed measures the 2×count mixed workload on G'.
func runMixed(g *graph.Graph, k int, cfg *Config) updateResult {
	w := workload.Mixed(g, cfg.UpdateCount, 7003)
	d := graph.DynamicFrom(g)
	for _, op := range w.Prepare {
		d.DeleteEdge(op.U, op.V)
	}
	e, err := seedEngine(d.Snapshot(), k, cfg)
	if err != nil {
		return updateResult{err: err}
	}
	avg, p99 := measureOps(e, w.Stream)
	return updateResult{avgNs: avg, p99Ns: p99, size: e.Size()}
}

// Fig7 prints the average update time in nanoseconds for the deletion,
// insertion and mixed workloads (the paper's Figure 7, as a table).
func Fig7(cfg Config) error {
	graphs, err := loadAll(cfg.Datasets)
	if err != nil {
		return err
	}
	fmt.Fprintln(cfg.Out, "Figure 7: update time per workload, avg ns (p99 ns)")
	tw := newTab(cfg.Out)
	fmt.Fprint(tw, "Dataset\tk\tDeletion\tInsertion\tMixed")
	fmt.Fprintln(tw)
	for _, name := range cfg.Datasets {
		g := graphs[name]
		for _, k := range cfg.Ks {
			del := runDeletions(g, k, &cfg)
			ins := runInsertions(g, k, &cfg)
			mix := runMixed(g, k, &cfg)
			fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\n", name, k, nsCell(del), nsCell(ins), nsCell(mix))
		}
	}
	return tw.Flush()
}

func nsCell(r updateResult) string {
	if r.err != nil {
		return "ERR"
	}
	return fmt.Sprintf("%d (%d)", r.avgNs, r.p99Ns)
}

// UpdateThroughput prints per-update nanoseconds for the mixed workload
// applied one op at a time versus in 128-op batches — the update-path
// throughput the flat graph substrate optimises (BENCH_update.json records
// the benchmark-harness equivalents). Every op is toggled against the live
// graph so the whole stream consists of real mutations.
func UpdateThroughput(cfg Config) error {
	graphs, err := loadAll(cfg.Datasets)
	if err != nil {
		return err
	}
	mode := "unified=on"
	if cfg.DisableUnified {
		mode = "unified=off"
	}
	fmt.Fprintf(cfg.Out, "Update throughput: mixed-workload ns per update (%s)\n", mode)
	tw := newTab(cfg.Out)
	fmt.Fprintln(tw, "Dataset\tk\tsingle-op\tbatched(128)")
	for _, name := range cfg.Datasets {
		g := graphs[name]
		for _, k := range cfg.Ks {
			single, errS := churnRate(g, k, &cfg, 1)
			batched, errB := churnRate(g, k, &cfg, 128)
			cs, cb := "ERR", "ERR"
			if errS == nil {
				cs = fmt.Sprintf("%d", single)
			}
			if errB == nil {
				cb = fmt.Sprintf("%d", batched)
			}
			fmt.Fprintf(tw, "%s\t%d\t%s\t%s\n", name, k, cs, cb)
		}
	}
	return tw.Flush()
}

// churnRate drives the mixed stream through a fresh engine in batches of
// the given size (1 = the single-op entry points) and returns avg ns/op.
func churnRate(g *graph.Graph, k int, cfg *Config, batch int) (int64, error) {
	w := workload.Mixed(g, cfg.UpdateCount, 7003)
	e, err := seedEngine(g, k, cfg)
	if err != nil {
		return 0, err
	}
	for _, op := range w.Prepare {
		e.DeleteEdge(op.U, op.V)
	}
	buf := make([]workload.Op, 0, batch)
	start := time.Now()
	for _, op := range w.Stream {
		op.Insert = !e.Graph().HasEdge(op.U, op.V)
		if batch == 1 {
			if op.Insert {
				e.InsertEdge(op.U, op.V)
			} else {
				e.DeleteEdge(op.U, op.V)
			}
			continue
		}
		buf = append(buf, op)
		if len(buf) == batch {
			e.ApplyBatch(buf)
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		e.ApplyBatch(buf)
	}
	return time.Since(start).Nanoseconds() / int64(len(w.Stream)), nil
}

// Table8 prints the quality of S after each workload as Δ versus building
// from scratch on the final graph (the paper's Table VIII).
func Table8(cfg Config) error {
	graphs, err := loadAll(cfg.Datasets)
	if err != nil {
		return err
	}
	fmt.Fprintln(cfg.Out, "Table VIII: quality of S after updates (Δ vs rebuild from scratch)")
	tw := newTab(cfg.Out)
	fmt.Fprint(tw, "Dataset\tk\tAfterDel(Δ)\tAfterIns(Δ)\tAfterMixed(Δ)")
	fmt.Fprintln(tw)
	for _, name := range cfg.Datasets {
		g := graphs[name]
		for _, k := range cfg.Ks {
			delCell := qualityDelta(g, k, &cfg, runDeletions, func() *graph.Graph {
				d := graph.DynamicFrom(g)
				for _, op := range workload.Deletions(g, cfg.UpdateCount, 7001) {
					d.DeleteEdge(op.U, op.V)
				}
				return d.Snapshot()
			})
			insCell := qualityDelta(g, k, &cfg, runInsertions, func() *graph.Graph {
				return g // insertion workload ends back at the original graph
			})
			mixCell := qualityDelta(g, k, &cfg, runMixed, func() *graph.Graph {
				w := workload.Mixed(g, cfg.UpdateCount, 7003)
				d := graph.DynamicFrom(g)
				for _, op := range w.Prepare {
					d.DeleteEdge(op.U, op.V)
				}
				for _, op := range w.Stream {
					if op.Insert {
						d.InsertEdge(op.U, op.V)
					} else {
						d.DeleteEdge(op.U, op.V)
					}
				}
				return d.Snapshot()
			})
			fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\n", name, k, delCell, insCell, mixCell)
		}
	}
	return tw.Flush()
}

// qualityDelta runs a workload and compares the maintained |S| against a
// from-scratch LP rebuild on the resulting graph.
func qualityDelta(g *graph.Graph, k int, cfg *Config,
	run func(*graph.Graph, int, *Config) updateResult,
	finalGraph func() *graph.Graph) string {
	r := run(g, k, cfg)
	if r.err != nil {
		return "ERR"
	}
	res, err := core.Find(finalGraph(), core.Options{K: k, Algorithm: core.LP, Workers: cfg.Workers, Budget: cfg.Budget})
	if err != nil {
		return "ERR"
	}
	return fmt.Sprintf("%+d", r.size-res.Size())
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
