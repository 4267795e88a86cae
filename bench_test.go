package dkclique

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dynamic"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kclique"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------------
// Table / figure regeneration benches: one per experiment in the paper's
// evaluation (§VI), each running the corresponding harness on the quick
// configuration. Run a single one with e.g.
//
//	go test -bench BenchmarkTable2Quality -benchtime 1x
//
// or regenerate with full output via `go run ./cmd/experiments -table 2`.
// ---------------------------------------------------------------------------

func benchRunner(b *testing.B, run func(experiments.Config) error) {
	b.Helper()
	cfg := experiments.Quick(io.Discard)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1CliqueCounts(b *testing.B)     { benchRunner(b, experiments.Table1) }
func BenchmarkFig6Runtime(b *testing.B)            { benchRunner(b, experiments.Fig6) }
func BenchmarkTable2Quality(b *testing.B)          { benchRunner(b, experiments.Table2) }
func BenchmarkTable3Space(b *testing.B)            { benchRunner(b, experiments.Table3) }
func BenchmarkTable4Exact(b *testing.B)            { benchRunner(b, experiments.Table4) }
func BenchmarkTable5Synthetic(b *testing.B)        { benchRunner(b, experiments.Table5) }
func BenchmarkTable6SyntheticQuality(b *testing.B) { benchRunner(b, experiments.Table6) }
func BenchmarkTable7Index(b *testing.B)            { benchRunner(b, experiments.Table7) }
func BenchmarkFig7Updates(b *testing.B)            { benchRunner(b, experiments.Fig7) }
func BenchmarkTable8DynamicQuality(b *testing.B)   { benchRunner(b, experiments.Table8) }
func BenchmarkAblationPruning(b *testing.B)        { benchRunner(b, experiments.AblationPruning) }
func BenchmarkAblationOrdering(b *testing.B)       { benchRunner(b, experiments.AblationOrdering) }
func BenchmarkAblationParallel(b *testing.B)       { benchRunner(b, experiments.AblationParallel) }
func BenchmarkAblationLeafCount(b *testing.B)      { benchRunner(b, experiments.AblationLeafCount) }
func BenchmarkAblationBitset(b *testing.B)         { benchRunner(b, experiments.AblationBitset) }
func BenchmarkAblationSwap(b *testing.B)           { benchRunner(b, experiments.AblationSwap) }

// ---------------------------------------------------------------------------
// Micro-benchmarks for the hot paths behind those tables.
// ---------------------------------------------------------------------------

func benchGraph(b *testing.B, name string) *graph.Graph {
	b.Helper()
	g, err := dataset.Load(name)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkAlgorithms times each static method on the HST stand-in, k=4 —
// the per-cell cost of Fig. 6.
func BenchmarkAlgorithms(b *testing.B) {
	g := benchGraph(b, "HST")
	for _, alg := range []core.Algorithm{core.HG, core.GC, core.L, core.LP} {
		b.Run(alg.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Find(g, core.Options{K: 4, Algorithm: alg}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLPByK shows the near-exponential growth in k reported in §VI-B.
func BenchmarkLPByK(b *testing.B) {
	g := benchGraph(b, "HST")
	for _, k := range []int{3, 4, 5, 6} {
		b.Run(map[int]string{3: "k3", 4: "k4", 5: "k5", 6: "k6"}[k], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Find(g, core.Options{K: k, Algorithm: core.LP}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCliqueCounting times the score pass (Algorithm 3 line 2), the
// dominant cost of L/LP on dense graphs.
func BenchmarkCliqueCounting(b *testing.B) {
	g := benchGraph(b, "FBP")
	d := graph.Orient(g, graph.ListingOrdering(g))
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kclique.CountSerial(d, 4)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kclique.Count(d, 4, 0)
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kclique.CountNaive(d, 4)
		}
	})
}

// BenchmarkFind sweeps the worker-pool size for the recommended method —
// the headline parallel-vs-serial comparison. Workers=1 is the fully
// serial baseline; the NumCPU row shows the speedup the root-partitioned
// pool extracts from score counting plus heap initialisation.
func BenchmarkFind(b *testing.B) {
	g := gen.CommunitySocial(30000, 16, 0.15, 60000, 11)
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("LP/workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Find(g, core.Options{K: 4, Algorithm: core.LP, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// cpuClock times a benchmark's timed sections in process CPU (user plus
// system, processCPU) beside b's wall clock: stop and resume move both
// clocks, and report adds the CPU time per op as cpu-ns/op. Create it
// where b's timer starts. Wall time alone hides work that other
// goroutines do in parallel with the measured one.
type cpuClock struct {
	b            *testing.B
	start, total time.Duration
}

func startCPU(b *testing.B) *cpuClock { return &cpuClock{b: b, start: processCPU()} }

func (c *cpuClock) stop() {
	c.b.StopTimer()
	c.total += processCPU() - c.start
}

func (c *cpuClock) resume() {
	c.start = processCPU()
	c.b.StartTimer()
}

func (c *cpuClock) report() {
	c.stop()
	c.b.ReportMetric(float64(c.total)/float64(c.b.N), "cpu-ns/op")
}

// BenchmarkDynamicUpdate reports the paper's Fig. 7 unit: nanoseconds per
// single update on a maintained engine.
func BenchmarkDynamicUpdate(b *testing.B) {
	g := benchGraph(b, "FBP")
	k := 4
	res, err := core.Find(g, core.Options{K: k, Algorithm: core.LP})
	if err != nil {
		b.Fatal(err)
	}
	e, err := dynamic.New(g, k, res.Cliques)
	if err != nil {
		b.Fatal(err)
	}
	ops := workload.Mixed(g, 5000, 1).Stream
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := ops[i%len(ops)]
		if op.Insert {
			if !e.InsertEdge(op.U, op.V) {
				e.DeleteEdge(op.U, op.V)
			}
		} else {
			if !e.DeleteEdge(op.U, op.V) {
				e.InsertEdge(op.U, op.V)
			}
		}
		_ = rng
	}
}

// BenchmarkInsertDeleteChurn measures sustained mixed churn on the
// community graph through the batched path: ops stream in and are applied
// in batches of 128, the way the serving layer drains its queue. ns/op
// and cpu-ns/op are per update, directly comparable with
// BenchmarkDynamicUpdate.
func BenchmarkInsertDeleteChurn(b *testing.B) {
	g := gen.CommunitySocial(20000, 14, 0.15, 40000, 13)
	k := 4
	res, err := core.Find(g, core.Options{K: k, Algorithm: core.LP})
	if err != nil {
		b.Fatal(err)
	}
	e, err := dynamic.New(g, k, res.Cliques)
	if err != nil {
		b.Fatal(err)
	}
	w := workload.Mixed(g, 4000, 7)
	for _, op := range w.Prepare {
		e.DeleteEdge(op.U, op.V)
	}
	ops := w.Stream
	const batch = 128
	buf := make([]workload.Op, 0, batch)
	b.ResetTimer()
	cpu := startCPU(b)
	for i := 0; i < b.N; i++ {
		// Toggle against the live graph so every op is a real mutation
		// even when b.N wraps around the stream.
		op := ops[i%len(ops)]
		op.Insert = !e.Graph().HasEdge(op.U, op.V)
		buf = append(buf, op)
		if len(buf) == batch {
			e.ApplyBatch(buf)
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		e.ApplyBatch(buf)
	}
	cpu.report()
}

// BenchmarkIndexBuild times Algorithm 5 (Construction), Table VII's
// indexing-time column, serial versus the full worker pool.
func BenchmarkIndexBuild(b *testing.B) {
	g := gen.CommunitySocial(30000, 16, 0.15, 60000, 11)
	k := 4
	res, err := core.Find(g, core.Options{K: k, Algorithm: core.LP})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := dynamic.NewWorkers(g, k, res.Cliques, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkApplyBatch compares draining an update queue one op at a time
// against the batched path, which coalesces candidate enumeration into
// one settle per batch. Both run on the calling goroutine. Each iteration
// processes the full 2000-op mixed stream (ns/op and cpu-ns/op are per
// batch, not per update; divide by len(w.Stream) to compare with
// BenchmarkDynamicUpdate).
func BenchmarkApplyBatch(b *testing.B) {
	g := gen.CommunitySocial(20000, 14, 0.15, 40000, 13)
	k := 4
	res, err := core.Find(g, core.Options{K: k, Algorithm: core.LP})
	if err != nil {
		b.Fatal(err)
	}
	w := workload.Mixed(g, 1000, 3)
	ops := w.Stream
	build := func() *dynamic.Engine {
		e, err := dynamic.New(g, k, res.Cliques)
		if err != nil {
			b.Fatal(err)
		}
		// Apply the up-front deletions so the stream's re-insertions hit
		// a graph they are actually absent from.
		for _, op := range w.Prepare {
			e.DeleteEdge(op.U, op.V)
		}
		return e
	}
	b.Run("serial", func(b *testing.B) {
		cpu := startCPU(b)
		for i := 0; i < b.N; i++ {
			cpu.stop()
			e := build()
			cpu.resume()
			for _, op := range ops {
				if op.Insert {
					e.InsertEdge(op.U, op.V)
				} else {
					e.DeleteEdge(op.U, op.V)
				}
			}
		}
		cpu.report()
	})
	b.Run("batched", func(b *testing.B) {
		cpu := startCPU(b)
		for i := 0; i < b.N; i++ {
			cpu.stop()
			e := build()
			cpu.resume()
			e.ApplyBatch(ops)
		}
		cpu.report()
	})
}
