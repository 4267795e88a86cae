package kclique

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
)

// This file is the package's shared parallel substrate. kClist-style
// enumeration is embarrassingly parallel per root node: every k-clique is
// rooted at its maximum-rank member, so partitioning the roots across a
// worker pool partitions the cliques with no coordination beyond a shared
// work counter. Each worker owns one Scratch for the whole run, so the
// recursion allocates nothing in steady state. All higher layers — score
// counting (core GC/L/LP), heap initialisation (Algorithm 3), and the
// dynamic engine's index construction (Algorithm 5) — build on the
// primitives here rather than rolling their own goroutine plumbing.

// Workers normalises a worker-count option: <= 0 means GOMAXPROCS, and the
// count is capped at n (the number of work items) so tiny inputs do not
// spawn idle goroutines. Always returns at least 1.
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// ParallelIndex runs visit(worker, i) for every i in [0, n), handing
// indexes out dynamically across the worker pool. It is the scratch-free
// sibling of ParallelRoots for work that is indexed but not rooted in a
// DAG (per-clique index rebuilds); visit runs concurrently across workers
// and must only write worker-local or atomically-updated state.
func ParallelIndex(n, workers int, visit func(worker, i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			visit(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				visit(worker, i)
			}
		}(w)
	}
	wg.Wait()
}

// ParallelRoots partitions the DAG's nodes across a worker pool and calls
// visit(worker, root, sc) for every root whose out-degree admits a k-clique
// (OutDegree >= k-1). Roots are handed out dynamically via a shared
// counter, so skewed degree distributions still balance. Each worker passes
// its own reusable Scratch; visit runs concurrently across workers and must
// only write worker-local or atomically-updated state. visit returning
// false aborts the pool, and so does a non-zero deadline passing: each
// worker checks it before every 64th root it visits. ParallelRoots reports
// whether every root was visited.
func ParallelRoots(d *graph.DAG, k, workers int, deadline time.Time, visit func(worker int, root int32, sc *Scratch) bool) bool {
	n := d.N()
	if k < 2 || n == 0 {
		return true
	}
	workers = Workers(workers, n)
	maxOut := d.G.MaxDegree()
	var next atomic.Int64
	var aborted atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			sc := GetScratch(k, maxOut)
			defer PutScratch(sc)
			visited := 0
			for {
				u := int32(next.Add(1) - 1)
				if int(u) >= n || aborted.Load() {
					return
				}
				if d.OutDegree(u) < k-1 {
					continue
				}
				visited++
				if visited&63 == 0 && !deadline.IsZero() && time.Now().After(deadline) {
					aborted.Store(true)
					return
				}
				if !visit(worker, u, sc) {
					aborted.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return !aborted.Load()
}

// ParallelForEach enumerates every k-clique of the DAG across a worker
// pool, calling fn(worker, clique) for each. The clique slice is reused by
// that worker between calls; fn must copy it to retain it and must be safe
// for concurrent invocation from different workers. The set of cliques
// visited is exactly ForEach's, but the visit order is nondeterministic —
// callers needing deterministic output should accumulate per root (or per
// worker) and merge in root order afterwards. fn returning false stops the
// enumeration pool-wide; ParallelForEach reports whether it ran to
// completion.
func ParallelForEach(d *graph.DAG, k, workers int, fn func(worker int, clique []int32) bool) bool {
	if k < 2 {
		return true
	}
	return ParallelRoots(d, k, workers, time.Time{}, func(worker int, u int32, sc *Scratch) bool {
		// Same unified core as the serial enumerator (the word-packed
		// kernel, or the stamped first level for roots over wordBits); the
		// mark array lives in the per-worker Scratch, so roots stamp
		// independently.
		sc.stack = append(sc.stack[:0], u)
		return forEachFrom(d, k-1, d.Out(u), sc, func(c []int32) bool { return fn(worker, c) })
	})
}

// ParallelCountPerNode computes the total number of k-cliques and the
// per-node counts s_n(u) (Definition 5) on the worker pool, without storing
// any clique. It is the parallel substrate behind Count; the result is
// identical to CountSerial for every worker count. Per-worker totals are
// merged at the end; per-node counts use atomic adds on a shared vector,
// which profiles cheaper than merging n-sized vectors per worker on the
// sparse graphs the paper targets. Roots on the word-packed kernel flush
// their counts once per root, one add per member that lies in one of the
// root's cliques; only roots with more than wordBits out-neighbours add
// once per leaf.
func ParallelCountPerNode(d *graph.DAG, k, workers int) (uint64, []int64) {
	total, scores, _ := CountWithDeadline(d, k, workers, time.Time{})
	return total, scores
}
