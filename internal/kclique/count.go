package kclique

import (
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/graph"
)

// ErrDeadline is returned by CountWithDeadline when the deadline elapses.
var ErrDeadline = errors.New("kclique: deadline exceeded")

// Count computes the total number of k-cliques in the DAG and the per-node
// counts s_n(u) (Definition 5: the number of k-cliques containing u),
// without storing any clique. workers <= 0 means GOMAXPROCS.
//
// Roots whose out-neighbourhood has at most wordBits members run on the
// word-packed kernel (words.go) and flush their per-node counts once per
// root; larger ones run the merge recursion, where at the last level every
// remaining candidate completes one clique with the current stack, so
// counts are accumulated in bulk instead of per clique.
func Count(d *graph.DAG, k int, workers int) (uint64, []int64) {
	return ParallelCountPerNode(d, k, workers)
}

// CountWithDeadline is Count with a wall-clock budget: if deadline is
// non-zero and elapses mid-count it returns ErrDeadline (counts are then
// partial and must not be used). Runs on the ParallelRoots worker pool,
// which checks the deadline, with one countCtx (and its Scratch) per
// worker.
func CountWithDeadline(d *graph.DAG, k int, workers int, deadline time.Time) (uint64, []int64, error) {
	n := d.N()
	scores := make([]int64, n)
	if k < 2 || n == 0 {
		return 0, scores, nil
	}
	if !deadline.IsZero() && time.Now().After(deadline) {
		return 0, scores, ErrDeadline
	}
	workers = Workers(workers, n)
	ctxs := make([]countCtx, workers)
	done := ParallelRoots(d, k, workers, deadline, func(worker int, u int32, sc *Scratch) bool {
		cc := &ctxs[worker]
		cc.d, cc.k, cc.scores, cc.sc = d, k, scores, sc
		if d.OutDegree(u) <= wordBits {
			cc.rootWords(u)
		} else {
			cc.rootMerge(u)
		}
		return true
	})
	var total uint64
	for i := range ctxs {
		total += ctxs[i].total
	}
	if !done {
		return total, scores, ErrDeadline
	}
	return total, scores, nil
}

type countCtx struct {
	d      *graph.DAG
	k      int
	scores []int64
	sc     *Scratch
	total  uint64
}

// rootWords counts the k-cliques rooted at u on the word-packed kernel,
// then adds each member's count to the shared scores with one atomic add.
func (c *countCtx) rootWords(u int32) {
	sc, out := c.sc, c.d.Out(u)
	sc.loadWords(c.d.N(), out)
	sc.buildRows(c.d, len(out))
	clear(sc.local[:len(out)])
	n := sc.countWords(c.k-1, fullWord(len(out)))
	if n == 0 {
		return
	}
	c.total += n
	atomic.AddInt64(&c.scores[u], int64(n))
	for i, v := range out {
		if sc.local[i] != 0 {
			atomic.AddInt64(&c.scores[v], sc.local[i])
		}
	}
}

// rootMerge counts the k-cliques rooted at u on the merge recursion, with
// one atomic add per node per leaf.
func (c *countCtx) rootMerge(u int32) {
	sc := c.sc
	sc.stack = append(sc.stack[:0], u)
	c.rec(c.k-1, append(sc.level(c.k-1), c.d.Out(u)...))
}

func (c *countCtx) rec(l int, cand []int32) {
	sc := c.sc
	if l == 1 {
		cnt := int64(len(cand))
		if cnt == 0 {
			return
		}
		c.total += uint64(cnt)
		for _, v := range cand {
			atomic.AddInt64(&c.scores[v], 1)
		}
		for _, s := range sc.stack {
			atomic.AddInt64(&c.scores[s], cnt)
		}
		return
	}
	for _, v := range cand {
		if c.d.OutDegree(v) < l-1 {
			continue
		}
		next := intersect(sc.level(l-1), cand, c.d.Out(v))
		if len(next) < l-1 {
			continue
		}
		sc.stack = append(sc.stack, v)
		c.rec(l-1, next)
		sc.stack = sc.stack[:len(sc.stack)-1]
	}
}

// CountSerial counts like Count on a single goroutine without atomics,
// with the merge recursion for every root: the reference the word-packed
// kernel is tested and ablated against.
func CountSerial(d *graph.DAG, k int) (uint64, []int64) {
	n := d.N()
	scores := make([]int64, n)
	if k < 2 || n == 0 {
		return 0, scores
	}
	sc := NewScratch(k, d.G.MaxDegree())
	var total uint64
	var rec func(l int, cand []int32)
	rec = func(l int, cand []int32) {
		if l == 1 {
			cnt := int64(len(cand))
			total += uint64(cnt)
			for _, v := range cand {
				scores[v]++
			}
			for _, s := range sc.stack {
				scores[s] += cnt
			}
			return
		}
		for _, v := range cand {
			if d.OutDegree(v) < l-1 {
				continue
			}
			next := intersect(sc.level(l-1), cand, d.Out(v))
			if len(next) < l-1 {
				continue
			}
			sc.stack = append(sc.stack, v)
			rec(l-1, next)
			sc.stack = sc.stack[:len(sc.stack)-1]
		}
	}
	for u := int32(0); int(u) < n; u++ {
		if d.OutDegree(u) < k-1 {
			continue
		}
		sc.stack = append(sc.stack[:0], u)
		cand := append(sc.level(k-1), d.Out(u)...)
		rec(k-1, cand)
	}
	return total, scores
}

// CountNaive counts by full enumeration, incrementing each member per
// clique (no leaf optimisation). Reference implementation for tests and the
// leaf-count ablation bench.
func CountNaive(d *graph.DAG, k int) (uint64, []int64) {
	scores := make([]int64, d.N())
	var total uint64
	ForEach(d, k, func(c []int32) bool {
		total++
		for _, u := range c {
			scores[u]++
		}
		return true
	})
	return total, scores
}

// CountDAG orients g for Count; per-node counts do not depend on the
// orientation. The degree order's largest out-row is the graph's largest
// degree (the node it ranks last points at every neighbour), so when that
// fits the word-packed kernel every root runs on it and the degeneracy
// peel is skipped. Otherwise the listing order bounds out-rows by the
// degeneracy, which keeps far more roots on the kernel than the degree
// order would on a graph with hubs.
func CountDAG(g *graph.Graph) *graph.DAG {
	if g.MaxDegree() <= wordBits {
		return graph.Orient(g, graph.DegreeOrdering(g))
	}
	return graph.Orient(g, graph.ListingOrdering(g))
}

// ScoreGraph computes node scores for a plain graph: it counts on
// CountDAG(g) and returns the total k-clique count and per-node scores.
func ScoreGraph(g *graph.Graph, k, workers int) (uint64, []int64) {
	return Count(CountDAG(g), k, workers)
}
