package core

import (
	"fmt"
	"math/bits"
	"slices"
	"time"

	"repro/internal/graph"
	"repro/internal/kclique"
)

// cliqueQueue is Calculation's priority queue: a monotone radix heap
// (Ahuja, Mehlhorn, Orlin and Tarjan, JACM 1990) on clique score that pops
// roots in (score, tie-break) order. Each root has at most one entry, its
// slot in the slab. The buckets hold (score, root) pairs, and a re-push
// overwrites the slot of the stale entry popped just before it.
//
// The queue is monotone: no push is below the last popped score. Calculation
// re-pushes root r only right after popping r's stale entry, and the new
// entry minimises over r's current valid out-neighbourhood, a subset of
// the one the old entry minimised over, so s_new >= s_old >= every earlier
// pop. On an equal score the new tie key is larger as well. By default ties
// go to the earlier push, and the new entry is the latest. Under
// StrictTies ties go to the lexicographically least member list, and the
// old clique was the least one of its score in the larger neighbourhood;
// the new one differs from it, because the new one is all-valid.
type cliqueQueue struct {
	// The slab holds each root's queued or last popped local minimum, the
	// result of Algorithm 3's FindMin over the root's valid
	// out-neighbourhood: root r's members, sorted ascending, are
	// members[r*k : r*k+k] (see clique), and score[r] is its clique score.
	// score[r] == 0 marks a root without one: each member of a clique lies
	// in it, so a clique's score is at least k. Pointer-free, so the GC
	// never scans it.
	k       int
	members []int32
	score   []int64
	strict  bool
	// last is the score of the current run: every queued score is >= last.
	// Scores are sums of k-clique counts, so last starts at 0. buckets[b],
	// b >= 1, holds the scores whose highest bit differing from last is
	// bit b-1; buckets[0][head:] is the rest of the run at last.
	last    int64
	head    int
	buckets [64][]queueItem
}

// newCliqueQueue returns an empty queue with a slab for n roots and
// cliques of k members.
func newCliqueQueue(n, k int, strict bool) *cliqueQueue {
	return &cliqueQueue{k: k, members: make([]int32, n*k), score: make([]int64, n), strict: strict}
}

// clique returns root's slot in the slab: k members, capacity k.
func (q *cliqueQueue) clique(root int32) []int32 {
	i := int(root) * q.k
	return q.members[i : i+q.k : i+q.k]
}

type queueItem struct {
	score int64
	root  int32
}

// push queues root's local minimum, its slot in the slab. Buckets fill in
// push order and keep it, so by default the run pops first in, first out.
// Under StrictTies a push to the current run goes to its ordered place in
// the part not yet popped.
func (q *cliqueQueue) push(root int32) {
	it := queueItem{score: q.score[root], root: root}
	if it.score < q.last {
		panic(fmt.Sprintf("core: clique queue push of score %d below the last popped score %d", it.score, q.last))
	}
	b := bits.Len64(uint64(it.score ^ q.last))
	if b == 0 && q.strict {
		i, _ := slices.BinarySearchFunc(q.buckets[0][q.head:], it, q.lexCompare)
		q.buckets[0] = slices.Insert(q.buckets[0], q.head+i, it)
		return
	}
	q.buckets[b] = append(q.buckets[b], it)
}

// pop removes the first entry in (score, tie-break) order and returns its
// root, or false when the queue is empty.
func (q *cliqueQueue) pop() (int32, bool) {
	if q.head == len(q.buckets[0]) && !q.nextRun() {
		return 0, false
	}
	q.head++
	return q.buckets[0][q.head-1].root, true
}

// nextRun forms the run at the least queued score: the lowest non-empty
// bucket holds it, so last moves to it and that bucket's entries move
// down, the ones at last into buckets[0]. Under StrictTies the run is
// then sorted by member list.
func (q *cliqueQueue) nextRun() bool {
	b := 1
	for b < len(q.buckets) && len(q.buckets[b]) == 0 {
		b++
	}
	if b == len(q.buckets) {
		return false
	}
	src := q.buckets[b]
	q.last = src[0].score
	for _, it := range src[1:] {
		q.last = min(q.last, it.score)
	}
	q.buckets[0], q.head = q.buckets[0][:0], 0
	for _, it := range src {
		i := bits.Len64(uint64(it.score ^ q.last))
		q.buckets[i] = append(q.buckets[i], it)
	}
	q.buckets[b] = src[:0]
	if q.strict {
		slices.SortFunc(q.buckets[0], q.lexCompare)
	}
	return true
}

// lexCompare orders two entries of one run by their member lists, the
// StrictTies tie-break.
func (q *cliqueQueue) lexCompare(a, b queueItem) int {
	return slices.Compare(q.clique(a.root), q.clique(b.root))
}

// runLightweight is Algorithm 3 (the L and LP competitors): compute node
// scores without storing cliques, orient the graph by ascending score,
// queue each root's local minimum-score clique (HeapInit, done
// root-parallel), then repeatedly commit the global minimum, lazily
// recomputing a root's local minimum when its cached clique has been
// invalidated (Calculation). prune selects the score-driven pruning
// strategy inside FindMin — the only difference between L and LP.
func runLightweight(g *graph.Graph, opt *Options, prune bool) ([][]int32, uint64, error) {
	k := opt.K
	deadline := opt.deadline()
	n := g.N()

	// Line 2: node scores from the counting pass (memory O(n+m)).
	total, scores, err := kclique.CountWithDeadline(kclique.CountDAG(g), k, opt.Workers, deadline)
	if err != nil {
		return nil, total, ErrOOT
	}

	// Lines 3-4: ascending-score total ordering and its DAG.
	ord := graph.ScoreOrdering(g, scores)
	d := graph.Orient(g, ord)

	q := newCliqueQueue(n, k, opt.StrictTies)
	if !q.heapInit(d, scores, prune, opt.Workers, deadline) {
		return nil, total, ErrOOT
	}

	// Calculation (lines 31-39).
	valid := make([]bool, n)
	for i := range valid {
		valid[i] = true
	}
	sc := kclique.GetScratch(k, g.MaxDegree())
	defer kclique.PutScratch(sc)
	var picked []int32 // the roots whose cliques were committed, in order
	for pops := 1; ; pops++ {
		if !deadline.IsZero() && pops&1023 == 0 && time.Now().After(deadline) {
			return nil, total, ErrOOT
		}
		root, queued := q.pop()
		if !queued {
			break
		}
		clique := q.clique(root)
		ok := true
		for _, v := range clique {
			if !valid[v] {
				ok = false
				break
			}
		}
		if ok {
			for _, v := range clique {
				valid[v] = false
			}
			picked = append(picked, root)
			continue
		}
		// Stale entry: if the root is still free, recompute its local
		// minimum over the shrunken valid out-neighbourhood and re-push.
		if valid[root] && d.OutDegree(root) >= k-1 && q.findMin(d, root, scores, valid, prune, sc) {
			q.push(root)
		}
	}

	// A committed root lies in its own clique, so its slot is never
	// rewritten. The result gets an array of its own: cut from the slab, it
	// would keep all n·k members alive.
	flat := make([]int32, len(picked)*k)
	out := make([][]int32, len(picked))
	for i, root := range picked {
		out[i] = flat[i*k : i*k+k : i*k+k]
		copy(out[i], q.clique(root))
	}
	return out, total, nil
}

// heapInit is HeapInit (lines 10-14): every root's local minimum goes to
// its slot, root-parallel on the kclique worker pool, and the roots that
// have one are then queued serially in root order, so the queue is
// identical for every worker count. As in the count, each worker checks
// a non-zero deadline every 64 roots; heapInit reports false, with
// nothing queued, when it elapsed.
func (q *cliqueQueue) heapInit(d *graph.DAG, scores []int64, prune bool, workers int, deadline time.Time) bool {
	done := kclique.ParallelRoots(d, q.k, workers, deadline, func(_ int, u int32, sc *kclique.Scratch) bool {
		q.findMin(d, u, scores, nil, prune, sc)
		return true
	})
	if !done {
		return false
	}
	for u, s := range q.score {
		if s != 0 {
			q.push(int32(u))
		}
	}
	return true
}

// findMin runs Algorithm 3's FindMin for root over its valid
// out-neighbourhood (nil: all of it), with the queue's tie-break, and
// writes the clique, sorted, and its score into root's slot. It reports
// whether root has a clique; the slot is unchanged when it has none.
func (q *cliqueQueue) findMin(d *graph.DAG, root int32, scores []int64, valid []bool, prune bool, sc *kclique.Scratch) bool {
	find := kclique.FindMin
	if q.strict {
		find = kclique.FindMinStrict
	}
	c, s, ok := find(q.clique(root)[:0], d, q.k, root, scores, valid, prune, sc)
	if ok {
		sortClique(c)
		q.score[root] = s
	}
	return ok
}
