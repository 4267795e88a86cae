package core

import (
	"time"

	"repro/internal/graph"
	"repro/internal/kclique"
)

// heapEntry is a clique held in the global min-heap of Algorithm 3: the
// local-minimum-score clique found in some root's out-neighbourhood.
// Members are kept sorted ascending so the strict tie-break comparator
// needs no per-comparison sort or copy; the root (the maximum-ordering
// member, needed for lazy recomputation) is carried separately.
type heapEntry struct {
	clique []int32 // sorted ascending
	root   int32   // maximum-ordering member, Algorithm 3's heap key owner
	score  int64
	seq    int64 // discovery sequence, the default tie-break
}

// cliqueHeap is a binary min-heap of entries ordered by (score,
// tie-break). Its typed sift methods stand in for container/heap, whose
// Push and Pop box every entry in an interface. Both tie-breaks make the
// order strict and total (seq is unique; under StrictTies each root holds
// at most one entry and a clique is found only from its own root, so no
// two entries share a member list), so the pop sequence is the same as
// any other correct heap's.
type cliqueHeap struct {
	entries []heapEntry
	strict  bool
}

func (h *cliqueHeap) less(i, j int) bool {
	a, b := &h.entries[i], &h.entries[j]
	if a.score != b.score {
		return a.score < b.score
	}
	if h.strict {
		return cliqueLexLess(a.clique, b.clique)
	}
	return a.seq < b.seq
}

func (h *cliqueHeap) swap(i, j int) { h.entries[i], h.entries[j] = h.entries[j], h.entries[i] }

// init establishes the heap order over entries.
func (h *cliqueHeap) init() {
	n := len(h.entries)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

func (h *cliqueHeap) push(e heapEntry) {
	h.entries = append(h.entries, e)
	h.up(len(h.entries) - 1)
}

// pop removes and returns the minimum entry; the heap must not be empty.
func (h *cliqueHeap) pop() heapEntry {
	n := len(h.entries) - 1
	h.swap(0, n)
	h.down(0, n)
	e := h.entries[n]
	h.entries = h.entries[:n]
	return e
}

func (h *cliqueHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		j = i
	}
}

// down sifts entry i toward the leaves of the heap's first n entries.
func (h *cliqueHeap) down(i, n int) {
	for {
		j := 2*i + 1 // left child
		if j >= n {
			return
		}
		if r := j + 1; r < n && h.less(r, j) {
			j = r
		}
		if !h.less(j, i) {
			return
		}
		h.swap(i, j)
		i = j
	}
}

// runLightweight is Algorithm 3 (the L and LP competitors): compute node
// scores without storing cliques, orient the graph by ascending score,
// seed a min-heap with each root's local minimum-score clique (HeapInit,
// done root-parallel), then repeatedly commit the global minimum, lazily
// recomputing a root's local minimum when its cached clique has been
// invalidated (Calculation). prune selects the score-driven pruning
// strategy inside FindMin — the only difference between L and LP.
func runLightweight(g *graph.Graph, opt *Options, prune bool) ([][]int32, uint64, error) {
	k := opt.K
	deadline := opt.deadline()
	n := g.N()

	// Line 2: node scores from the counting pass (memory O(n+m)).
	countDAG := graph.Orient(g, graph.ListingOrdering(g))
	total, scores, err := kclique.CountWithDeadline(countDAG, k, opt.Workers, deadline)
	if err != nil {
		return nil, total, ErrOOT
	}

	// Lines 3-4: ascending-score total ordering and its DAG.
	ord := graph.ScoreOrdering(g, scores)
	d := graph.Orient(g, ord)

	findMin := kclique.FindMin
	if opt.StrictTies {
		findMin = kclique.FindMinStrict
	}

	// HeapInit (lines 10-14): one local minimum per root, root-parallel on
	// the kclique worker pool. Results land in a per-root slot, so the heap
	// seeded below is identical for every worker count: sequence numbers are
	// assigned serially in root order afterwards.
	maxDeg := g.MaxDegree()
	type found struct {
		clique []int32
		score  int64
	}
	local := make([]found, n)
	kclique.ParallelRoots(d, k, opt.Workers, func(_ int, u int32, sc *kclique.Scratch) bool {
		if c, s, ok := findMin(d, k, u, scores, nil, prune, sc); ok {
			sortClique(c)
			local[u] = found{clique: c, score: s}
		}
		return true
	})

	h := &cliqueHeap{strict: opt.StrictTies}
	var seq int64
	for u := int32(0); int(u) < n; u++ {
		if local[u].clique != nil {
			h.entries = append(h.entries, heapEntry{clique: local[u].clique, root: u, score: local[u].score, seq: seq})
			seq++
		}
	}
	h.init()

	// Calculation (lines 31-39).
	valid := make([]bool, n)
	for i := range valid {
		valid[i] = true
	}
	sc := kclique.GetScratch(k, maxDeg)
	defer kclique.PutScratch(sc)
	var out [][]int32
	pops := 0
	for len(h.entries) > 0 {
		pops++
		if !deadline.IsZero() && pops&1023 == 0 && time.Now().After(deadline) {
			return nil, total, ErrOOT
		}
		e := h.pop()
		ok := true
		for _, v := range e.clique {
			if !valid[v] {
				ok = false
				break
			}
		}
		if ok {
			for _, v := range e.clique {
				valid[v] = false
			}
			out = append(out, e.clique)
			continue
		}
		// Stale entry: if the root is still free, recompute its local
		// minimum over the shrunken valid out-neighbourhood and re-push.
		root := e.root
		if !valid[root] || d.OutDegree(root) < k-1 {
			continue
		}
		if c, s, found := findMin(d, k, root, scores, valid, prune, sc); found {
			sortClique(c)
			h.push(heapEntry{clique: c, root: root, score: s, seq: seq})
			seq++
		}
	}
	return out, total, nil
}
