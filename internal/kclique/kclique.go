// Package kclique implements the k-clique machinery the paper's algorithms
// are built on: kClist-style enumeration over an oriented DAG (Danisch,
// Balalau, Sozio, WWW'18 — reference [13] of the paper), per-node k-clique
// counting without storing cliques (the node scores s_n of Definition 5),
// FindOne (the inner procedure of Algorithm 1), and FindMin with the
// score-driven pruning strategy (the inner procedure of Algorithm 3).
//
// All routines work on a graph.DAG oriented so that the out-neighbours of a
// node have strictly smaller rank; every k-clique is then visited exactly
// once, rooted at its maximum-rank member. Count, FindMin and the
// enumeration core run every candidate set that fits in one machine word
// on a word-packed kernel (words.go), and larger ones on the merge
// recursion.
package kclique

import (
	"math"
	"slices"

	"repro/internal/graph"
)

// Scratch holds reusable per-worker buffers for the recursive routines.
// A Scratch may be reused across calls but not shared between goroutines.
type Scratch struct {
	cand  [][]int32 // candidate sets per recursion level
	stack []int32   // current partial clique
	best  []int32   // best clique found by FindMin

	// tieA and tieB hold the sorted member lists FindMinStrict compares
	// on a score tie (lexLess); grown to k on the first tie.
	tieA, tieB []int32

	// mark/epoch stamp one candidate set at a time: mark[v]>>6 == epoch
	// means v is in the current set, and the low six bits hold v's local
	// id in the word-packed kernel (words.go). The stamped first level of
	// sets over wordBits members (see forEachFrom) stamps with local id 0.
	// Sized lazily to the graph's node count on first use.
	mark  []uint32
	epoch uint32

	// Word-packed kernel state for one candidate set of at most wordBits
	// members (words.go).
	ids   [wordBits]int32  // local id -> node id, ascending
	rows  [wordBits]uint64 // rows[i]: ids[i]'s row inside the set
	built uint64           // rows built so far (see buildRows and row)
	local [wordBits]int64  // Count: cliques of the root through ids[i]
	// outs[i] is ids[i]'s out-row, gathered by buildRows's first phase.
	// It aliases a DAG, so PutScratch clears it.
	outs [wordBits][]int32

	// NoStamp forces ForEach, ParallelForEach, ForEachAmong and FindOne
	// onto the merge recursion for every candidate set, turning off both
	// the word-packed kernel and the stamped first level of larger sets.
	// Ablation knob (cmd/experiments -unified=off); the cliques and their
	// order are identical either way. Count and FindMin ignore it.
	NoStamp bool
}

// NewScratch returns scratch space for searches up to depth k in a graph
// whose maximum out-degree is at most maxOut.
func NewScratch(k, maxOut int) *Scratch {
	s := &Scratch{
		cand:  make([][]int32, k+1),
		stack: make([]int32, 0, k),
		best:  make([]int32, 0, k),
	}
	for i := range s.cand {
		s.cand[i] = make([]int32, 0, maxOut)
	}
	return s
}

func (s *Scratch) level(l int) []int32 {
	if l >= len(s.cand) {
		grown := make([][]int32, l+1)
		copy(grown, s.cand)
		s.cand = grown
	}
	return s.cand[l][:0]
}

// beginStamp starts a fresh stamping epoch over a graph of n nodes. The
// epoch wraps before epoch<<6 overflows a mark.
func (s *Scratch) beginStamp(n int) {
	if len(s.mark) < n {
		s.mark = make([]uint32, n)
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == 1<<26 {
		clear(s.mark)
		s.epoch = 1
	}
}

func (s *Scratch) stamp(v int32)        { s.mark[v] = s.epoch << 6 }
func (s *Scratch) stamped(v int32) bool { return s.mark[v]>>6 == s.epoch }

// intersect writes cand ∩ out into dst (both inputs sorted ascending by
// node id) and returns the filled slice. dst must not alias the inputs.
// It delegates to the shared merge-scan primitive so the static and
// dynamic enumerators cannot drift apart.
func intersect(dst, cand, out []int32) []int32 {
	return graph.IntersectSorted(dst, cand, out)
}

// filterValid writes the valid members of src into dst and returns it.
func filterValid(dst, src []int32, valid []bool) []int32 {
	for _, v := range src {
		if valid[v] {
			dst = append(dst, v)
		}
	}
	return dst
}

// ForEach calls fn once for every k-clique of the DAG. The clique slice is
// reused between calls; fn must copy it to retain it. fn returning false
// stops the enumeration. k must be >= 2.
func ForEach(d *graph.DAG, k int, fn func(clique []int32) bool) {
	if k < 2 {
		return
	}
	sc := GetScratch(k, d.G.MaxDegree())
	defer PutScratch(sc)
	n := d.N()
	for u := int32(0); int(u) < n; u++ {
		out := d.Out(u)
		if len(out) < k-1 {
			continue
		}
		sc.stack = append(sc.stack[:0], u)
		if !forEachFrom(d, k-1, out, sc, fn) {
			return
		}
	}
}

// ForEachAmong is the unified enumeration entry point shared by the
// static enumerators above and the dynamic engine's adapters: it calls fn
// once for every clique of the form prefix ∪ X with |X| = l and X drawn
// from cand, under the orientation of the view. cand must be sorted
// ascending, duplicate-free, and closed under the prefix (every member
// adjacent to every prefix node); the enumeration intersects it with the
// view's adjacency only, so all emitted members stay inside cand. The
// clique slice passed to fn is reused between calls (prefix first, then X
// in the view's root-first order); fn must copy it to retain it and may
// return false to stop. Reports whether the enumeration ran to
// completion.
//
// prefix may be empty (enumerate all l-cliques within cand) and l may be
// 0 (emit the prefix itself). The candidate set takes the same path as a
// static root of its size (see forEachFrom), so every substrate shares
// the word-packed kernel and the stamped first level.
func ForEachAmong(v graph.View, prefix []int32, l int, cand []int32, sc *Scratch, fn func(clique []int32) bool) bool {
	sc.stack = append(sc.stack[:0], prefix...)
	if l == 0 {
		return fn(sc.stack)
	}
	return forEachFrom(v, l, cand, sc, fn)
}

// forEachFrom extends sc.stack by l more members drawn from cand.
// Returns false to abort. A set of at most wordBits members runs on the
// word-packed kernel; a larger one stamps its first level into the mark
// array, which turns each member's merge against the whole set into a
// filter scan of the member's row, and runs the merge recursion below
// it. The last level (l == 1) and every set under NoStamp take the merge
// recursion directly. All paths emit the same cliques in the same order.
func forEachFrom(v graph.View, l int, cand []int32, sc *Scratch, fn func([]int32) bool) bool {
	switch {
	case len(cand) < l:
		return true
	case l < 2 || sc.NoStamp:
		return forEachRec(v, v.IdOrdered(), l, cand, sc, fn)
	case len(cand) <= wordBits:
		return forEachWords(v, l, cand, sc, fn)
	default:
		return forEachStamped(v, l, cand, sc, fn)
	}
}

// forEachStamped runs the first recursion level of a candidate set over
// wordBits members with the set stamped into the mark array: the
// candidate set for each member c is the stamped filter of c's adjacency
// — sorted output for free, no merge against the (large) first-level
// set. Deeper levels fall back to forEachRec, whose candidate sets shrink
// fast. Only the first level stamps, so a single epoch per call suffices
// (nested stamping would invalidate the parent's marks mid-loop).
func forEachStamped(v graph.View, l int, cand []int32, sc *Scratch, fn func([]int32) bool) bool {
	idOrd := v.IdOrdered()
	sc.beginStamp(v.N())
	for _, w := range cand {
		sc.stamp(w)
	}
	for i, c := range cand {
		if idOrd && len(cand)-i < l {
			break // successors draw from cand[i+1:] only — too few left
		}
		adj := v.Adj(c)
		if len(adj) < l-1 {
			continue
		}
		next := sc.level(l - 1)
		if idOrd {
			// Id-oriented adjacency rows are unrestricted; the w > c test
			// imposes the orientation the stamped filter would otherwise
			// lose (stamps cover the whole candidate set, before and after
			// c's position).
			for _, w := range adj {
				if w > c && sc.stamped(w) {
					next = append(next, w)
				}
			}
		} else {
			for _, w := range adj {
				if sc.stamped(w) {
					next = append(next, w)
				}
			}
		}
		sc.cand[l-1] = next
		if len(next) < l-1 {
			continue
		}
		sc.stack = append(sc.stack, c)
		ok := forEachRec(v, idOrd, l-1, next, sc, fn)
		sc.stack = sc.stack[:len(sc.stack)-1]
		if !ok {
			return false
		}
	}
	return true
}

// forEachRec enumerates l more nodes from cand. Returns false to abort.
// idOrd is the view's orientation discipline, hoisted out of the
// recursion so it costs one interface call per enumeration, not one per
// node.
func forEachRec(v graph.View, idOrd bool, l int, cand []int32, sc *Scratch, fn func([]int32) bool) bool {
	if l == 1 {
		// Every candidate is adjacent to the whole stack by construction,
		// so each one completes a clique — no intersection needed.
		for _, c := range cand {
			sc.stack = append(sc.stack, c)
			ok := fn(sc.stack)
			sc.stack = sc.stack[:len(sc.stack)-1]
			if !ok {
				return false
			}
		}
		return true
	}
	if len(cand) < l {
		return true
	}
	for i, c := range cand {
		// Successor restriction depends on the orientation discipline. An
		// id-ordered view draws successors from cand[i+1:] — the slice IS
		// the orientation, so the positional break and the shrunken merge
		// are sound and free. An explicitly oriented view (rank order)
		// may continue a clique with ids that precede c in cand, so the
		// full set must be intersected and no positional pruning is
		// possible; there the orientation lives in Adj (the out-row),
		// which guarantees each clique is emitted exactly once, rooted at
		// the member every other one points away from.
		rest := cand
		if idOrd {
			if len(cand)-i < l {
				break // not enough nodes left
			}
			rest = cand[i+1:]
		}
		adj := v.Adj(c)
		if len(adj) < l-1 {
			continue
		}
		next := intersect(sc.level(l-1), rest, adj)
		// Store the (possibly grown) buffer back so substrates without a
		// pre-sized maxOut reach their allocation-free steady state.
		sc.cand[l-1] = next
		if len(next) < l-1 {
			continue
		}
		sc.stack = append(sc.stack, c)
		if !forEachRec(v, idOrd, l-1, next, sc, fn) {
			return false
		}
		sc.stack = sc.stack[:len(sc.stack)-1]
	}
	return true
}

// FindOne searches for a k-clique containing root using only root's valid
// out-neighbours, returning the first one encountered (Algorithm 1's
// FindOne): the first clique ForEach would emit from root under the same
// candidate set, found through the same enumeration core. The result
// includes root and is freshly allocated. valid may be nil, meaning all
// nodes are valid.
func FindOne(d *graph.DAG, k int, root int32, valid []bool, sc *Scratch) ([]int32, bool) {
	if k < 2 {
		return nil, false
	}
	if sc == nil {
		sc = NewScratch(k, d.G.MaxDegree())
	}
	var cand []int32
	if valid == nil {
		cand = append(sc.level(k-1), d.Out(root)...)
	} else {
		cand = filterValid(sc.level(k-1), d.Out(root), valid)
	}
	if len(cand) < k-1 {
		return nil, false
	}
	sc.stack = append(sc.stack[:0], root)
	var out []int32
	forEachFrom(d, k-1, cand, sc, func(c []int32) bool {
		out = append(make([]int32, 0, k), c...)
		return false
	})
	return out, out != nil
}

// FindMin searches the valid out-neighbourhood of root for the k-clique
// (containing root) with minimum clique score s_c = Σ s_n (Algorithm 3's
// FindMin). With prune set, branches whose partial score already reaches
// the best known clique score are cut (the paper's score-driven pruning);
// with prune unset this is the plain exhaustive local search used by the L
// variant. Returns dst with the best clique appended, its clique score,
// and whether any clique was found; dst is returned unchanged when none
// was. A nil dst gets a fresh slice, and a dst with room for k members
// makes the search allocate nothing.
func FindMin(dst []int32, d *graph.DAG, k int, root int32, score []int64, valid []bool, prune bool, sc *Scratch) ([]int32, int64, bool) {
	return findMin(dst, d, k, root, score, valid, prune, false, sc)
}

// FindMinStrict is FindMin under the fixed total clique ordering of
// Theorem 4: score ties are broken by comparing the sorted member lists, so
// the returned clique is unique for a given graph and score vector. Safe to
// combine with pruning because equal-score ties can only materialise at the
// final level (see the prune comment below).
func FindMinStrict(dst []int32, d *graph.DAG, k int, root int32, score []int64, valid []bool, prune bool, sc *Scratch) ([]int32, int64, bool) {
	return findMin(dst, d, k, root, score, valid, prune, true, sc)
}

func findMin(dst []int32, d *graph.DAG, k int, root int32, score []int64, valid []bool, prune, strict bool, sc *Scratch) ([]int32, int64, bool) {
	st, cand, ok := newFindMin(d, k, root, score, valid, prune, strict, sc)
	if !ok {
		return dst, 0, false
	}
	if len(cand) <= wordBits {
		st.sc.loadWords(d.N(), cand)
		if valid == nil {
			// The whole out-row (HeapInit): the prune test rarely stops a
			// top-level member, so nearly every row is read. Filtered sets
			// (Calculation's recomputes) build theirs lazily.
			st.sc.buildRows(d, len(cand))
		}
		st.recWords(k-1, fullWord(len(cand)), score[root])
	} else {
		st.rec(k-1, cand, score[root])
	}
	return st.result(dst)
}

// newFindMin sets up the search rooted at root: the candidate set is
// root's valid out-neighbourhood, ascending by node id. It reports false
// when the set is too small to hold a clique.
func newFindMin(d *graph.DAG, k int, root int32, score []int64, valid []bool, prune, strict bool, sc *Scratch) (findMinState, []int32, bool) {
	if k < 2 {
		return findMinState{}, nil, false
	}
	if sc == nil {
		sc = NewScratch(k, d.G.MaxDegree())
	}
	var cand []int32
	if valid == nil {
		cand = append(sc.level(k-1), d.Out(root)...)
	} else {
		cand = filterValid(sc.level(k-1), d.Out(root), valid)
	}
	if len(cand) < k-1 {
		return findMinState{}, nil, false
	}
	sc.stack = append(sc.stack[:0], root)
	sc.best = sc.best[:0]
	return findMinState{d: d, score: score, prune: prune, strict: strict, bestScore: math.MaxInt64, sc: sc}, cand, true
}

type findMinState struct {
	d         *graph.DAG
	score     []int64
	prune     bool
	strict    bool
	bestScore int64
	sc        *Scratch
}

// result returns dst with the best clique found appended, its score, and
// whether there was one.
func (st *findMinState) result(dst []int32) ([]int32, int64, bool) {
	if len(st.sc.best) == 0 {
		return dst, 0, false
	}
	return append(dst, st.sc.best...), st.bestScore, true
}

// lexLess reports whether clique a precedes clique b in the fixed total
// clique ordering of Theorem 4: their member lists compared in ascending
// order. Neither input is modified; the sorted copies go into the tie
// buffers, so a comparison allocates nothing once they have held k
// members.
func (sc *Scratch) lexLess(a, b []int32) bool {
	sc.tieA = append(sc.tieA[:0], a...)
	sc.tieB = append(sc.tieB[:0], b...)
	slices.Sort(sc.tieA)
	slices.Sort(sc.tieB)
	return slices.Compare(sc.tieA, sc.tieB) < 0
}

// offer considers the completion sc.stack + v, of clique score s, as the
// new best.
func (st *findMinState) offer(v int32, s int64) {
	sc := st.sc
	better := s < st.bestScore
	if !better && st.strict && s == st.bestScore && len(sc.best) > 0 {
		// Fixed total clique ordering: break the score tie by the sorted
		// member lists (Theorem 4).
		sc.stack = append(sc.stack, v)
		better = sc.lexLess(sc.stack, sc.best)
		sc.stack = sc.stack[:len(sc.stack)-1]
	}
	if better {
		st.bestScore = s
		sc.best = append(sc.best[:0], sc.stack...)
		sc.best = append(sc.best, v)
	}
}

// rec extends the partial clique on sc.stack (current score sCur) by l more
// nodes drawn from cand, tracking the minimum-score completion. It is the
// merge-scan recursion for candidate sets over wordBits members, and the
// reference the word-packed recWords is tested against.
func (st *findMinState) rec(l int, cand []int32, sCur int64) {
	sc := st.sc
	if l == 1 {
		for _, v := range cand {
			st.offer(v, sCur+st.score[v])
		}
		return
	}
	for _, v := range cand {
		if st.d.OutDegree(v) < l-1 {
			continue
		}
		if st.prune && sCur+st.score[v] >= st.bestScore {
			// Scores are non-negative, so no completion through v can beat
			// the incumbent (Algorithm 3 lines 19-20 and 27-28). Equal-score
			// ties cannot be lost here even in strict mode: a completion
			// still needs l-1 >= 1 more members, each of which lies in some
			// k-clique and so has score >= 1, pushing the total strictly
			// past the incumbent.
			continue
		}
		next := intersect(sc.level(l-1), cand, st.d.Out(v))
		if len(next) < l-1 {
			continue
		}
		sc.stack = append(sc.stack, v)
		st.rec(l-1, next, sCur+st.score[v])
		sc.stack = sc.stack[:len(sc.stack)-1]
	}
}
