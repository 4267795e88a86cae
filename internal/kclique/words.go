package kclique

import (
	"math/bits"

	"repro/internal/graph"
)

// The word-packed kernel runs Count, FindMin and the enumeration core
// (ForEach, ParallelForEach, ForEachAmong) on every candidate set of at
// most wordBits members, which on the sparse social graphs the paper
// targets is nearly every static root and every dynamic candidate
// rebuild. The set is relabelled to local ids 0..m-1 in ascending node-id
// order, so iterating a mask from its lowest bit visits candidates in the
// same order as the merge recursion, and each member's row inside the set
// becomes one uint64. Intersections become AND, candidate-set sizes
// popcount, and member loops trailing-zero scans (Yuan et al., ICDE'22,
// apply the same local bitmap idea to k-clique listing). Larger sets keep
// the merge recursion.

// wordBits is the largest candidate set the word-packed kernel takes: one
// local out-row per machine word.
const wordBits = 64

// fullWord returns the mask of local ids 0..m-1.
func fullWord(m int) uint64 { return ^uint64(0) >> (wordBits - m) }

// loadWords relabels cand (ascending node ids, at most wordBits members)
// to local ids and stamps each member with its local id. No row is built
// yet.
func (sc *Scratch) loadWords(n int, cand []int32) {
	sc.beginStamp(n)
	for i, v := range cand {
		sc.ids[i] = v
		sc.mark[v] = sc.epoch<<6 | uint32(i)
	}
	sc.built = 0
}

// buildRows builds the out-row inside the loaded set of each of its m
// members, for a caller that reads every row. It runs in two phases:
// first it gathers every member's out-row from the DAG, then it scans
// each gathered row against the stamps. Built one at a time, each row is
// one chain of dependent loads (offsets, out-row, stamps) that the next
// row waits for; gathered first, the loads that start the rows are in
// flight together.
func (sc *Scratch) buildRows(d *graph.DAG, m int) {
	outs := sc.outs[:m]
	for i := range outs {
		outs[i] = d.Out(sc.ids[i])
	}
	mark, epoch := sc.mark, sc.epoch
	for i, out := range outs {
		var r uint64
		for _, w := range out {
			r |= memberBit(mark, epoch, w)
		}
		sc.rows[i] = r
	}
	sc.built = fullWord(m)
}

// row returns local member i's out-row inside the loaded set, building it
// from the DAG on first use.
func (sc *Scratch) row(d *graph.DAG, i int) uint64 {
	if sc.built&(1<<i) == 0 {
		var r uint64
		mark, epoch := sc.mark, sc.epoch
		for _, w := range d.Out(sc.ids[i]) {
			r |= memberBit(mark, epoch, w)
		}
		sc.rows[i] = r
		sc.built |= 1 << i
	}
	return sc.rows[i]
}

// memberBit returns w's bit in the loaded set, or 0 when w is not a
// member. Branch-free: whether w is a member is unpredictable.
func memberBit(mark []uint32, epoch uint32, w int32) uint64 {
	m := mark[w]
	var in uint64
	if m>>6 == epoch {
		in = 1
	}
	return in << (m & 63)
}

// countWords returns how many cliques complete the current partial
// clique with l more members drawn from cand, and adds to sc.local[i],
// for each member i drawn at this level or below, the number of those
// cliques that contain it. Every row of the loaded set must be built.
func (sc *Scratch) countWords(l int, cand uint64) uint64 {
	if l == 1 {
		for c := cand; c != 0; c &= c - 1 {
			sc.local[bits.TrailingZeros64(c)]++
		}
		return uint64(bits.OnesCount64(cand))
	}
	var total uint64
	for c := cand; c != 0; c &= c - 1 {
		i := bits.TrailingZeros64(c)
		next := cand & sc.rows[i]
		if bits.OnesCount64(next) < l-1 {
			continue
		}
		n := sc.countWords(l-1, next)
		sc.local[i] += int64(n)
		total += n
	}
	return total
}

// recWords is rec on the loaded set: the same visit order, prune test and
// tie rules, with cand a mask of local ids. Rows buildRows has not built
// are built only for the members the prune test lets through.
func (st *findMinState) recWords(l int, cand uint64, sCur int64) {
	sc := st.sc
	if l == 1 {
		for c := cand; c != 0; c &= c - 1 {
			v := sc.ids[bits.TrailingZeros64(c)]
			st.offer(v, sCur+st.score[v])
		}
		return
	}
	for c := cand; c != 0; c &= c - 1 {
		i := bits.TrailingZeros64(c)
		v := sc.ids[i]
		if st.prune && sCur+st.score[v] >= st.bestScore {
			continue // see rec
		}
		next := cand & sc.row(st.d, i)
		if bits.OnesCount64(next) < l-1 {
			continue
		}
		sc.stack = append(sc.stack, v)
		st.recWords(l-1, next, sCur+st.score[v])
		sc.stack = sc.stack[:len(sc.stack)-1]
	}
}

// wordWalk enumerates the cliques of one loaded candidate set of an
// adjacency view: forEachRec on the word-packed kernel, with the same
// emission order, so candidate list orders and swap tie-breaks downstream
// do not depend on which path ran.
type wordWalk struct {
	v     graph.View
	idOrd bool
	last  int32 // largest member id: row scans stop past it
	sc    *Scratch
}

// forEachWords extends sc.stack by l >= 2 more members drawn from cand
// (ascending, at most wordBits members) on the word-packed kernel.
// Returns false to abort.
func forEachWords(v graph.View, l int, cand []int32, sc *Scratch, fn func([]int32) bool) bool {
	sc.loadWords(v.N(), cand)
	w := wordWalk{v: v, idOrd: v.IdOrdered(), last: cand[len(cand)-1], sc: sc}
	return w.rec(l, fullWord(len(cand)), fn)
}

// row returns local member i's row inside the loaded set, building it
// from the view on first use. Adj rows are sorted by node id, so the scan
// stops past the set's largest id; on an id-ordered view the row keeps
// only the members above i, the orientation forEachRec derives from
// positions.
func (w *wordWalk) row(i int) uint64 {
	sc := w.sc
	if sc.built&(1<<i) == 0 {
		var r uint64
		mark, epoch, last := sc.mark, sc.epoch, w.last
		for _, x := range w.v.Adj(sc.ids[i]) {
			if x > last {
				break
			}
			r |= memberBit(mark, epoch, x)
		}
		if w.idOrd {
			r &= ^uint64(0) << (i + 1)
		}
		sc.rows[i] = r
		sc.built |= 1 << i
	}
	return sc.rows[i]
}

// rec extends sc.stack by l more members drawn from cand, a mask of local
// ids. Returns false to abort. fn is a parameter, not a field, so that
// the view's dynamic Adj call, which leaks w's contents, does not make
// the caller's closure escape.
func (w *wordWalk) rec(l int, cand uint64, fn func([]int32) bool) bool {
	sc := w.sc
	if l == 1 {
		for c := cand; c != 0; c &= c - 1 {
			sc.stack = append(sc.stack, sc.ids[bits.TrailingZeros64(c)])
			ok := fn(sc.stack)
			sc.stack = sc.stack[:len(sc.stack)-1]
			if !ok {
				return false
			}
		}
		return true
	}
	for c := cand; c != 0; c &= c - 1 {
		// c holds i and the members of cand above it. On an id-ordered
		// view successors come from above i only, so once fewer than l-1
		// remain no later member can start a clique either.
		if w.idOrd && bits.OnesCount64(c) < l {
			break
		}
		i := bits.TrailingZeros64(c)
		next := cand & w.row(i)
		if bits.OnesCount64(next) < l-1 {
			continue
		}
		sc.stack = append(sc.stack, sc.ids[i])
		ok := w.rec(l-1, next, fn)
		sc.stack = sc.stack[:len(sc.stack)-1]
		if !ok {
			return false
		}
	}
	return true
}
