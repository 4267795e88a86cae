package dynamic

import (
	"slices"

	"repro/internal/graph"
	"repro/internal/kclique"
)

// Anchored candidate refresh. When an update frees nodes, the S-cliques
// that existed before it can gain candidates only through those nodes:
// every other way a candidate appears (an inserted edge) is indexed
// eagerly by insertOneFree/insertBothFree, and every way one disappears
// (an edge deletion, a free member joining S, its owner dissolving) drops
// it eagerly. So no owner adjacent to a freed node needs Algorithm 5's
// enumeration over B = C ∪ N_F(C); the engine enumerates only the
// cliques through the freed nodes that are still free (the anchors):
// for every anchor w and every bound neighbour d of w, the k-cliques
// through the edge (w, d) whose other members are free or in d's clique —
// exactly the cliques insertOneFree enumerates for an inserted
// (free, bound) edge.
//
// Results are installed in (owner, sorted members) order. A whole-owner
// rebuild in ascending owner order assigns ids in that same order, since
// the id-ordered enumeration emits an owner's cliques in ascending
// lexicographic order of their sorted members, so candidate ids, swap
// tie-breaks and checkpoints do not depend on which refresh ran or on the
// worker count.

// nodeBits is a set of node ids, one bit each. It is kept apart from
// kclique.Scratch's mark, which the enumeration kernel re-stamps for
// every candidate set it loads.
type nodeBits []uint64

// fit grows the set to hold n nodes (AddNode grows the graph between
// calls).
func (b *nodeBits) fit(n int) {
	if words := (n + 63) >> 6; len(*b) < words {
		*b = append(*b, make([]uint64, words-len(*b))...)
	}
}

func (b nodeBits) add(u int32)      { b[u>>6] |= 1 << (u & 63) }
func (b nodeBits) remove(u int32)   { b[u>>6] &^= 1 << (u & 63) }
func (b nodeBits) has(u int32) bool { return b[u>>6]&(1<<(u&63)) != 0 }

// anchoredCandidates appends to sc.runs every candidate through anchor w
// that the index lacks and whose owner is older than before, as one run
// of k+1 values: the owner, then the sorted members. anchors is the
// sorted anchor list. A clique is reported once, from its smallest anchor
// and through its smallest member in the owner, by leaving smaller
// anchors and smaller owner members out of the candidate sets. The cost
// is linear in deg(w) plus the degrees of w's bound neighbours (a binary
// search over anchors aside): N(w) is marked once and each bound
// neighbour's row is filtered against the mark, never merged with N(w).
//
// Reads only the graph, S, the free status and the index, and writes
// only sc, so concurrent calls with distinct scratches are safe as long
// as no writer mutates them.
func (e *Engine) anchoredCandidates(sc *enumScratch, anchors []int32, w int32, before int32) {
	nw := e.g.Neighbors(w)
	sc.near.fit(e.g.N())
	for _, x := range nw {
		sc.near.add(x)
	}
	buf := sc.sorted[:e.k]
	for _, d := range nw {
		owner := e.nodeClique[d]
		if owner == free || owner >= before {
			continue
		}
		cand := sc.nodes[:0]
		for _, x := range e.g.Neighbors(d) {
			if !sc.near.has(x) {
				continue
			}
			switch id := e.nodeClique[x]; {
			case id == free:
				if x < w && graph.SortedContains(anchors, x) {
					continue
				}
			case id != owner || x < d:
				continue
			}
			cand = append(cand, x)
		}
		sc.nodes = cand
		if len(cand) < e.k-2 {
			continue
		}
		sc.edge[0], sc.edge[1] = w, d
		kclique.ForEachAmong(e.view, sc.edge[:], e.k-2, cand, sc.kc, func(c []int32) bool {
			copy(buf, c)
			slices.Sort(buf)
			if _, ok := e.candDedup.lookup(buf, hashNodes(buf)); !ok {
				sc.runs = append(append(sc.runs, owner), buf...)
			}
			return true
		})
	}
	for _, x := range nw {
		sc.near.remove(x)
	}
}

// collectAnchored gathers the runs of anchoredCandidates for every anchor
// (free nodes, sorted ascending) and owners older than before, and
// returns them in install order: sorted by (owner, members). The batch
// path enumerates in parallel over anchors on the worker scratches; the
// serial path runs on the engine scratch, so single-op updates allocate
// no buffers. The result lives in the engine scratch.
func (e *Engine) collectAnchored(anchors []int32, before int32, parallel bool) [][]int32 {
	e.esc.runs = e.esc.runs[:0]
	if parallel {
		e.growWorkerScratches(len(anchors))
		for _, sc := range e.wsc {
			sc.runs = sc.runs[:0]
		}
		kclique.ParallelIndex(len(anchors), e.workers, func(worker, i int) {
			e.anchoredCandidates(e.wsc[worker], anchors, anchors[i], before)
		})
		for _, sc := range e.wsc {
			e.esc.runs = append(e.esc.runs, sc.runs...)
		}
	} else {
		for _, w := range anchors {
			e.anchoredCandidates(e.esc, anchors, w, before)
		}
	}
	runs := e.esc.runs
	refs := e.esc.runRefs[:0]
	for off := 0; off < len(runs); off += e.k + 1 {
		refs = append(refs, runs[off:off+e.k+1])
	}
	slices.SortFunc(refs, slices.Compare[[]int32])
	e.esc.runRefs = refs
	return refs
}

// installAnchored indexes runs in the given order and appends to queue,
// ascending, every owner that gained a candidate and now holds at least
// two — the swap rule of Algorithm 4.
func (e *Engine) installAnchored(refs [][]int32, queue []int32) []int32 {
	for i, r := range refs {
		owner := r[0]
		e.addCandidate(r[1:], owner)
		if (i+1 == len(refs) || refs[i+1][0] != owner) && e.numCandidatesOfOwner(owner) >= 2 {
			queue = append(queue, owner)
		}
	}
	return queue
}

// refreshAnchored brings the candidate sets of S-cliques older than
// before up to date after the given nodes (sorted) were freed, and
// returns queue extended with the owners to try swapping. The freed nodes
// that are still free are the anchors; the others joined S again, and
// the cliques they joined are enumerated in full.
func (e *Engine) refreshAnchored(freed []int32, before int32, parallel bool, queue []int32) []int32 {
	anchors := e.esc.anchors[:0]
	for _, u := range freed {
		if e.nodeClique[u] == free {
			anchors = append(anchors, u)
		}
	}
	e.esc.anchors = anchors
	if len(anchors) == 0 {
		return queue
	}
	return e.installAnchored(e.collectAnchored(anchors, before, parallel), queue)
}
