package dynamic

import (
	"slices"

	"repro/internal/graph"
	"repro/internal/kclique"
)

// Anchored candidate refresh. When a unit frees nodes, the S-cliques
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
// The runs install in (owner, sorted members) order (collectRuns), the
// order in which the id-ordered enumeration emits a whole owner's
// cliques, so each owner's candidates keep the relative id order a
// whole-owner rebuild would give them, and the index does not depend on
// which refresh ran or on the worker count. S would not either way: swap
// ties break by member list.

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
// that the index lacks and whose owner is older than the open unit, as
// one run of k+1 values: the owner, then the sorted members. anchors is the
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
func (e *Engine) anchoredCandidates(sc *enumScratch, anchors []int32, w int32) {
	nw := e.g.Neighbors(w)
	sc.near.fit(e.g.N())
	for _, x := range nw {
		sc.near.add(x)
	}
	buf := sc.sorted[:e.k]
	for _, d := range nw {
		owner := e.nodeClique[d]
		if owner == free || owner >= e.unit.before {
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
			if e.index.lookup(buf, hashNodes(buf)) == 0 {
				sc.runs = append(append(sc.runs, owner), buf...)
			}
			return true
		})
	}
	for _, x := range nw {
		sc.near.remove(x)
	}
}
