package dynamic

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/kclique"
)

// anyOwner is the forEachCliqueWithEdge filter value meaning "no owner
// restriction": every extra member is allowed regardless of clique status.
const anyOwner int32 = -2

// enumScratch holds the reusable buffers of the engine's enumeration
// adapters: the kclique.Scratch the unified core recurses through, plus
// the engine-specific staging buffers around it. Every update and every
// settle uses the engine-level instance (e.esc), so steady-state updates
// allocate nothing; an index build hands each worker an instance of its
// own for that build only (buildIndex).
type enumScratch struct {
	kc        *kclique.Scratch // unified-core recursion state (stack, levels, marks)
	edge      [2]int32         // prefix buffer for edge-anchored enumeration
	nodes     []int32          // enumeration base: B copy, or N(u) ∩ N(v)
	bbuf      []int32          // freeNeighborhood output
	sorted    []int32          // k-sized buffer for sorting candidate members
	near      nodeBits         // anchoredCandidates: N(w) of the current anchor
	runs      []int32          // missing candidates: (owner, k members) runs
	runRefs   [][]int32        // collectRuns: runs in install order
	owned     []int32          // candidatesOf: the owner's candidates' slots
	swapQ     []int32          // trySwap: the FIFO queue
	swapLists [][]int32        // ownedMembers: member lists for greedyDisjoint
	gdNodes   []int32          // greedyDisjoint: concatenated sorted members / used set
	gdEntries []gdEntry        // greedyDisjoint: selection order
	gdOut     [][]int32        // greedyDisjoint: selected subset (aliases inputs)
}

func newEnumScratch(k int) *enumScratch {
	return &enumScratch{
		kc:     kclique.NewScratch(k, 0),
		sorted: make([]int32, k),
	}
}

// forEachCliqueAmong enumerates every k-clique of the current graph whose
// members all lie in B (need not be sorted; duplicates allowed). fn may
// return false to stop. The callback slice is reused. All buffers come
// from sc, so a steady-state call allocates nothing once the scratch has
// grown to the workload's high-water mark.
//
// This is a thin adapter over the unified core: B becomes the first-level
// candidate set of a ForEachAmong run on the engine's id-oriented view,
// so it shares the word-packed kernel and the stamped first level with
// the static enumerators instead of maintaining a private recursion.
func (e *Engine) forEachCliqueAmong(sc *enumScratch, B []int32, fn func(c []int32) bool) {
	nodes := append(sc.nodes[:0], B...)
	slices.Sort(nodes)
	nodes = slices.Compact(nodes)
	sc.nodes = nodes
	if len(nodes) < e.k {
		return
	}
	kclique.ForEachAmong(e.view, nil, e.k, nodes, sc.kc, fn)
}

// forEachCliqueWithEdge enumerates every k-clique of the current graph that
// contains the edge (u, v). Extra members are restricted by allowedOwner:
// anyOwner admits every node, otherwise only free nodes and members of the
// clique allowedOwner qualify (passing free admits free nodes only). fn may
// return false to stop; the callback slice is reused and holds u, v first.
// Uses the engine-level scratch: single-writer update path only.
//
// Thin adapter over the unified core: (u, v) is the fixed prefix and the
// owner-filtered common neighbourhood the candidate set of a ForEachAmong
// run on the engine's id-oriented view.
func (e *Engine) forEachCliqueWithEdge(u, v int32, allowedOwner int32, fn func(c []int32) bool) {
	if !e.g.HasEdge(u, v) {
		return
	}
	sc := e.esc
	sc.edge[0], sc.edge[1] = u, v
	if e.k == 2 {
		kclique.ForEachAmong(e.view, sc.edge[:], 0, nil, sc.kc, fn)
		return
	}
	// Common neighbourhood of u and v: one merge of the two sorted rows.
	cand := graph.IntersectSorted(sc.nodes[:0], e.g.Neighbors(u), e.g.Neighbors(v))
	sc.nodes = cand
	if allowedOwner != anyOwner {
		w := 0
		for _, x := range cand {
			if id := e.nodeClique[x]; id == free || id == allowedOwner {
				cand[w] = x
				w++
			}
		}
		cand = cand[:w]
	}
	if len(cand) < e.k-2 {
		return
	}
	kclique.ForEachAmong(e.view, sc.edge[:], e.k-2, cand, sc.kc, fn)
}

// freeNeighborhood returns B = C ∪ N_F(C): the clique members plus their
// free neighbours (Algorithm 5 line 2). The result lives in sc.bbuf.
func (e *Engine) freeNeighborhood(sc *enumScratch, members []int32) []int32 {
	B := append(sc.bbuf[:0], members...)
	for _, u := range members {
		for _, w := range e.g.Neighbors(u) {
			if e.nodeClique[w] == free {
				B = append(B, w)
			}
		}
	}
	sc.bbuf = B
	return B
}

// candidatesOf appends to sc.runs every candidate clique Algorithm 5
// assigns to the given S-clique that the index lacks, as one run of k+1
// values: the owner, then the sorted members. Algorithm 5's candidates of
// C are the k-cliques on B = C ∪ N_F(C) other than C itself. S must be
// maximal: an all-free clique on B would be a candidate of nobody, and is
// a bug that panics.
//
// The non-free members of a clique on B are members of C, so an indexed
// candidate equal to one enumerated here is owned by this S-clique (see
// addCandidate). Each enumerated clique is therefore matched against the
// owner's few indexed candidates, gathered once, instead of probing the
// global digest table. Reads only the graph, S, the free status and the
// index (never mutating them) and writes only sc, so concurrent calls
// with distinct scratches are safe as long as no writer mutates them.
func (e *Engine) candidatesOf(sc *enumScratch, id int32) {
	owned := sc.owned[:0]
	for s := e.index.byOwner[id].head; s != 0; s = e.index.own.next[s] {
		owned = append(owned, s)
	}
	sc.owned = owned
	buf := sc.sorted[:e.k]
	e.forEachCliqueAmong(sc, e.freeNeighborhood(sc, e.cliques[id]), func(c []int32) bool {
		copy(buf, c)
		slices.Sort(buf)
		nonFree := 0
		for _, u := range buf {
			if e.nodeClique[u] != free {
				nonFree++
			}
		}
		switch {
		case nonFree == 0:
			panic(fmt.Sprintf("dynamic: all-free clique %v next to clique %d: S is not maximal", buf, id))
		case nonFree < e.k && !e.index.ownsAny(owned, buf):
			// nonFree == k is C itself, the only such clique on B.
			sc.runs = append(append(sc.runs, id), buf...)
		}
		return true
	})
}

// collectRuns gathers, on the engine scratch, the candidates the index
// lacks: those through each anchor (sorted free nodes) for the S-cliques
// older than the open unit (anchoredCandidates), and Algorithm 5's for
// each given owner (candidatesOf, owners ascending). The runs come back
// in install order, sorted by (owner, members); they live in the scratch
// until the next call.
func (e *Engine) collectRuns(anchors, owners []int32) [][]int32 {
	sc := e.esc
	sc.runs = sc.runs[:0]
	for _, w := range anchors {
		e.anchoredCandidates(sc, anchors, w)
	}
	anchored := len(sc.runs)
	for _, id := range owners {
		e.candidatesOf(sc, id)
	}
	// An older owner's runs come from several anchors and need sorting. A
	// whole owner's enumeration already emits its cliques in ascending
	// order of their sorted members, and every given owner is younger
	// than the anchored ones.
	refs := appendRuns(sc.runRefs[:0], sc.runs[:anchored], e.k)
	slices.SortFunc(refs, slices.Compare[[]int32])
	refs = appendRuns(refs, sc.runs[anchored:], e.k)
	sc.runRefs = refs
	return refs
}

// appendRuns appends to refs each k+1-value run of runs, in order.
func appendRuns(refs [][]int32, runs []int32, k int) [][]int32 {
	for off := 0; off < len(runs); off += k + 1 {
		refs = append(refs, runs[off:off+k+1])
	}
	return refs
}

// installRuns indexes runs in the given order and appends to queue every
// owner that gained a candidate and now holds at least two — the swap
// rule of Algorithm 4.
func (e *Engine) installRuns(refs [][]int32, queue []int32) []int32 {
	for i, r := range refs {
		owner := r[0]
		e.addCandidate(r[1:], owner)
		if (i+1 == len(refs) || refs[i+1][0] != owner) && e.numCandidatesOfOwner(owner) >= 2 {
			queue = append(queue, owner)
		}
	}
	return queue
}

// runSpan locates the runs of one owner in a build: sc.runs[lo:hi].
type runSpan struct {
	sc     *enumScratch
	lo, hi int
}

// buildIndex constructs the whole candidate index from the current S —
// Algorithm 5, with the per-clique enumeration running root-parallel
// exactly as its line 1 prescribes. It is the engine's only work on the
// worker pool. Each worker enumerates through a scratch of its own, made
// for this build and dropped with it, since the runs of a whole index
// are far larger than any unit's. S must already be maximal. Candidates
// install in (owner, members) order, so list orders and stats are
// deterministic.
func (e *Engine) buildIndex() {
	ids := make([]int32, 0, len(e.cliques))
	for id := range e.cliques {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	scs := make([]*enumScratch, kclique.Workers(e.workers, len(ids)))
	for i := range scs {
		scs[i] = newEnumScratch(e.k)
		scs[i].kc.NoStamp = e.esc.kc.NoStamp
	}
	spans := make([]runSpan, len(ids))
	kclique.ParallelIndex(len(ids), e.workers, func(worker, i int) {
		sc := scs[worker]
		lo := len(sc.runs)
		e.candidatesOf(sc, ids[i])
		spans[i] = runSpan{sc, lo, len(sc.runs)}
	})
	var refs [][]int32
	for _, sp := range spans {
		refs = appendRuns(refs, sp.sc.runs[sp.lo:sp.hi], e.k)
	}
	e.installRuns(refs, nil)
}

// installClique adds a new S-clique over currently free nodes. Candidates
// containing any of its nodes now span two cliques (their old owner and
// this one) and are dropped. The clique joins the open unit, whose settle
// enumerates its own candidate set (Algorithm 5); so several cliques
// installed by one update all exist before any is enumerated, and no
// enumeration observes a half-applied S.
func (e *Engine) installClique(members []int32) {
	cc := append([]int32(nil), members...)
	slices.Sort(cc)
	id := e.nextClique
	e.nextClique++
	for _, u := range cc {
		e.nodeClique[u] = id
		e.markNodeDirty(u)
	}
	e.cliques[id] = cc
	e.orderInstall(id, cc)
	for _, u := range cc {
		e.dropCandidatesWithNode(u)
	}
	e.unit.installed = append(e.unit.installed, id)
}

// removeCliqueFromS dissolves an S-clique: frees its nodes, drops its
// owned candidates and records the freed nodes in the open unit, whose
// settle refreshes the other cliques' candidate sets through them. A
// dissolve that meets work the unit already deferred (a freed node or an
// installed clique) sets the unit's sweep flag: the clique's candidate
// list may lack cliques through that work, so a repack from it may leave
// an all-free clique behind.
func (e *Engine) removeCliqueFromS(id int32) {
	un := &e.unit
	if len(un.freed) > 0 || len(un.installed) > 0 {
		un.sweep = true
	}
	members := e.cliques[id]
	delete(e.cliques, id)
	for _, u := range members {
		e.nodeClique[u] = free
		e.markNodeDirty(u)
	}
	un.freed = append(un.freed, members...)
	e.orderRemove(id)
	e.dropCandidatesOfOwner(id)
}
