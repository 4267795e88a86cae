package dynamic

import (
	"slices"

	"repro/internal/graph"
)

// InsertEdge applies Algorithm 6 (incremental update) as a unit of one
// op. It reports whether the edge was new; inserting an existing edge or
// a self-loop is a no-op.
func (e *Engine) InsertEdge(u, v int32) bool {
	return e.applyOne(graph.Op{Insert: true, U: u, V: v})
}

// DeleteEdge applies Algorithm 7 (decremental update) as a unit of one
// op. It reports whether the edge existed.
func (e *Engine) DeleteEdge(u, v int32) bool {
	return e.applyOne(graph.Op{U: u, V: v})
}

// update applies the structural part of one op to the open unit and
// reports whether it changed the graph.
func (e *Engine) update(op graph.Op) bool {
	if op.Insert {
		return e.insertEdge(op.U, op.V)
	}
	return e.deleteEdge(op.U, op.V)
}

// insertEdge is the structural part of Algorithm 6.
func (e *Engine) insertEdge(u, v int32) bool {
	if !e.g.InsertEdge(u, v) {
		return false
	}
	e.stats.Insertions++
	uf, vf := e.IsFree(u), e.IsFree(v)
	switch {
	case !uf && !vf:
		// Both endpoints already belong to S-cliques. A clique through the
		// new edge would have non-free members in two different S-cliques
		// (the same clique is impossible — its edges all existed), so no
		// candidate and no swap can arise; nothing to do.
	case uf != vf:
		e.insertOneFree(u, v, uf)
	default:
		e.insertBothFree(u, v)
	}
	return true
}

// insertOneFree handles the first case of Algorithm 6: exactly one
// endpoint is free. New candidate cliques all contain the edge and are
// owned by the non-free endpoint's clique, which is queued for TrySwap
// if it gained any.
func (e *Engine) insertOneFree(u, v int32, uIsFree bool) {
	fn, bn := u, v // free node, bound node
	if !uIsFree {
		fn, bn = v, u
	}
	owner := e.nodeClique[bn]
	gained := false
	buf := e.esc.sorted[:e.k]
	e.forEachCliqueWithEdge(fn, bn, owner, func(c []int32) bool {
		copy(buf, c)
		slices.Sort(buf)
		if e.addCandidate(buf, owner) {
			gained = true
		}
		return true
	})
	if gained {
		e.unit.pending = append(e.unit.pending, owner)
	}
}

// insertBothFree handles the second case of Algorithm 6: both endpoints
// free. Either the free nodes complete a k-clique, which joins S directly,
// or the edge creates candidate cliques for the owners it touches, which
// are queued for TrySwap.
func (e *Engine) insertBothFree(u, v int32) {
	// All new k-cliques contain both u and v, so at most one all-free
	// clique can join S; take the first.
	var direct []int32
	e.forEachCliqueWithEdge(u, v, free, func(c []int32) bool {
		direct = append([]int32(nil), c...)
		return false
	})
	if direct != nil {
		// Algorithm 6 line 11 tries no swap here: other cliques cannot
		// have gained candidates from nodes becoming non-free.
		e.installClique(direct)
		return
	}
	// Otherwise index the new candidate cliques through (u, v): cliques
	// whose non-free members all share one owner.
	buf := e.esc.sorted[:e.k]
	e.forEachCliqueWithEdge(u, v, anyOwner, func(c []int32) bool {
		owner := free
		ok := true
		for _, w := range c {
			if id := e.nodeClique[w]; id != free {
				if owner == free {
					owner = id
				} else if owner != id {
					ok = false
					break
				}
			}
		}
		// owner == free would mean an all-free clique, excluded above.
		if !ok || owner == free {
			return true
		}
		copy(buf, c)
		slices.Sort(buf)
		if e.addCandidate(buf, owner) {
			e.unit.pending = append(e.unit.pending, owner)
		}
		return true
	})
}

// deleteEdge is the structural part of Algorithm 7.
func (e *Engine) deleteEdge(u, v int32) bool {
	if !e.g.HasEdge(u, v) {
		return false
	}
	cu, cv := e.nodeClique[u], e.nodeClique[v]
	// Candidates containing the edge stop being cliques in every case.
	e.dropCandidatesWithEdge(u, v)
	e.g.DeleteEdge(u, v)
	e.stats.Deletions++
	// Second case of Algorithm 7: an edge outside every S-clique needs
	// nothing beyond the drop above.
	if cu != free && cu == cv {
		e.dissolveAndRepack(cu)
	}
	return true
}

// dissolveAndRepack handles the split S-clique: remove it, then re-pack
// its former candidates (now all-free cliques, the deleted-edge ones
// already dropped) greedily — the forced swap of Algorithm 7 lines 1-4.
// The unit's settle enumerates the repacked cliques, refreshes the older
// ones through the members left free and lets TrySwap propagate any gains.
func (e *Engine) dissolveAndRepack(cid int32) {
	// The selection aliases the clique's candidates, which stay readable
	// after removeCliqueFromS drops them.
	repack := greedyDisjoint(e.esc, e.ownedMembers(cid))
	e.removeCliqueFromS(cid)
	e.stats.Swaps++
	for _, c := range repack {
		// A defensive re-check of freeness and cliquehood: greedyDisjoint
		// keeps the selection disjoint, and the index holds only cliques.
		allFree := true
		for _, w := range c {
			if e.nodeClique[w] != free {
				allFree = false
				break
			}
		}
		if allFree && e.g.IsClique(c) {
			e.installClique(c)
		}
	}
}
