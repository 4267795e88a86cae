package dynamic

import "slices"

// InsertEdge applies Algorithm 6 (incremental update). It reports whether
// the edge was new; inserting an existing edge or a self-loop is a no-op.
func (e *Engine) InsertEdge(u, v int32) bool {
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
	e.publish()
	return true
}

// insertOneFree handles the first case of Algorithm 6: exactly one
// endpoint is free. New candidate cliques all contain the edge and are
// owned by the non-free endpoint's clique.
func (e *Engine) insertOneFree(u, v int32, uIsFree bool) {
	fn, bn := u, v // free node, bound node
	if !uIsFree {
		fn, bn = v, u
	}
	owner := e.nodeClique[bn]
	sc := e.esc
	gained := false
	buf := sc.sorted[:e.k]
	e.forEachCliqueWithEdge(fn, bn, owner, func(c []int32) bool {
		copy(buf, c)
		slices.Sort(buf)
		if e.addCandidate(buf, owner) {
			gained = true
		}
		return true
	})
	if gained {
		sc.owners = append(sc.owners[:0], owner)
		e.trySwap(sc.owners)
	}
}

// insertBothFree handles the second case of Algorithm 6: both endpoints
// free. Either the free nodes complete a k-clique, which joins S directly,
// or the edge creates candidate cliques for the owners it touches.
func (e *Engine) insertBothFree(u, v int32) {
	// All new k-cliques contain both u and v, so at most one all-free
	// clique can join S; take the first.
	var direct []int32
	e.forEachCliqueWithEdge(u, v, free, func(c []int32) bool {
		direct = append([]int32(nil), c...)
		return false
	})
	if direct != nil {
		e.addCliqueToS(direct)
		// Algorithm 6 line 11: no TrySwap here — other cliques cannot have
		// gained candidates from nodes becoming non-free.
		return
	}
	// Otherwise index the new candidate cliques through (u, v): cliques
	// whose non-free members all share one owner.
	sc := e.esc
	owners := sc.owners[:0]
	buf := sc.sorted[:e.k]
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
			owners = append(owners, owner)
		}
		return true
	})
	sc.owners = owners
	if len(owners) > 0 {
		slices.Sort(owners)
		owners = slices.Compact(owners)
		sc.owners = owners
		e.trySwap(owners)
	}
}

// DeleteEdge applies Algorithm 7 (decremental update). It reports whether
// the edge existed.
func (e *Engine) DeleteEdge(u, v int32) bool {
	if !e.g.HasEdge(u, v) {
		return false
	}
	cu, cv := e.nodeClique[u], e.nodeClique[v]
	// Candidates containing the edge stop being cliques in every case.
	e.dropCandidatesWithEdge(u, v)
	e.g.DeleteEdge(u, v)
	e.stats.Deletions++
	if cu == free || cu != cv {
		// Second case of Algorithm 7: the edge was not inside an S-clique;
		// dropping its candidates is all that is needed.
		e.publish()
		return true
	}
	e.dissolveAndRepack(cu)
	e.publish()
	return true
}

// dissolveAndRepack handles the split S-clique: remove it, then re-pack
// its former candidates (now all-free cliques, the deleted-edge ones
// already dropped) greedily, and let TrySwap propagate any gains — the
// forced-swap semantics of Algorithm 7 lines 1-4.
func (e *Engine) dissolveAndRepack(cid int32) {
	ids := e.candidateIDsOfOwner(cid)
	lists := make([][]int32, 0, len(ids))
	for _, id := range ids {
		lists = append(lists, append([]int32(nil), e.cands[id].nodes...))
	}
	members := e.removeCliqueFromS(cid)
	before := e.nextClique
	e.stats.Swaps++

	// Re-pack: the captured candidates consist solely of now-free nodes.
	// greedyDisjoint keeps them mutually disjoint; a defensive re-check
	// guards cliquehood and freeness (earlier additions consume nodes).
	newIDs := make([]int32, 0, 2)
	for _, c := range greedyDisjoint(e.esc, lists) {
		allFree := true
		for _, w := range c {
			if e.nodeClique[w] != free {
				allFree = false
				break
			}
		}
		if !allFree || !e.g.IsClique(c) {
			continue
		}
		newIDs = append(newIDs, e.installClique(c))
	}
	for _, id := range newIDs {
		e.indexClique(id)
	}

	// Former members that stayed free may enable candidates of the older
	// cliques. A batch defers that refresh to its end, where every node it
	// freed is refreshed at once (removeCliqueFromS recorded them).
	var q []int32
	if e.batch == nil {
		q = e.refreshAnchored(members, before, false, q)
	}
	for _, id := range newIDs {
		if e.numCandidatesOfOwner(id) >= 2 {
			q = append(q, id)
		}
	}
	if len(q) > 0 {
		e.trySwap(q)
	}
}
