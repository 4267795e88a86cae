package dynamic

import (
	"cmp"
	"slices"

	"repro/internal/graph"
)

// gdEntry is a (clique index, local score) pair of greedyDisjoint's
// selection order; the slice lives in enumScratch so repeated swap checks
// reuse it.
type gdEntry struct {
	idx   int
	score int64
}

// greedyDisjoint selects a maximal disjoint subset of the given cliques in
// ascending clique-score order — Algorithm 2 applied to a candidate set
// (Algorithm 4 line 4). Node scores are computed locally over the set
// (the number of given cliques containing each node), which preserves the
// minimum-conflict-first heuristic without a global recount. Score ties
// break by member list, so the selection depends only on the set of
// cliques, never on their order in the input. The returned
// cliques alias the input slices and the returned slice itself lives in
// sc; callers copy what they retain (installClique already does) and must
// consume the result before the next greedyDisjoint call on the same
// scratch.
//
// Candidate sets are tiny (a handful of k-sized cliques), so multiplicity
// counting runs over one sorted scratch slice and the used-node set is a
// linearly scanned slice — the map-based version spent more time hashing
// than selecting on churn profiles, and with every buffer drawn from sc
// the common no-swap-possible queue pop allocates nothing.
func greedyDisjoint(sc *enumScratch, cliques [][]int32) [][]int32 {
	if len(cliques) == 0 {
		return nil
	}
	all := sc.gdNodes[:0]
	for _, c := range cliques {
		all = append(all, c...)
	}
	slices.Sort(all)
	sc.gdNodes = all
	multiplicity := func(u int32) int64 {
		i := graph.LowerBound(all, u)
		j := i
		for j < len(all) && all[j] == u {
			j++
		}
		return int64(j - i)
	}
	entries := sc.gdEntries[:0]
	for i, c := range cliques {
		var s int64
		for _, u := range c {
			s += multiplicity(u)
		}
		entries = append(entries, gdEntry{idx: i, score: s})
	}
	sc.gdEntries = entries
	slices.SortFunc(entries, func(a, b gdEntry) int {
		if c := cmp.Compare(a.score, b.score); c != 0 {
			return c
		}
		return slices.Compare(cliques[a.idx], cliques[b.idx])
	})
	used := all[:0]
	out := sc.gdOut[:0]
	for _, en := range entries {
		c := cliques[en.idx]
		ok := true
		for _, u := range c {
			if slices.Contains(used, u) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		used = append(used, c...)
		out = append(out, c)
	}
	sc.gdOut = out
	return out
}

// trySwap is Algorithm 4: pop cliques from the FIFO queue; for each, find a
// disjoint set S_dis among its candidates; when |S_dis| > 1 exchange the
// clique for S_dis (a strict gain) and enqueue every clique whose
// candidate set gained members.
func (e *Engine) trySwap(queue []int32) {
	if e.noSwaps {
		return
	}
	q := append(e.esc.swapQ[:0], queue...)
	for i := 0; i < len(q); i++ {
		cid := q[i]
		if _, ok := e.cliques[cid]; !ok {
			continue // removed by an earlier swap
		}
		if e.numCandidatesOfOwner(cid) < 2 {
			continue // |S_dis| > 1 is impossible
		}
		sdis := greedyDisjoint(e.esc, e.ownedMembers(cid))
		if len(sdis) <= 1 {
			continue
		}
		q = append(q, e.executeSwap(cid, sdis)...)
		e.stats.Swaps++
	}
	e.esc.swapQ = q
}

// executeSwap exchanges the clique for the disjoint set sdis as a unit of
// its own, settled inline before the queue moves on, and returns the
// cliques to enqueue. sdis may alias the clique's candidates, which stay
// readable after their drop.
func (e *Engine) executeSwap(cid int32, sdis [][]int32) []int32 {
	e.begin()
	e.removeCliqueFromS(cid)
	for _, c := range sdis {
		e.installClique(c)
	}
	return e.settle(false)
}
