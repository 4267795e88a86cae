package dynamic

import (
	"fmt"
	"slices"
)

// key canonicalises a sorted member list into a comparable string. The hot
// paths dedup through candDedup's integer digests instead; this helper
// survives only for Verify's from-scratch comparison and the tests.
func key(nodes []int32) string {
	b := make([]byte, 0, len(nodes)*4)
	for _, v := range nodes {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(b)
}

// Verify checks every engine invariant against the current graph. It is
// O(candidates + cliques + free-clique enumeration) and meant for tests;
// it returns the first violation found.
func (e *Engine) Verify() error {
	// 1. S is a disjoint k-clique set and nodeClique is its exact inverse.
	counted := 0
	for id, members := range e.cliques {
		if len(members) != e.k {
			return fmt.Errorf("clique %d has %d members, want %d", id, len(members), e.k)
		}
		if !e.g.IsClique(members) {
			return fmt.Errorf("clique %d (%v) is not a clique in the graph", id, members)
		}
		for _, u := range members {
			if e.nodeClique[u] != id {
				return fmt.Errorf("node %d in clique %d but nodeClique says %d", u, id, e.nodeClique[u])
			}
			counted++
		}
	}
	mapped := 0
	for u, id := range e.nodeClique {
		if id == free {
			continue
		}
		mapped++
		members, ok := e.cliques[id]
		if !ok {
			return fmt.Errorf("node %d mapped to missing clique %d", u, id)
		}
		found := false
		for _, w := range members {
			if w == int32(u) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("node %d mapped to clique %d that does not list it", u, id)
		}
	}
	if counted != mapped {
		return fmt.Errorf("clique membership count %d != mapped nodes %d", counted, mapped)
	}

	// 1b. The writer-side publication order mirrors S exactly, sorted by
	// id, and shares the member slices (publish clones these arrays, so a
	// divergence here would surface as a stale snapshot).
	if len(e.orderIds) != len(e.cliques) || len(e.orderCliques) != len(e.cliques) || e.orderHoles != 0 {
		return fmt.Errorf("publication order holds %d/%d entries (%d holes) for %d cliques",
			len(e.orderIds), len(e.orderCliques), e.orderHoles, len(e.cliques))
	}
	if !slices.IsSorted(e.orderIds) {
		return fmt.Errorf("publication order ids not sorted")
	}
	for i, id := range e.orderIds {
		members, ok := e.cliques[id]
		if !ok {
			return fmt.Errorf("publication order holds stale clique %d", id)
		}
		if &members[0] != &e.orderCliques[i][0] || len(members) != len(e.orderCliques[i]) {
			return fmt.Errorf("publication order entry %d does not alias clique %d's members", i, id)
		}
	}

	// 2. Maximality: no k-clique among free nodes.
	var freeNodes []int32
	for u, id := range e.nodeClique {
		if id == free {
			freeNodes = append(freeNodes, int32(u))
		}
	}
	violated := false
	var witness []int32
	e.forEachCliqueAmong(e.esc, freeNodes, func(c []int32) bool {
		violated = true
		witness = append([]int32(nil), c...)
		return false
	})
	if violated {
		return fmt.Errorf("S not maximal: all-free clique %v exists", witness)
	}

	// 3. Every indexed candidate is a genuine candidate clique.
	for id, c := range e.cands {
		if len(c.nodes) != e.k {
			return fmt.Errorf("candidate %d has %d nodes", id, len(c.nodes))
		}
		if !e.g.IsClique(c.nodes) {
			return fmt.Errorf("candidate %d (%v) is not a clique", id, c.nodes)
		}
		if _, ok := e.cliques[c.owner]; !ok {
			return fmt.Errorf("candidate %d owned by missing clique %d", id, c.owner)
		}
		nFree := 0
		for _, u := range c.nodes {
			switch e.nodeClique[u] {
			case free:
				nFree++
			case c.owner:
			default:
				return fmt.Errorf("candidate %d node %d belongs to clique %d, not owner %d",
					id, u, e.nodeClique[u], c.owner)
			}
		}
		if nFree == 0 || nFree == e.k {
			return fmt.Errorf("candidate %d has %d free nodes of %d", id, nFree, e.k)
		}
		// Index cross-references.
		if c.digest != hashNodes(c.nodes) {
			return fmt.Errorf("candidate %d carries stale digest", id)
		}
		if got, ok := e.candDedup.lookup(c.nodes, c.digest); !ok || got != c {
			return fmt.Errorf("candidate %d missing from dedup index", id)
		}
		if own := e.candsByOwn[c.owner]; own == nil || !own.has(id) {
			return fmt.Errorf("candidate %d missing from owner index", id)
		}
		for _, u := range c.nodes {
			if !e.candsByNode[u].has(id) {
				return fmt.Errorf("candidate %d missing from node index of %d", id, u)
			}
		}
	}
	// Reverse direction: no dangling index entries.
	for owner, set := range e.candsByOwn {
		for _, id := range set.ids() {
			if c, ok := e.cands[id]; !ok || c.owner != owner {
				return fmt.Errorf("owner index of %d holds stale candidate %d", owner, id)
			}
		}
	}
	for u := range e.candsByNode {
		for _, id := range e.candsByNode[u].ids() {
			c, ok := e.cands[id]
			if !ok {
				return fmt.Errorf("node index of %d holds stale candidate %d", u, id)
			}
			found := false
			for _, w := range c.nodes {
				if w == int32(u) {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("node index of %d holds candidate %d that lacks the node", u, id)
			}
		}
	}
	if e.candDedup.size() != len(e.cands) {
		return fmt.Errorf("dedup index size %d != candidate count %d", e.candDedup.size(), len(e.cands))
	}

	// 4. Completeness: the index holds exactly the candidates Algorithm 5
	// would build from scratch.
	want := map[string]int32{}
	for id, members := range e.cliques {
		B := e.freeNeighborhood(e.esc, members)
		e.forEachCliqueAmong(e.esc, B, func(c []int32) bool {
			cc := append([]int32(nil), c...)
			slices.Sort(cc)
			nFree := 0
			for _, u := range cc {
				if e.nodeClique[u] == free {
					nFree++
				}
			}
			if nFree > 0 && nFree < e.k {
				// Non-free members necessarily lie in this clique.
				want[key(cc)] = id
			}
			return true
		})
	}
	if len(want) != len(e.cands) {
		return fmt.Errorf("index has %d candidates, from-scratch build has %d", len(e.cands), len(want))
	}
	for _, c := range e.cands {
		owner, ok := want[key(c.nodes)]
		if !ok {
			return fmt.Errorf("indexed candidate %v not produced by from-scratch build", c.nodes)
		}
		if owner != c.owner {
			return fmt.Errorf("candidate %v owner %d, from-scratch says %d", c.nodes, c.owner, owner)
		}
	}
	return nil
}
