package dynamic

import (
	"fmt"
	"slices"
)

// key canonicalises a sorted member list into a comparable string. The hot
// paths dedup through the index's digest table instead; this helper
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

	// 3. Every indexed candidate is a genuine candidate clique, and the
	// index's lists and digest table hold exactly the live slots.
	ix := &e.index
	for s := int32(1); int(s) < len(ix.owner); s++ {
		owner := ix.owner[s]
		if owner == free {
			continue
		}
		nodes := ix.slotMembers(s)
		if !slices.IsSorted(nodes) {
			return fmt.Errorf("candidate %v is not sorted", nodes)
		}
		if !e.g.IsClique(nodes) {
			return fmt.Errorf("candidate %v is not a clique", nodes)
		}
		if _, ok := e.cliques[owner]; !ok {
			return fmt.Errorf("candidate %v owned by missing clique %d", nodes, owner)
		}
		nFree := 0
		for _, u := range nodes {
			switch e.nodeClique[u] {
			case free:
				nFree++
			case owner:
			default:
				return fmt.Errorf("candidate %v node %d belongs to clique %d, not owner %d",
					nodes, u, e.nodeClique[u], owner)
			}
		}
		if nFree == 0 || nFree == e.k {
			return fmt.Errorf("candidate %v has %d free nodes of %d", nodes, nFree, e.k)
		}
		if ix.digest[s] != hashNodes(nodes) {
			return fmt.Errorf("candidate %v carries a stale digest", nodes)
		}
	}
	if err := ix.checkLists(); err != nil {
		return err
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
	if len(want) != ix.live {
		return fmt.Errorf("index has %d candidates, from-scratch build has %d", ix.live, len(want))
	}
	for s := int32(1); int(s) < len(ix.owner); s++ {
		if ix.owner[s] == free {
			continue
		}
		nodes := ix.slotMembers(s)
		owner, ok := want[key(nodes)]
		if !ok {
			return fmt.Errorf("indexed candidate %v not produced by from-scratch build", nodes)
		}
		if owner != ix.owner[s] {
			return fmt.Errorf("candidate %v owner %d, from-scratch says %d", nodes, ix.owner[s], owner)
		}
	}
	return nil
}

// checkLists checks the index's structure: every live slot is on its
// owner's list and on each member's node list exactly once; links agree in
// both directions; heads, tails and counts match; no list reaches a free
// slot; the free stack holds exactly the free slots; and the digest table
// holds exactly the live slots.
func (ix *candIndex) checkLists() error {
	slots := int32(len(ix.owner))
	k := int32(ix.k)
	if len(ix.digest) != int(slots) || len(ix.members) != int(slots*k) ||
		len(ix.own.next) != int(slots) || len(ix.own.prev) != int(slots) ||
		len(ix.node.next) != int(slots*k) || len(ix.node.prev) != int(slots*k) {
		return fmt.Errorf("candidate index arrays disagree on %d slots", slots)
	}
	onOwner := make([]bool, slots)
	for owner, h := range ix.byOwner {
		if h.n == 0 {
			return fmt.Errorf("owner %d keeps an empty candidate list", owner)
		}
		err := walkList(ix.own, h, func(s int32) error {
			if ix.owner[s] != owner {
				return fmt.Errorf("owner list of %d reaches slot %d of owner %d", owner, s, ix.owner[s])
			}
			if onOwner[s] {
				return fmt.Errorf("slot %d is on two owner lists", s)
			}
			onOwner[s] = true
			return nil
		})
		if err != nil {
			return fmt.Errorf("owner list of %d: %w", owner, err)
		}
	}
	onNode := make([]bool, slots*k)
	for u, h := range ix.byNode {
		err := walkList(ix.node, h, func(x int32) error {
			if ix.owner[x/k] == free {
				return fmt.Errorf("reaches free slot %d", x/k)
			}
			if ix.members[x] != int32(u) || onNode[x] {
				return fmt.Errorf("entry %d (node %d) is misplaced or repeated", x, ix.members[x])
			}
			onNode[x] = true
			return nil
		})
		if err != nil {
			return fmt.Errorf("node list of %d: %w", u, err)
		}
	}
	onStack := make([]bool, slots)
	for _, s := range ix.freeSlots {
		if s <= 0 || s >= slots || ix.owner[s] != free || onStack[s] {
			return fmt.Errorf("free stack holds live, repeated or out-of-range slot %d", s)
		}
		onStack[s] = true
	}
	live := 0
	for s := int32(1); s < slots; s++ {
		if ix.owner[s] == free {
			if !onStack[s] {
				return fmt.Errorf("free slot %d is not on the free stack", s)
			}
			continue
		}
		live++
		if !onOwner[s] {
			return fmt.Errorf("slot %d is on no owner list", s)
		}
		if got := ix.lookup(ix.slotMembers(s), ix.digest[s]); got != s {
			return fmt.Errorf("digest table finds slot %d for the members of slot %d", got, s)
		}
		for x := s * k; x < (s+1)*k; x++ {
			if !onNode[x] {
				return fmt.Errorf("slot %d is missing from the node list of %d", s, ix.members[x])
			}
		}
	}
	if live != ix.live {
		return fmt.Errorf("index counts %d live candidates, slots hold %d", ix.live, live)
	}
	inTable := 0
	for _, s := range ix.table {
		if s == 0 {
			continue
		}
		if s < 0 || s >= slots || ix.owner[s] == free {
			return fmt.Errorf("digest table holds free or out-of-range slot %d", s)
		}
		inTable++
	}
	if inTable != live || 2*live > len(ix.table) {
		return fmt.Errorf("digest table of %d cells holds %d slots, want %d", len(ix.table), inTable, live)
	}
	return nil
}

// walkList walks the list h through l, checking that every element is in
// range, that each one's prev is the element before it, and that the tail
// and the count match, and calls visit on each element.
func walkList(l links, h candList, visit func(x int32) error) error {
	prev, n := int32(0), int32(0)
	for x := h.head; x != 0; x = l.next[x] {
		if x < 0 || int(x) >= len(l.next) || n == h.n || int(n) == len(l.next) {
			return fmt.Errorf("element %d out of range or past the count %d", x, h.n)
		}
		if l.prev[x] != prev {
			return fmt.Errorf("element %d links back to %d, not %d", x, l.prev[x], prev)
		}
		if err := visit(x); err != nil {
			return err
		}
		prev = x
		n++
	}
	if prev != h.tail || n != h.n {
		return fmt.Errorf("tail %d and count %d, walk ends at %d after %d", h.tail, h.n, prev, n)
	}
	return nil
}
