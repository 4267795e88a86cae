package dynamic

import "slices"

// The candidate index of §V-B: every candidate k-clique with its owner,
// reachable by owner, by member node and by member list. It holds no
// pointers, so the garbage collector never scans it, and once its arrays
// have grown an add or a drop allocates nothing.
//
// Candidates live in slots: parallel arrays hold each slot's owner, member
// digest and k sorted members. A dropped slot goes on a free-slot stack and
// the next add reuses it, so the arrays grow to the peak number of live
// candidates, not to the number ever indexed. Slot 0 is never used, so 0 is
// the nil link of every list below.
//
// Each owner's candidates form a doubly linked list through the slots, and
// each node's a doubly linked list through the (slot, member position)
// entries: entry s*k+i stands for members[s*k+i]. An add appends at the
// tails, so every list holds its candidates in insertion order. No
// decision reads that order (greedyDisjoint breaks score ties by member
// list), so an index rebuilt by Algorithm 5, as LoadCheckpoint does, and
// one grown by updates lead to the same swaps.
//
// A digest table maps member lists to slots: an open-addressed hash of the
// live slots keyed by the members' digest, verified against the members.

// candList is the head, tail and length of one linked list of slots or
// entries; the zero value is the empty list.
type candList struct{ head, tail, n int32 }

// links threads lists through a range of slots or entries: the next and
// previous element of each, 0 for none.
type links struct{ next, prev []int32 }

// push appends x to the list h.
func (l links) push(h *candList, x int32) {
	l.prev[x], l.next[x] = h.tail, 0
	if h.tail == 0 {
		h.head = x
	} else {
		l.next[h.tail] = x
	}
	h.tail = x
	h.n++
}

// unlink removes x from the list h.
func (l links) unlink(h *candList, x int32) {
	p, n := l.prev[x], l.next[x]
	if p == 0 {
		h.head = n
	} else {
		l.next[p] = n
	}
	if n == 0 {
		h.tail = p
	} else {
		l.prev[n] = p
	}
	h.n--
}

// minTableBits is log2 of the digest table's initial number of cells.
const minTableBits = 6

// candIndex is the candidate index; see the top of this file.
type candIndex struct {
	k int

	// Per slot: the owning S-clique (free while the slot is on the free
	// stack), hashNodes of the members, and the k sorted members at
	// members[s*k : s*k+k].
	owner   []int32
	digest  []uint64
	members []int32
	// own links the owner lists, per slot; node the node lists, per entry.
	own, node links

	// freeSlots is the stack of dropped slots, which adds reuse first. A
	// dropped slot's members stay as they were until an add reuses the
	// slot, and callers rely on that: executeSwap and dissolveAndRepack
	// hand installClique member lists that alias candidates
	// removeCliqueFromS has just dropped, and installClique copies them
	// before anything is added.
	freeSlots []int32
	live      int

	// byOwner maps an S-clique id to its candidates' list. Clique ids are
	// never reused, so a slice indexed by them would grow without bound.
	byOwner map[int32]candList
	// byNode holds each node's list of entries.
	byNode []candList

	// table holds the live slots, 0 in an empty cell. A slot sits in the
	// first empty cell from its digest's home by linear probing. The table
	// is kept at most half full; shift is 64 - log2(len(table)).
	table []int32
	shift uint
}

func newCandIndex(k, n int) candIndex {
	ix := candIndex{
		k:       k,
		byOwner: make(map[int32]candList),
		byNode:  make([]candList, n),
		table:   make([]int32, 1<<minTableBits),
		shift:   64 - minTableBits,
	}
	ix.reset()
	return ix
}

// reset empties the index, keeping the capacity of its arrays.
func (ix *candIndex) reset() {
	ix.owner = append(ix.owner[:0], free)
	ix.digest = append(ix.digest[:0], 0)
	ix.members = extend(ix.members[:0], ix.k)
	ix.own = links{append(ix.own.next[:0], 0), append(ix.own.prev[:0], 0)}
	ix.node = links{extend(ix.node.next[:0], ix.k), extend(ix.node.prev[:0], ix.k)}
	ix.freeSlots = ix.freeSlots[:0]
	ix.live = 0
	clear(ix.byOwner)
	clear(ix.byNode)
	clear(ix.table)
}

// slotMembers returns slot s's sorted members, aliasing the index.
func (ix *candIndex) slotMembers(s int32) []int32 {
	lo := int(s) * ix.k
	return ix.members[lo : lo+ix.k : lo+ix.k]
}

// home is the table cell a probe for digest starts at: a Fibonacci hash.
func (ix *candIndex) home(digest uint64) int {
	return int((digest * 0x9e3779b97f4a7c15) >> ix.shift)
}

// lookup returns the slot holding exactly the sorted members nodes, whose
// digest is digest, or 0 if no candidate does.
func (ix *candIndex) lookup(nodes []int32, digest uint64) int32 {
	mask := len(ix.table) - 1
	for i := ix.home(digest); ; i = (i + 1) & mask {
		s := ix.table[i]
		if s == 0 || ix.digest[s] == digest && nodesEqual(ix.slotMembers(s), nodes) {
			return s
		}
	}
}

// ownsAny reports whether one of slots holds exactly the sorted members
// nodes.
func (ix *candIndex) ownsAny(slots []int32, nodes []int32) bool {
	digest := hashNodes(nodes)
	for _, s := range slots {
		if ix.digest[s] == digest && nodesEqual(ix.slotMembers(s), nodes) {
			return true
		}
	}
	return false
}

// add indexes the sorted members nodes as a candidate of owner unless an
// equal candidate is indexed, and reports whether it was new.
func (ix *candIndex) add(nodes []int32, owner int32) bool {
	digest := hashNodes(nodes)
	if ix.lookup(nodes, digest) != 0 {
		return false
	}
	var s int32
	if top := len(ix.freeSlots) - 1; top >= 0 {
		s = ix.freeSlots[top]
		ix.freeSlots = ix.freeSlots[:top]
		ix.owner[s], ix.digest[s] = owner, digest
		copy(ix.slotMembers(s), nodes)
	} else {
		s = int32(len(ix.owner))
		ix.owner = append(ix.owner, owner)
		ix.digest = append(ix.digest, digest)
		ix.members = append(ix.members, nodes...)
		ix.own.next, ix.own.prev = append(ix.own.next, 0), append(ix.own.prev, 0)
		ix.node.next, ix.node.prev = extend(ix.node.next, ix.k), extend(ix.node.prev, ix.k)
	}
	h := ix.byOwner[owner]
	ix.own.push(&h, s)
	ix.byOwner[owner] = h
	for i, u := range nodes {
		ix.node.push(&ix.byNode[u], s*int32(ix.k)+int32(i))
	}
	ix.live++
	if 2*ix.live > len(ix.table) {
		ix.growTable()
	}
	ix.place(s)
	return true
}

// place puts slot s into the first empty cell from its home.
func (ix *candIndex) place(s int32) {
	mask := len(ix.table) - 1
	i := ix.home(ix.digest[s])
	for ix.table[i] != 0 {
		i = (i + 1) & mask
	}
	ix.table[i] = s
}

// growTable doubles the digest table and re-places every live slot.
func (ix *candIndex) growTable() {
	old := ix.table
	ix.table = make([]int32, 2*len(old))
	ix.shift--
	for _, s := range old {
		if s != 0 {
			ix.place(s)
		}
	}
}

// drop removes the candidate in slot s.
func (ix *candIndex) drop(s int32) {
	owner := ix.owner[s]
	h := ix.byOwner[owner]
	ix.own.unlink(&h, s)
	if h.n == 0 {
		delete(ix.byOwner, owner)
	} else {
		ix.byOwner[owner] = h
	}
	ix.release(s)
}

// release removes slot s from its node lists and the digest table and
// puts it on the free stack; its owner list is the caller's.
func (ix *candIndex) release(s int32) {
	base := s * int32(ix.k)
	for i, u := range ix.slotMembers(s) {
		ix.node.unlink(&ix.byNode[u], base+int32(i))
	}
	ix.unplace(s)
	ix.owner[s] = free
	ix.freeSlots = append(ix.freeSlots, s)
	ix.live--
}

// unplace removes slot s from the digest table, shifting back the cells
// after it that its removal would cut off from their home (linear
// probing's deletion without tombstones).
func (ix *candIndex) unplace(s int32) {
	mask := len(ix.table) - 1
	i := ix.home(ix.digest[s])
	for ix.table[i] != s {
		i = (i + 1) & mask
	}
	// i is the hole. A later cell of the run may fill it unless its home
	// lies cyclically in (i, j]; the cell it leaves is the next hole.
	for j := i; ; {
		j = (j + 1) & mask
		t := ix.table[j]
		if t == 0 {
			break
		}
		if h := ix.home(ix.digest[t]); i < j && (h <= i || h > j) || i > j && h <= i && h > j {
			ix.table[i] = t
			i = j
		}
	}
	ix.table[i] = 0
}

// dropOwner removes every candidate owner holds and returns how many.
func (ix *candIndex) dropOwner(owner int32) int {
	h, ok := ix.byOwner[owner]
	if !ok {
		return 0
	}
	delete(ix.byOwner, owner)
	for s := h.head; s != 0; {
		next := ix.own.next[s]
		ix.release(s)
		s = next
	}
	return int(h.n)
}

// dropWithNode removes every candidate containing u and returns how many.
func (ix *candIndex) dropWithNode(u int32) int {
	h := &ix.byNode[u]
	dropped := int(h.n)
	for h.head != 0 {
		ix.drop(h.head / int32(ix.k))
	}
	return dropped
}

// dropWithEdge removes every candidate containing both u and v and returns
// how many. It walks the shorter of the two node lists.
func (ix *candIndex) dropWithEdge(u, v int32) int {
	if ix.byNode[u].n > ix.byNode[v].n {
		u, v = v, u
	}
	dropped := 0
	k := int32(ix.k)
	for x := ix.byNode[u].head; x != 0; {
		next := ix.node.next[x]
		if s := x / k; slices.Contains(ix.slotMembers(s), v) {
			ix.drop(s)
			dropped++
		}
		x = next
	}
	return dropped
}

// extend lengthens s by n elements, whose values the caller sets.
func extend(s []int32, n int) []int32 { return slices.Grow(s, n)[:len(s)+n] }

// hashNodes digests a sorted member list with FNV-1a over the 32-bit
// values. Collisions are fine: the index verifies the members.
func hashNodes(nodes []int32) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, v := range nodes {
		h ^= uint64(uint32(v))
		h *= prime
	}
	return h
}

// nodesEqual compares two sorted member lists.
func nodesEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
