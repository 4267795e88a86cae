package dynamic

import (
	"math/rand"
	"slices"
	"testing"
)

// TestCandIndexMatchesReference drives the candidate index alone through
// random adds and every kind of drop, against a reference that keeps each
// owner's member lists in insertion order. After every operation the
// index must pass checkLists, hold the reference's candidates, and list
// each owner's in the reference's order. The node and owner ranges are
// small, so adds often meet an indexed candidate, lists empty and refill,
// and slots and digest-table cells are reused many times over.
func TestCandIndexMatchesReference(t *testing.T) {
	const k, n, owners = 3, 12, 6
	rng := rand.New(rand.NewSource(1))
	ix := newCandIndex(k, n)
	ref := map[int32][][]int32{} // owner -> member lists in insertion order
	keep := func(drop func(c []int32) bool) int {
		dropped := 0
		for owner, lists := range ref {
			kept := slices.DeleteFunc(lists, drop)
			dropped += len(lists) - len(kept)
			if ref[owner] = kept; len(kept) == 0 {
				delete(ref, owner)
			}
		}
		return dropped
	}
	for op := 0; op < 20000; op++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		switch rng.Intn(6) {
		case 0, 1, 2:
			c := slices.Sorted(slices.Values(rng.Perm(n)[:k]))
			nodes := make([]int32, k)
			for i, x := range c {
				nodes[i] = int32(x)
			}
			indexed := false
			for _, lists := range ref {
				indexed = indexed || slices.ContainsFunc(lists, func(c []int32) bool { return slices.Equal(c, nodes) })
			}
			owner := int32(rng.Intn(owners))
			if ix.add(nodes, owner) == indexed {
				t.Fatalf("op %d: add(%v) reported new=%v with the candidate indexed=%v", op, nodes, !indexed, indexed)
			}
			if !indexed {
				ref[owner] = append(ref[owner], nodes)
			}
		case 3:
			owner := int32(rng.Intn(owners))
			want := len(ref[owner])
			delete(ref, owner)
			if got := ix.dropOwner(owner); got != want {
				t.Fatalf("op %d: dropOwner(%d) dropped %d, want %d", op, owner, got, want)
			}
		case 4:
			want := keep(func(c []int32) bool { return slices.Contains(c, u) })
			if got := ix.dropWithNode(u); got != want {
				t.Fatalf("op %d: dropWithNode(%d) dropped %d, want %d", op, u, got, want)
			}
		case 5:
			if u == v {
				break // dropWithEdge is only ever called on an edge
			}
			want := keep(func(c []int32) bool { return slices.Contains(c, u) && slices.Contains(c, v) })
			if got := ix.dropWithEdge(u, v); got != want {
				t.Fatalf("op %d: dropWithEdge(%d,%d) dropped %d, want %d", op, u, v, got, want)
			}
		}
		if err := ix.checkLists(); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		live := 0
		for owner, lists := range ref {
			live += len(lists)
			var got [][]int32
			for s := ix.byOwner[owner].head; s != 0; s = ix.own.next[s] {
				got = append(got, ix.slotMembers(s))
			}
			if !slices.EqualFunc(got, lists, slices.Equal[[]int32]) {
				t.Fatalf("op %d: owner %d lists %v, want %v", op, owner, got, lists)
			}
		}
		if ix.live != live || len(ix.byOwner) != len(ref) {
			t.Fatalf("op %d: %d candidates of %d owners, want %d of %d", op, ix.live, len(ix.byOwner), live, len(ref))
		}
	}
}
