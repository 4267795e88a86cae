package core

import (
	"container/heap"
	"math/rand"
	"slices"
	"testing"
)

// stdHeap drives the same entries and order through container/heap.
type stdHeap struct{ cliqueHeap }

func (h *stdHeap) Len() int           { return len(h.entries) }
func (h *stdHeap) Less(i, j int) bool { return h.less(i, j) }
func (h *stdHeap) Swap(i, j int)      { h.swap(i, j) }
func (h *stdHeap) Push(x any)         { h.entries = append(h.entries, x.(heapEntry)) }
func (h *stdHeap) Pop() any {
	n := len(h.entries) - 1
	e := h.entries[n]
	h.entries = h.entries[:n]
	return e
}

// randomEntry draws an entry with a small score range, so ties are
// common, and distinct sorted members, as runLightweight guarantees.
func randomEntry(rng *rand.Rand, seq int64, seen map[[3]int32]bool) heapEntry {
	for {
		c := []int32{rng.Int31n(12), rng.Int31n(12), rng.Int31n(12)}
		slices.Sort(c)
		key := [3]int32{c[0], c[1], c[2]}
		if c[0] == c[1] || c[1] == c[2] || seen[key] {
			continue
		}
		seen[key] = true
		return heapEntry{clique: c, root: c[2], score: rng.Int63n(6), seq: seq}
	}
}

// TestCliqueHeapMatchesContainerHeap pins the typed heap to the pop
// sequence container/heap produces for the same Init/Push/Pop calls,
// under both tie-breaks.
func TestCliqueHeapMatchesContainerHeap(t *testing.T) {
	for _, strict := range []bool{false, true} {
		for trial := int64(0); trial < 50; trial++ {
			rng := rand.New(rand.NewSource(trial))
			seen := map[[3]int32]bool{}
			var seq int64
			typed := &cliqueHeap{strict: strict}
			ref := &stdHeap{cliqueHeap{strict: strict}}
			for i := 0; i < 40; i++ {
				e := randomEntry(rng, seq, seen)
				seq++
				typed.entries = append(typed.entries, e)
				ref.entries = append(ref.entries, e)
			}
			typed.init()
			heap.Init(ref)
			for len(typed.entries) > 0 {
				if rng.Intn(3) == 0 && seq < 150 {
					e := randomEntry(rng, seq, seen)
					seq++
					typed.push(e)
					heap.Push(ref, e)
				}
				got, want := typed.pop(), heap.Pop(ref).(heapEntry)
				if got.seq != want.seq {
					t.Fatalf("strict=%v trial %d: popped seq %d (score %d), container/heap pops seq %d (score %d)",
						strict, trial, got.seq, got.score, want.seq, want.score)
				}
			}
			if ref.Len() != 0 {
				t.Fatalf("strict=%v trial %d: container/heap still holds %d entries", strict, trial, ref.Len())
			}
		}
	}
}

// TestCliqueHeapZeroAlloc pins that push and pop box nothing once the
// entry slice has grown.
func TestCliqueHeapZeroAlloc(t *testing.T) {
	h := &cliqueHeap{strict: true, entries: make([]heapEntry, 0, 64)}
	rng := rand.New(rand.NewSource(1))
	seen := map[[3]int32]bool{}
	var pool []heapEntry
	for i := 0; i < 32; i++ {
		pool = append(pool, randomEntry(rng, int64(i), seen))
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, e := range pool {
			h.push(e)
		}
		for len(h.entries) > 0 {
			h.pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("push/pop allocated %.1f times per run, want 0", allocs)
	}
}
