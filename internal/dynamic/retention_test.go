package dynamic

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/graph"
)

// disjointFourCliques returns c disjoint 4-cliques {4i, ..., 4i+3} and the
// clique list, which is the unique maximum disjoint set.
func disjointFourCliques(t *testing.T, c int) (*graph.Graph, [][]int32) {
	t.Helper()
	var edges [][2]int32
	cliques := make([][]int32, c)
	for i := range cliques {
		b := int32(4 * i)
		cliques[i] = []int32{b, b + 1, b + 2, b + 3}
		for u := b; u < b+4; u++ {
			for v := u + 1; v < b+4; v++ {
				edges = append(edges, [2]int32{u, v})
			}
		}
	}
	g, err := graph.FromEdges(4*c, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g, cliques
}

// liveHeap returns the bytes of heap objects that survive a full GC.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestSnapshotRetention pins the MVCC retention bound: the engine keeps
// exactly one clique-set generation alive, and an older one survives only
// while a reader holds a snapshot of it. Every update here changes S
// (deleting an edge of an S-clique dissolves it; re-inserting the edge
// reinstalls it under a new id), so each publish builds a fresh
// generation of |S| ids and slice headers. The live heap is sampled
// along the stream, so an engine that pinned superseded generations in
// any fixed-size batch shows its peak, not just the state at the end.
func TestSnapshotRetention(t *testing.T) {
	const (
		cliques = 4000 // one generation's arrays: 4000 x 28 B = 112 KB
		updates = 2048
		every   = 128 // updates between live-heap samples
		slack   = 4   // allowed live-heap growth, in generations per live one
	)
	gen := int64(cliques) * 28
	for _, tc := range []struct {
		name string
		hold bool
	}{{"no-reader", false}, {"held-snapshot", true}} {
		t.Run(tc.name, func(t *testing.T) {
			g, S := disjointFourCliques(t, cliques)
			e, err := New(g, 4, S)
			if err != nil {
				t.Fatal(err)
			}
			// One generation is live at the start (the engine's own);
			// holding the first snapshot keeps a second one alive.
			live := int64(1)
			var held *Snapshot
			var want [][]int32
			if tc.hold {
				live = 2
				held = e.Snapshot()
				for _, c := range held.Cliques() {
					want = append(want, slices.Clone(c))
				}
			}
			before := int64(liveHeap())
			var peak int64
			for i := 0; i < updates/2; i++ {
				u := int32(4 * (i % cliques))
				if !e.DeleteEdge(u, u+1) || !e.InsertEdge(u, u+1) {
					t.Fatalf("update %d on clique %d was a no-op", i, u/4)
				}
				if (2*i+2)%every == 0 {
					peak = max(peak, int64(liveHeap())-before)
				}
			}
			if st := e.Stats(); st.Deletions+st.Insertions != updates {
				t.Fatalf("applied %d updates, want %d", st.Deletions+st.Insertions, updates)
			}
			if s := e.Snapshot(); s.SChanged() != s.Version() || s.Size() != cliques {
				t.Fatalf("last update left |S| = %d, S changed at version %d of %d",
					s.Size(), s.SChanged(), s.Version())
			}
			t.Logf("peak live-heap growth %d B over %d S-changing updates (one generation: %d B)",
				peak, updates, gen)
			if limit := slack * live * gen; peak > limit {
				t.Fatalf("live heap grew %d B (%.1f generations), want at most %d B (%d x %d live)",
					peak, float64(peak)/float64(gen), limit, slack, live)
			}
			if held != nil {
				if err := held.Validate(); err != nil {
					t.Fatalf("held snapshot: %v", err)
				}
				if !slices.EqualFunc(held.Cliques(), want, slices.Equal[[]int32]) {
					t.Fatal("held snapshot's cliques changed under later updates")
				}
			}
			if err := e.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
