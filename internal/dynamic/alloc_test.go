package dynamic

import (
	"testing"

	"repro/internal/graph"
)

// TestUpdatePathZeroAlloc pins the flat-substrate acceptance criterion:
// after the engine-level scratch and the candidate index have warmed up,
// no-op updates and S-preserving updates allocate nothing, including those
// that add candidates and drop them again — the enumerators run entirely
// on reused buffers, the index reuses its slots, and publication carves
// snapshots from a slab.
func TestUpdatePathZeroAlloc(t *testing.T) {
	// Two 4-cliques (S), plus free nodes: 8,9 isolated from each other,
	// with common free neighbours 10 and 11 that are not adjacent to each
	// other — so inserting (8,9) exercises the full enumeration recursion
	// without ever completing a 4-clique or creating a candidate. 12 is
	// adjacent to 1 and 2, so an edge (12,3) makes {1,2,3,12} a candidate.
	g, err := graph.FromEdges(13, [][2]int32{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},
		{4, 5}, {4, 6}, {4, 7}, {5, 6}, {5, 7}, {6, 7},
		{8, 10}, {9, 10}, {8, 11}, {9, 11},
		{1, 12}, {2, 12},
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(g, 4, [][]int32{{0, 1, 2, 3}, {4, 5, 6, 7}})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		run  func()
	}{
		{"no-op-insert", func() {
			// Edge already present: rejected before any engine work.
			if e.InsertEdge(0, 1) {
				t.Fatal("insert of existing edge reported true")
			}
		}},
		{"no-op-delete", func() {
			if e.DeleteEdge(0, 5) {
				t.Fatal("delete of missing edge reported true")
			}
		}},
		{"bound-bound-toggle", func() {
			// Endpoints in two different S-cliques, no candidates through
			// the edge: Algorithm 6 case 1 and Algorithm 7 case 2.
			if !e.InsertEdge(0, 4) {
				t.Fatal("insert failed")
			}
			if !e.DeleteEdge(0, 4) {
				t.Fatal("delete failed")
			}
		}},
		{"free-free-toggle", func() {
			// Both endpoints free; the common neighbourhood {10, 11} is an
			// independent set, so the enumeration recurses but no 4-clique
			// and no candidate ever materialises.
			if !e.InsertEdge(8, 9) {
				t.Fatal("insert failed")
			}
			if !e.DeleteEdge(8, 9) {
				t.Fatal("delete failed")
			}
		}},
		{"candidate-toggle", func() {
			// Algorithm 6 case 1 indexes {1,2,3,12} for {0,1,2,3}, its only
			// candidate, so no swap runs; the delete drops it again.
			before := e.NumCandidates()
			if !e.InsertEdge(12, 3) {
				t.Fatal("insert failed")
			}
			if e.NumCandidates() != before+1 {
				t.Fatalf("insert left %d candidates, want %d", e.NumCandidates(), before+1)
			}
			if !e.DeleteEdge(12, 3) {
				t.Fatal("delete failed")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.run() // warm the scratch and the graph rows
			e.reserveSnapshots(5000)
			if allocs := testing.AllocsPerRun(1000, tc.run); allocs != 0 {
				t.Fatalf("steady-state %s allocated %v times per run, want 0", tc.name, allocs)
			}
		})
	}
	if err := e.Verify(); err != nil {
		t.Fatal(err)
	}
}
