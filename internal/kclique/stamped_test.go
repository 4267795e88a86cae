package kclique

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// denseTestDAG builds a DAG with roots of more than wordBits
// out-neighbours, so ForEach/ParallelForEach take the stamped first level.
func denseTestDAG(t *testing.T) *graph.DAG {
	t.Helper()
	const n = 110
	rng := rand.New(rand.NewSource(3))
	b := graph.NewBuilder(n)
	for u := int32(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < 0.75 {
				b.AddEdge(u, v)
			}
		}
	}
	g := b.MustBuild()
	d := graph.Orient(g, graph.ListingOrdering(g))
	stampedRoots := 0
	for u := int32(0); u < n; u++ {
		if d.OutDegree(u) > wordBits {
			stampedRoots++
		}
	}
	if stampedRoots == 0 {
		t.Fatalf("no root exceeds out-degree %d; stamped path untested", wordBits)
	}
	return d
}

// TestForEachStampedMatchesCounts checks the stamped root fast path against
// the merge-only serial counter. Every clique ForEach emits is also
// verified pairwise.
func TestForEachStampedMatchesCounts(t *testing.T) {
	d := denseTestDAG(t)
	for _, k := range []int{3, 4} {
		wantTotal, wantScores := CountSerial(d, k)
		var got uint64
		scores := make([]int64, d.N())
		ForEach(d, k, func(c []int32) bool {
			if len(c) != k {
				t.Fatalf("k=%d: clique %v has wrong size", k, c)
			}
			for i := 0; i < k; i++ {
				for j := i + 1; j < k; j++ {
					if !d.G.HasEdge(c[i], c[j]) {
						t.Fatalf("k=%d: %v is not a clique", k, c)
					}
				}
			}
			for _, u := range c {
				scores[u]++
			}
			got++
			return true
		})
		if got != wantTotal {
			t.Fatalf("k=%d: ForEach emitted %d cliques, CountSerial says %d", k, got, wantTotal)
		}
		for u := range scores {
			if scores[u] != wantScores[u] {
				t.Fatalf("k=%d: node %d score %d, serial %d", k, u, scores[u], wantScores[u])
			}
		}
		// The parallel enumerator shares the fast path; the clique COUNT is
		// worker-invariant even though the visit order is not.
		var par uint64
		ok := ParallelForEach(d, k, 4, func(_ int, c []int32) bool {
			for i := 0; i < k; i++ {
				for j := i + 1; j < k; j++ {
					if !d.G.HasEdge(c[i], c[j]) {
						t.Errorf("k=%d: parallel %v not a clique", k, c)
						return false
					}
				}
			}
			return true
		})
		if !ok {
			t.Fatalf("k=%d: parallel enumeration aborted", k)
		}
		ParallelForEach(d, k, 1, func(_ int, c []int32) bool { par++; return true })
		if par != wantTotal {
			t.Fatalf("k=%d: parallel emitted %d cliques, want %d", k, par, wantTotal)
		}
		_ = got
	}
}

// TestForEachStampedEarlyStop checks that fn returning false aborts the
// stamped path mid-enumeration exactly like the merge path.
func TestForEachStampedEarlyStop(t *testing.T) {
	d := denseTestDAG(t)
	seen := 0
	ForEach(d, 3, func([]int32) bool {
		seen++
		return seen < 10
	})
	if seen != 10 {
		t.Fatalf("enumeration visited %d cliques after stop, want 10", seen)
	}
}
