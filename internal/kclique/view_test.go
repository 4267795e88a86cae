package kclique

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// viewCliqueSet enumerates through the unified core over the given view with
// every node as a first-level candidate and returns the canonical
// (sorted, deduplicated) set of cliques found.
func viewCliqueSet(t *testing.T, v graph.View, k int, noStamp bool) map[string]bool {
	t.Helper()
	n := v.N()
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	sc := NewScratch(k, 0)
	sc.NoStamp = noStamp
	set := make(map[string]bool)
	ForEachAmong(v, nil, k, all, sc, func(c []int32) bool {
		cc := append([]int32(nil), c...)
		slices.Sort(cc)
		ck := fmt.Sprint(cc)
		if set[ck] {
			t.Fatalf("clique %v enumerated twice", cc)
		}
		set[ck] = true
		return true
	})
	return set
}

// TestDynamicViewMatchesStaticOracles is the differential test for the
// adjacency-view adapters: the unified core run over a graph.Dynamic view
// must enumerate exactly the same k-cliques (as sets) that the static
// enumerator lists — and as many as the CountSerial oracle counts — on
// the equivalent CSR snapshot, for k in {3, 4, 5},
// with and without the stamped fast path.
func TestDynamicViewMatchesStaticOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 6; trial++ {
		n := 20 + rng.Intn(60)
		b := graph.NewBuilder(n)
		edges := n * (2 + rng.Intn(4))
		for i := 0; i < edges; i++ {
			b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
		// A planted clique so deeper k values have something to find.
		var planted []int32
		for len(planted) < 6 {
			u := int32(rng.Intn(n))
			if !slices.Contains(planted, u) {
				planted = append(planted, u)
			}
		}
		for i, u := range planted {
			for _, v := range planted[i+1:] {
				b.AddEdge(u, v)
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		dyn := graph.DynamicFrom(g)
		d := graph.Orient(g, graph.ListingOrdering(g))

		for k := 3; k <= 5; k++ {
			// Static truth: the DAG enumerator and the counting oracle.
			static := make(map[string]bool)
			ForEach(d, k, func(c []int32) bool {
				cc := append([]int32(nil), c...)
				slices.Sort(cc)
				static[fmt.Sprint(cc)] = true
				return true
			})
			serialTotal, _ := CountSerial(d, k)
			if int(serialTotal) != len(static) {
				t.Fatalf("trial %d k=%d: oracle disagreement: ForEach %d, CountSerial %d",
					trial, k, len(static), serialTotal)
			}

			for _, noStamp := range []bool{false, true} {
				got := viewCliqueSet(t, dyn.View(), k, noStamp)
				if len(got) != len(static) {
					t.Fatalf("trial %d k=%d noStamp=%v: dynamic view found %d cliques, static %d",
						trial, k, noStamp, len(got), len(static))
				}
				for key := range got {
					if !static[key] {
						t.Fatalf("trial %d k=%d noStamp=%v: dynamic view emitted %s not found statically",
							trial, k, noStamp, key)
					}
				}
			}
		}

		// Mutate the dynamic graph and re-check against a fresh snapshot:
		// the view must track mutations with no rebuilding.
		for i := 0; i < 30; i++ {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			if u == v {
				continue
			}
			if rng.Intn(3) == 0 {
				dyn.DeleteEdge(u, v)
			} else {
				dyn.InsertEdge(u, v)
			}
		}
		snap := graph.Orient(dyn.Snapshot(), graph.ListingOrdering(dyn.Snapshot()))
		for k := 3; k <= 5; k++ {
			serialTotal, _ := CountSerial(snap, k)
			got := viewCliqueSet(t, dyn.View(), k, false)
			if uint64(len(got)) != serialTotal {
				t.Fatalf("trial %d post-mutation k=%d: view found %d, CountSerial %d",
					trial, k, len(got), serialTotal)
			}
		}
	}
}

// TestForEachAmongPrefix pins the edge-anchored adapter contract the
// dynamic engine relies on: with a prefix (u, v) and the common
// neighbourhood as candidates, ForEachAmong enumerates exactly the
// k-cliques through that edge, each exactly once, prefix first.
func TestForEachAmongPrefix(t *testing.T) {
	// K5 on {0..4} plus a pendant edge.
	b := graph.NewBuilder(6)
	for i := int32(0); i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			b.AddEdge(i, j)
		}
	}
	b.AddEdge(4, 5)
	g := b.MustBuild()
	dyn := graph.DynamicFrom(g)

	common := graph.IntersectSorted(nil, dyn.Neighbors(0), dyn.Neighbors(1))
	sc := NewScratch(4, 0)
	var got [][]int32
	ForEachAmong(dyn.View(), []int32{0, 1}, 2, common, sc, func(c []int32) bool {
		if c[0] != 0 || c[1] != 1 {
			t.Fatalf("prefix not preserved: %v", c)
		}
		got = append(got, append([]int32(nil), c...))
		return true
	})
	want := [][]int32{{0, 1, 2, 3}, {0, 1, 2, 4}, {0, 1, 3, 4}}
	if len(got) != len(want) {
		t.Fatalf("got %d cliques %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("clique %d = %v, want %v (id-ascending order)", i, got[i], want[i])
		}
	}
}
