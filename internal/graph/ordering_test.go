package graph_test

import (
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestListingOrderingReversesDegeneracy: ListingOrdering is the
// degeneracy order reversed, with the reversed ranks written by the peel
// itself, so it allocates no more than DegeneracyOrdering does.
func TestListingOrderingReversesDegeneracy(t *testing.T) {
	isolated := graph.NewBuilder(12) // nodes 0, 4-6, 8 and 10-11 have no edge
	for _, e := range [][2]int32{{1, 2}, {2, 3}, {1, 3}, {7, 9}} {
		isolated.AddEdge(e[0], e[1])
	}
	shapes := map[string]*graph.Graph{
		"community": gen.CommunitySocial(600, 12, 0.2, 10000, 12),
		"ba":        gen.BarabasiAlbert(2000, 12, 7),
		"degree":    gen.CommunitySocial(2000, 12, 0.2, 4000, 12),
		"isolated":  isolated.MustBuild(),
		"empty":     graph.NewBuilder(0).MustBuild(),
	}
	for name, g := range shapes {
		peel, _ := graph.DegeneracyOrdering(g)
		want, got := peel.Reverse(), graph.ListingOrdering(g)
		if !slices.Equal(got.Rank, want.Rank) || !slices.Equal(got.ByRank, want.ByRank) {
			t.Errorf("%s: ListingOrdering is not the reversed degeneracy order", name)
		}
		listing := testing.AllocsPerRun(3, func() { graph.ListingOrdering(g) })
		degeneracy := testing.AllocsPerRun(3, func() { graph.DegeneracyOrdering(g) })
		if listing != degeneracy {
			t.Errorf("%s: ListingOrdering made %.0f allocations, DegeneracyOrdering %.0f", name, listing, degeneracy)
		}
	}
}
