package dynamic

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// TestGreedyDisjointOrderFree pins that greedyDisjoint's selection
// depends only on the set of cliques it is given: a reversed and a
// shuffled copy of the input, whose scores tie in pairs, select the same
// member lists in the same order, ties broken by member list.
func TestGreedyDisjointOrderFree(t *testing.T) {
	// Local scores: {0,1,2} 4, {2,3,4} 5, {5,6,7} 3, {8,9,10} 3,
	// {4,11,12} 4. {2,3,4} meets both cliques of score 4.
	cliques := [][]int32{{0, 1, 2}, {2, 3, 4}, {8, 9, 10}, {5, 6, 7}, {4, 11, 12}}
	want := [][]int32{{5, 6, 7}, {8, 9, 10}, {0, 1, 2}, {4, 11, 12}}
	reversed := slices.Clone(cliques)
	slices.Reverse(reversed)
	shuffled := slices.Clone(cliques)
	rand.New(rand.NewSource(3)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	sc := newEnumScratch(3)
	for _, in := range [][][]int32{cliques, reversed, shuffled} {
		got := slices.Clone(greedyDisjoint(sc, in))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("greedyDisjoint(%v) = %v, want %v", in, got, want)
		}
	}
}
