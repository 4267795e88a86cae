package kclique

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestForEachK2EnumeratesEdges(t *testing.T) {
	g := randomGraph(25, 0.3, 60)
	d := listingDAG(g)
	count := 0
	ForEach(d, 2, func(c []int32) bool {
		if len(c) != 2 || !g.HasEdge(c[0], c[1]) {
			t.Fatalf("bad 2-clique %v", c)
		}
		count++
		return true
	})
	if count != g.M() {
		t.Fatalf("2-cliques = %d, want M = %d", count, g.M())
	}
}

func TestForEachInvalidK(t *testing.T) {
	g := randomGraph(10, 0.5, 61)
	d := listingDAG(g)
	called := false
	ForEach(d, 1, func([]int32) bool { called = true; return true })
	ForEach(d, 0, func([]int32) bool { called = true; return true })
	ForEach(d, -3, func([]int32) bool { called = true; return true })
	if called {
		t.Fatal("k < 2 must enumerate nothing")
	}
}

func TestBipartiteHasNoTriangles(t *testing.T) {
	// K_{5,5}: no odd cycles, so no k-cliques for k >= 3.
	b := graph.NewBuilder(10)
	for u := 0; u < 5; u++ {
		for v := 5; v < 10; v++ {
			b.AddEdge(int32(u), int32(v))
		}
	}
	g := b.MustBuild()
	for k := 3; k <= 5; k++ {
		total, scores := ScoreGraph(g, k, 1)
		if total != 0 {
			t.Fatalf("K5,5 has %d %d-cliques", total, k)
		}
		for u, s := range scores {
			if s != 0 {
				t.Fatalf("score[%d] = %d on a bipartite graph", u, s)
			}
		}
	}
}

func TestCompleteMultipartiteTriangles(t *testing.T) {
	// K_{3,3,3}: a triangle takes one node per part → 3*3*3 = 27.
	b := graph.NewBuilder(9)
	part := func(u int32) int32 { return u / 3 }
	for u := int32(0); u < 9; u++ {
		for v := u + 1; v < 9; v++ {
			if part(u) != part(v) {
				b.AddEdge(u, v)
			}
		}
	}
	g := b.MustBuild()
	total, scores := ScoreGraph(g, 3, 1)
	if total != 27 {
		t.Fatalf("K3,3,3 triangles = %d, want 27", total)
	}
	// Symmetry: every node is in exactly 9 triangles.
	for u, s := range scores {
		if s != 9 {
			t.Fatalf("score[%d] = %d, want 9", u, s)
		}
	}
}

func TestTuranStyleDenseCounts(t *testing.T) {
	// K10: C(10,k) k-cliques.
	b := graph.NewBuilder(10)
	for u := 0; u < 10; u++ {
		for v := u + 1; v < 10; v++ {
			b.AddEdge(int32(u), int32(v))
		}
	}
	d := listingDAG(b.MustBuild())
	want := map[int]uint64{3: 120, 4: 210, 5: 252, 6: 210, 7: 120}
	for k, w := range want {
		total, _ := Count(d, k, 0)
		if total != w {
			t.Fatalf("K10 %d-cliques = %d, want %d", k, total, w)
		}
	}
}

func TestFindMinStrictReturnsLexSmallest(t *testing.T) {
	// Among min-score cliques rooted at a node, strict mode must return
	// the lexicographically smallest sorted member list.
	for seed := int64(70); seed < 76; seed++ {
		g := randomGraph(18, 0.5, seed)
		k := 3
		_, scores := ScoreGraph(g, k, 1)
		ord := graph.ScoreOrdering(g, scores)
		d := graph.Orient(g, ord)
		for u := int32(0); int(u) < g.N(); u++ {
			got, gotScore, ok := FindMinStrict(nil, d, k, u, scores, nil, true, nil)
			if !ok {
				continue
			}
			// Enumerate all cliques rooted at u with the same score and
			// compare canonically.
			ForEach(d, k, func(c []int32) bool {
				if c[0] != u {
					return true
				}
				var s int64
				for _, x := range c {
					s += scores[x]
				}
				if s == gotScore && slices.Compare(sorted(c), sorted(got)) < 0 {
					t.Fatalf("seed=%d u=%d: %v beats returned %v", seed, u, c, got)
				}
				if s < gotScore {
					t.Fatalf("seed=%d u=%d: found smaller score %d < %d", seed, u, s, gotScore)
				}
				return true
			})
		}
	}
}

func TestCountWithDeadlineExpires(t *testing.T) {
	g := randomGraph(80, 0.4, 80)
	d := listingDAG(g)
	_, _, err := CountWithDeadline(d, 5, 1, time.Now().Add(-time.Second))
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	// A generous deadline must succeed and agree with Count.
	total1, _, err := CountWithDeadline(d, 3, 1, time.Now().Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	total2, _ := Count(d, 3, 1)
	if total1 != total2 {
		t.Fatalf("deadline run total %d != plain %d", total1, total2)
	}
}

// TestQuickScoreSumIdentity: Σ s_n = k · total on arbitrary random graphs.
func TestQuickScoreSumIdentity(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		k := int(kRaw)%4 + 3 // 3..6
		g := randomGraph(22, 0.35, seed)
		total, scores := ScoreGraph(g, k, 0)
		var sum int64
		for _, s := range scores {
			sum += s
		}
		return sum == int64(k)*int64(total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestQuickFindOneAgreesWithEnumeration: FindOne succeeds exactly when the
// root owns a clique.
func TestQuickFindOneAgreesWithEnumeration(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(20, 0.3, seed)
		d := listingDAG(g)
		owners := map[int32]bool{}
		ForEach(d, 3, func(c []int32) bool { owners[c[0]] = true; return true })
		for u := int32(0); int(u) < g.N(); u++ {
			if _, ok := FindOne(d, 3, u, nil, nil); ok != owners[u] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// sorted returns an ascending copy of a clique's members.
func sorted(c []int32) []int32 {
	s := slices.Clone(c)
	slices.Sort(s)
	return s
}

func TestCliqueLexLess(t *testing.T) {
	cases := []struct {
		a, b []int32
		want bool
	}{
		{[]int32{3, 1, 2}, []int32{1, 2, 4}, true},  // sorted {1,2,3} < {1,2,4}
		{[]int32{1, 2, 4}, []int32{3, 1, 2}, false}, // reverse
		{[]int32{1, 2}, []int32{1, 2, 3}, true},     // prefix shorter
		{[]int32{1, 2, 3}, []int32{1, 2, 3}, false}, // equal
	}
	sc := NewScratch(3, 0)
	for _, tc := range cases {
		a, b := slices.Clone(tc.a), slices.Clone(tc.b)
		if got := sc.lexLess(a, b); got != tc.want {
			t.Errorf("lexLess(%v,%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
		if !slices.Equal(a, tc.a) || !slices.Equal(b, tc.b) {
			t.Errorf("lexLess(%v,%v) reordered its inputs to %v, %v", tc.a, tc.b, a, b)
		}
	}
}

// TestFindMinStrictAllocatesLikeFindMin: breaking a score tie compares
// sorted copies in the scratch's buffers, so over every root of a score
// DAG with many ties FindMinStrict allocates exactly what FindMin does:
// nothing, when each result goes to a caller's buffer of k members.
func TestFindMinStrictAllocatesLikeFindMin(t *testing.T) {
	g := gen.CommunitySocial(4000, 16, 0.2, 40000, 5)
	k := 4
	_, score := Count(listingDAG(g), k, 1)
	d := graph.Orient(g, graph.ScoreOrdering(g, score))
	sc := NewScratch(k, g.MaxDegree())
	buf := make([]int32, 0, k)
	allocs := func(find func([]int32, *graph.DAG, int, int32, []int64, []bool, bool, *Scratch) ([]int32, int64, bool)) float64 {
		return testing.AllocsPerRun(2, func() {
			for u := int32(0); int(u) < g.N(); u++ {
				find(buf, d, k, u, score, nil, true, sc)
			}
		})
	}
	if plain, strict := allocs(FindMin), allocs(FindMinStrict); strict != plain || plain != 0 {
		t.Fatalf("over %d roots FindMinStrict made %.0f allocations, FindMin %.0f; want 0", g.N(), strict, plain)
	}
}
