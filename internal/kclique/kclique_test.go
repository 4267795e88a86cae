package kclique

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

func randomGraph(n int, p float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				b.AddEdge(int32(u), int32(v))
			}
		}
	}
	return b.MustBuild()
}

func listingDAG(g *graph.Graph) *graph.DAG {
	return graph.Orient(g, graph.ListingOrdering(g))
}

// bruteForce enumerates all k-cliques by checking every k-subset.
func bruteForce(g *graph.Graph, k int) [][]int32 {
	var out [][]int32
	n := g.N()
	idx := make([]int32, k)
	var rec func(start int32, depth int)
	rec = func(start int32, depth int) {
		if depth == k {
			out = append(out, append([]int32(nil), idx...))
			return
		}
		for v := start; int(v) < n; v++ {
			ok := true
			for i := 0; i < depth; i++ {
				if !g.HasEdge(idx[i], v) {
					ok = false
					break
				}
			}
			if ok {
				idx[depth] = v
				rec(v+1, depth+1)
			}
		}
	}
	rec(0, 0)
	return out
}

func canonical(c []int32) string {
	s := append([]int32(nil), c...)
	slices.Sort(s)
	b := make([]byte, 0, len(s)*4)
	for _, v := range s {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(b)
}

func isClique(g *graph.Graph, c []int32) bool {
	for i := range c {
		for j := i + 1; j < len(c); j++ {
			if c[i] == c[j] || !g.HasEdge(c[i], c[j]) {
				return false
			}
		}
	}
	return true
}

func TestForEachMatchesBruteForce(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		seed int64
	}{
		{12, 0.5, 1}, {15, 0.4, 2}, {20, 0.3, 3}, {10, 0.9, 4},
	} {
		g := randomGraph(tc.n, tc.p, tc.seed)
		d := listingDAG(g)
		for k := 2; k <= 5; k++ {
			want := map[string]bool{}
			for _, c := range bruteForce(g, k) {
				want[canonical(c)] = true
			}
			got := map[string]bool{}
			ForEach(d, k, func(c []int32) bool {
				if len(c) != k {
					t.Fatalf("clique length %d, want %d", len(c), k)
				}
				if !isClique(g, c) {
					t.Fatalf("ForEach produced a non-clique %v", c)
				}
				key := canonical(c)
				if got[key] {
					t.Fatalf("clique %v enumerated twice", c)
				}
				got[key] = true
				return true
			})
			if len(got) != len(want) {
				t.Fatalf("n=%d p=%v k=%d: got %d cliques, want %d", tc.n, tc.p, k, len(got), len(want))
			}
			for key := range want {
				if !got[key] {
					t.Fatalf("n=%d k=%d: brute-force clique missing from ForEach", tc.n, k)
				}
			}
		}
	}
}

func TestForEachEarlyStop(t *testing.T) {
	g := randomGraph(20, 0.5, 5)
	d := listingDAG(g)
	calls := 0
	ForEach(d, 3, func(c []int32) bool {
		calls++
		return calls < 3
	})
	if calls != 3 {
		t.Fatalf("expected exactly 3 callbacks, got %d", calls)
	}
}

func TestForEachTriangleCountKnown(t *testing.T) {
	// K5 has C(5,3)=10 triangles, C(5,4)=5 4-cliques, 1 5-clique.
	b := graph.NewBuilder(5)
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			b.AddEdge(int32(u), int32(v))
		}
	}
	d := listingDAG(b.MustBuild())
	for k, want := range map[int]int{2: 10, 3: 10, 4: 5, 5: 1, 6: 0} {
		got := 0
		ForEach(d, k, func([]int32) bool { got++; return true })
		if got != want {
			t.Errorf("K5 %d-cliques = %d, want %d", k, got, want)
		}
	}
}

func TestCountMatchesEnumeration(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := randomGraph(40, 0.25, 10+seed)
		d := listingDAG(g)
		for k := 3; k <= 6; k++ {
			wantTotal, wantScores := CountNaive(d, k)
			for _, workers := range []int{1, 4} {
				total, scores := Count(d, k, workers)
				if total != wantTotal {
					t.Fatalf("seed=%d k=%d workers=%d: total=%d want %d", seed, k, workers, total, wantTotal)
				}
				for u := range scores {
					if scores[u] != wantScores[u] {
						t.Fatalf("seed=%d k=%d: score[%d]=%d want %d", seed, k, u, scores[u], wantScores[u])
					}
				}
			}
			total, scores := CountSerial(d, k)
			if total != wantTotal {
				t.Fatalf("CountSerial seed=%d k=%d: total=%d want %d", seed, k, total, wantTotal)
			}
			for u := range scores {
				if scores[u] != wantScores[u] {
					t.Fatalf("CountSerial score mismatch at %d", u)
				}
			}
		}
	}
}

func TestScoreSumIdentity(t *testing.T) {
	// Σ_u s_n(u) = k * (#k-cliques): each clique contributes to k nodes.
	g := randomGraph(50, 0.2, 20)
	for k := 3; k <= 5; k++ {
		total, scores := ScoreGraph(g, k, 0)
		var sum int64
		for _, s := range scores {
			sum += s
		}
		if sum != int64(k)*int64(total) {
			t.Errorf("k=%d: Σ scores = %d, want k*total = %d", k, sum, int64(k)*int64(total))
		}
	}
}

func TestCountEmptyAndTiny(t *testing.T) {
	empty := graph.NewBuilder(0).MustBuild()
	total, scores := ScoreGraph(empty, 3, 0)
	if total != 0 || len(scores) != 0 {
		t.Error("empty graph should have no cliques")
	}
	single, _ := graph.FromEdges(1, nil)
	total, _ = ScoreGraph(single, 3, 0)
	if total != 0 {
		t.Error("single node has no 3-cliques")
	}
	tri, _ := graph.FromEdges(3, [][2]int32{{0, 1}, {1, 2}, {0, 2}})
	total, scores = ScoreGraph(tri, 3, 0)
	if total != 1 {
		t.Errorf("triangle 3-clique count = %d, want 1", total)
	}
	for u, s := range scores {
		if s != 1 {
			t.Errorf("triangle score[%d] = %d, want 1", u, s)
		}
	}
}

func TestFindOne(t *testing.T) {
	g := randomGraph(30, 0.3, 30)
	d := listingDAG(g)
	k := 3
	// Collect roots that own at least one clique (max-rank member).
	owners := map[int32]bool{}
	ForEach(d, k, func(c []int32) bool {
		owners[c[0]] = true // c[0] is the root in our enumeration
		return true
	})
	sc := NewScratch(k, g.MaxDegree())
	for u := int32(0); int(u) < g.N(); u++ {
		c, ok := FindOne(d, k, u, nil, sc)
		if ok != owners[u] {
			t.Fatalf("FindOne(%d) found=%v, enumeration says %v", u, ok, owners[u])
		}
		if ok {
			if len(c) != k || c[0] != u || !isClique(g, c) {
				t.Fatalf("FindOne(%d) returned bad clique %v", u, c)
			}
		}
	}
}

func TestFindOneRespectsValid(t *testing.T) {
	// Triangle 0-1-2; invalidate 2 → no triangle rooted anywhere.
	g, _ := graph.FromEdges(4, [][2]int32{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	d := listingDAG(g)
	valid := []bool{true, true, false, true}
	for u := int32(0); u < 4; u++ {
		if c, ok := FindOne(d, 3, u, valid, nil); ok {
			t.Fatalf("FindOne(%d) found %v despite invalid node", u, c)
		}
	}
	valid[2] = true
	found := false
	for u := int32(0); u < 4; u++ {
		if _, ok := FindOne(d, 3, u, valid, nil); ok {
			found = true
		}
	}
	if !found {
		t.Fatal("triangle should be findable when all nodes valid")
	}
}

// minScoreRooted finds, by enumeration, the min clique score among k-cliques
// whose max-rank member is root.
func minScoreRooted(d *graph.DAG, k int, root int32, scores []int64) (int64, bool) {
	best := int64(math.MaxInt64)
	found := false
	ForEach(d, k, func(c []int32) bool {
		if c[0] != root {
			return true
		}
		var s int64
		for _, u := range c {
			s += scores[u]
		}
		if s < best {
			best = s
		}
		found = true
		return true
	})
	return best, found
}

func TestFindMinMatchesEnumeration(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		g := randomGraph(25, 0.4, 40+seed)
		for k := 3; k <= 5; k++ {
			_, scores := ScoreGraph(g, k, 1)
			ord := graph.ScoreOrdering(g, scores)
			d := graph.Orient(g, ord)
			sc := NewScratch(k, g.MaxDegree())
			for u := int32(0); int(u) < g.N(); u++ {
				wantScore, wantFound := minScoreRooted(d, k, u, scores)
				for _, prune := range []bool{false, true} {
					c, s, ok := FindMin(nil, d, k, u, scores, nil, prune, sc)
					if ok != wantFound {
						t.Fatalf("seed=%d k=%d u=%d prune=%v: found=%v want %v", seed, k, u, prune, ok, wantFound)
					}
					if !ok {
						continue
					}
					if s != wantScore {
						t.Fatalf("seed=%d k=%d u=%d prune=%v: score=%d want %d", seed, k, u, prune, s, wantScore)
					}
					if !isClique(g, c) || c[0] != u || len(c) != k {
						t.Fatalf("FindMin returned bad clique %v", c)
					}
					var check int64
					for _, x := range c {
						check += scores[x]
					}
					if check != s {
						t.Fatalf("reported score %d != recomputed %d", s, check)
					}
				}
			}
		}
	}
}

func TestFindMinRespectsValid(t *testing.T) {
	// Two triangles sharing root structure: 0-1-2 and 0-3-4 via ranks.
	g, _ := graph.FromEdges(5, [][2]int32{{0, 1}, {1, 2}, {0, 2}, {0, 3}, {3, 4}, {0, 4}})
	_, scores := ScoreGraph(g, 3, 1)
	ord := graph.ScoreOrdering(g, scores)
	d := graph.Orient(g, ord)
	// Find the root that owns both triangles (node 0 has max score).
	root := int32(0)
	if ord.Rank[0] != int32(g.N()-1) {
		t.Skipf("node 0 not max rank; layout changed")
	}
	valid := []bool{true, true, true, true, true}
	c1, _, ok := FindMin(nil, d, 3, root, scores, valid, true, nil)
	if !ok {
		t.Fatal("expected a triangle at root")
	}
	// Invalidate one non-root member of the found triangle; the other
	// triangle must be found.
	for _, v := range c1[1:] {
		valid[v] = false
		break
	}
	c2, _, ok := FindMin(nil, d, 3, root, scores, valid, true, nil)
	if !ok {
		t.Fatal("expected the second triangle after invalidation")
	}
	for _, v := range c2 {
		if !valid[v] {
			t.Fatalf("FindMin used invalid node %d", v)
		}
	}
}

func TestFindMinPruneEquivalence(t *testing.T) {
	// Pruning must never change the returned minimum score.
	for seed := int64(100); seed < 110; seed++ {
		g := randomGraph(20, 0.5, seed)
		k := 4
		_, scores := ScoreGraph(g, k, 1)
		ord := graph.ScoreOrdering(g, scores)
		d := graph.Orient(g, ord)
		for u := int32(0); int(u) < g.N(); u++ {
			_, s1, ok1 := FindMin(nil, d, k, u, scores, nil, false, nil)
			_, s2, ok2 := FindMin(nil, d, k, u, scores, nil, true, nil)
			if ok1 != ok2 || (ok1 && s1 != s2) {
				t.Fatalf("seed=%d u=%d: prune changed result (%v,%d) vs (%v,%d)", seed, u, ok1, s1, ok2, s2)
			}
		}
	}
}

func TestIntersect(t *testing.T) {
	cases := []struct{ a, b, want []int32 }{
		{[]int32{1, 3, 5, 7}, []int32{3, 4, 5, 8}, []int32{3, 5}},
		{[]int32{}, []int32{1, 2}, []int32{}},
		{[]int32{1, 2, 3}, []int32{1, 2, 3}, []int32{1, 2, 3}},
		{[]int32{1, 2}, []int32{3, 4}, []int32{}},
	}
	for _, tc := range cases {
		got := intersect(nil, tc.a, tc.b)
		if len(got) != len(tc.want) {
			t.Fatalf("intersect(%v,%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("intersect(%v,%v) = %v, want %v", tc.a, tc.b, got, tc.want)
			}
		}
	}
}

func TestScratchReuse(t *testing.T) {
	g := randomGraph(30, 0.3, 50)
	d := listingDAG(g)
	sc := NewScratch(3, g.MaxDegree())
	// Interleave FindOne calls; results must stay consistent with fresh
	// scratch.
	for u := int32(0); int(u) < g.N(); u++ {
		c1, ok1 := FindOne(d, 3, u, nil, sc)
		c2, ok2 := FindOne(d, 3, u, nil, nil)
		if ok1 != ok2 {
			t.Fatalf("scratch reuse changed result for %d", u)
		}
		if ok1 && canonical(c1) != canonical(c2) {
			t.Fatalf("scratch reuse changed clique for %d: %v vs %v", u, c1, c2)
		}
	}
}
