package graph

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// buildPath returns the path 0-1-2-...-(n-1).
func buildPath(t *testing.T, n int) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

// randomGraph returns a seeded G(n, p) graph.
func randomGraph(n int, p float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				b.AddEdge(int32(u), int32(v))
			}
		}
	}
	return b.MustBuild()
}

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate reversed
	b.AddEdge(1, 2)
	b.AddEdge(2, 2) // self-loop dropped
	b.AddEdge(2, 3)
	b.AddEdge(2, 3) // duplicate
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if g.N() != 4 {
		t.Errorf("N = %d, want 4", g.N())
	}
	if g.M() != 3 {
		t.Errorf("M = %d, want 3", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) || !g.HasEdge(2, 3) {
		t.Error("missing expected edges")
	}
	if g.HasEdge(0, 2) || g.HasEdge(2, 2) {
		t.Error("unexpected edge present")
	}
	if d := g.Degree(2); d != 2 {
		t.Errorf("Degree(2) = %d, want 2", d)
	}
}

func TestBuilderOutOfRange(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 5)
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error for out-of-range endpoint")
	}
	b2 := NewBuilder(2)
	b2.AddEdge(-1, 0)
	if _, err := b2.Build(); err == nil {
		t.Fatal("expected error for negative endpoint")
	}
}

func TestGrowingBuilder(t *testing.T) {
	b := NewGrowingBuilder()
	b.AddEdge(0, 7)
	b.AddEdge(3, 2)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if g.N() != 8 {
		t.Errorf("N = %d, want 8", g.N())
	}
	if g.M() != 2 {
		t.Errorf("M = %d, want 2", g.M())
	}
}

func TestEmptyGraph(t *testing.T) {
	g, err := NewBuilder(0).Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if g.N() != 0 || g.M() != 0 || g.MaxDegree() != 0 {
		t.Error("empty graph should have zero everything")
	}
	g.Edges(func(u, v int32) bool { t.Error("no edges expected"); return false })
}

func TestNeighborsSorted(t *testing.T) {
	g := randomGraph(60, 0.2, 1)
	for u := int32(0); int(u) < g.N(); u++ {
		nb := g.Neighbors(u)
		if !sort.SliceIsSorted(nb, func(i, j int) bool { return nb[i] < nb[j] }) {
			t.Fatalf("Neighbors(%d) not sorted: %v", u, nb)
		}
		for i := 1; i < len(nb); i++ {
			if nb[i] == nb[i-1] {
				t.Fatalf("Neighbors(%d) has duplicate %d", u, nb[i])
			}
		}
	}
}

func TestHasEdgeMatchesNeighbors(t *testing.T) {
	g := randomGraph(50, 0.15, 2)
	for u := int32(0); int(u) < g.N(); u++ {
		present := make(map[int32]bool)
		for _, v := range g.Neighbors(u) {
			present[v] = true
		}
		for v := int32(0); int(v) < g.N(); v++ {
			if g.HasEdge(u, v) != present[v] {
				t.Fatalf("HasEdge(%d,%d) = %v, adjacency says %v", u, v, g.HasEdge(u, v), present[v])
			}
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := randomGraph(40, 0.2, 3)
	edges := g.EdgeList()
	if len(edges) != g.M() {
		t.Fatalf("EdgeList len = %d, want %d", len(edges), g.M())
	}
	g2, err := FromEdges(g.N(), edges)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	if g2.M() != g.M() {
		t.Fatalf("round trip lost edges: %d vs %d", g2.M(), g.M())
	}
	for _, e := range edges {
		if !g2.HasEdge(e[0], e[1]) {
			t.Fatalf("edge %v missing after round trip", e)
		}
	}
}

func TestClone(t *testing.T) {
	g := randomGraph(30, 0.3, 4)
	c := g.Clone()
	if c.N() != g.N() || c.M() != g.M() {
		t.Fatal("clone size mismatch")
	}
	g.Edges(func(u, v int32) bool {
		if !c.HasEdge(u, v) {
			t.Fatalf("clone missing edge (%d,%d)", u, v)
		}
		return true
	})
}

func TestInduced(t *testing.T) {
	// Triangle 0-1-2 plus pendant 3 attached to 2.
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	b.AddEdge(2, 3)
	g := b.MustBuild()

	sub, ids := g.Induced([]int32{2, 0, 1, 0}) // unsorted + dup
	if sub.N() != 3 {
		t.Fatalf("sub.N = %d, want 3", sub.N())
	}
	if sub.M() != 3 {
		t.Fatalf("sub.M = %d, want 3 (triangle)", sub.M())
	}
	want := []int32{0, 1, 2}
	for i, id := range ids {
		if id != want[i] {
			t.Fatalf("ids = %v, want %v", ids, want)
		}
	}

	sub2, _ := g.Induced([]int32{0, 3})
	if sub2.M() != 0 {
		t.Fatalf("induced {0,3} should have no edges, got %d", sub2.M())
	}
}

func TestInducedProperty(t *testing.T) {
	g := randomGraph(40, 0.25, 5)
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 25; trial++ {
		var nodes []int32
		for u := 0; u < g.N(); u++ {
			if rng.Float64() < 0.4 {
				nodes = append(nodes, int32(u))
			}
		}
		sub, ids := g.Induced(nodes)
		// Every sub edge maps to a real edge; every pair of kept nodes that
		// is adjacent in g must be adjacent in sub.
		sub.Edges(func(a, bb int32) bool {
			if !g.HasEdge(ids[a], ids[bb]) {
				t.Fatalf("induced edge (%d,%d) not in parent", ids[a], ids[bb])
			}
			return true
		})
		for i := range ids {
			for j := i + 1; j < len(ids); j++ {
				if g.HasEdge(ids[i], ids[j]) != sub.HasEdge(int32(i), int32(j)) {
					t.Fatalf("induced adjacency mismatch for (%d,%d)", ids[i], ids[j])
				}
			}
		}
	}
}

func TestDegreeOrdering(t *testing.T) {
	g := buildPath(t, 5) // degrees: 1,2,2,2,1
	ord := DegreeOrdering(g)
	// Ranks must be a permutation.
	seen := make([]bool, g.N())
	for _, r := range ord.Rank {
		if r < 0 || int(r) >= g.N() || seen[r] {
			t.Fatalf("Rank is not a permutation: %v", ord.Rank)
		}
		seen[r] = true
	}
	// Ascending degree along ByRank.
	for i := 1; i < g.N(); i++ {
		if g.Degree(ord.ByRank[i]) < g.Degree(ord.ByRank[i-1]) {
			t.Fatalf("ByRank not ascending by degree")
		}
	}
	// Inverse relation.
	for u := 0; u < g.N(); u++ {
		if ord.ByRank[ord.Rank[u]] != int32(u) {
			t.Fatal("ByRank/Rank not inverse")
		}
	}
	// The counting sort ranks exactly like the (degree, id) comparison
	// sort of orderBy.
	for seed := int64(0); seed < 5; seed++ {
		g := randomGraph(60, 0.1+0.1*float64(seed), seed)
		got := DegreeOrdering(g)
		want := orderBy(g, func(u int32) int64 { return int64(g.Degree(u)) })
		if !slices.Equal(got.Rank, want.Rank) || !slices.Equal(got.ByRank, want.ByRank) {
			t.Fatalf("seed %d: DegreeOrdering %v, (degree, id) sort %v", seed, got.ByRank, want.ByRank)
		}
	}
}

func TestScoreOrdering(t *testing.T) {
	g := buildPath(t, 4)
	score := []int64{10, 0, 5, 0}
	ord := ScoreOrdering(g, score)
	// Node 0 has the largest score, so the largest rank.
	if ord.Rank[0] != 3 {
		t.Errorf("Rank[0] = %d, want 3", ord.Rank[0])
	}
	// Ties (nodes 1 and 3, scores 0) broken by degree: deg(3)=1 < deg(1)=2.
	if !(ord.Rank[3] < ord.Rank[1]) {
		t.Errorf("tie-break by degree failed: rank3=%d rank1=%d", ord.Rank[3], ord.Rank[1])
	}
}

// orderBy is the comparison-sort reference for the counting and radix
// orderings: nodes are ranked ascending by (key, degree, id).
func orderBy(g *Graph, key func(u int32) int64) Ordering {
	n := g.N()
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int {
		if c := cmp.Compare(key(a), key(b)); c != 0 {
			return c
		}
		if c := cmp.Compare(g.Degree(a), g.Degree(b)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	rank := make([]int32, n)
	for r, u := range perm {
		rank[u] = int32(r)
	}
	return Ordering{Rank: rank, ByRank: perm}
}

// TestScoreOrderingMatchesComparisonSort checks the radix sort against
// orderBy on score vectors that need zero, one and many passes: all
// equal, a small span, negative scores, spans past 2^40 and the full
// int64 range.
func TestScoreOrderingMatchesComparisonSort(t *testing.T) {
	draws := []struct {
		name string
		draw func(rng *rand.Rand) int64
	}{
		{"all equal", func(*rand.Rand) int64 { return 7 }},
		{"byte span", func(rng *rand.Rand) int64 { return rng.Int63n(140) }},
		{"few values", func(rng *rand.Rand) int64 { return rng.Int63n(3) * 256 }},
		{"negative", func(rng *rand.Rand) int64 { return rng.Int63n(2000) - 1000 }},
		{"2^40 span", func(rng *rand.Rand) int64 { return rng.Int63n(1<<42) - 1<<41 }},
		{"int64 range", func(rng *rand.Rand) int64 {
			switch rng.Intn(4) {
			case 0:
				return math.MinInt64
			case 1:
				return math.MaxInt64
			}
			return int64(rng.Uint64())
		}},
	}
	for _, d := range draws {
		for seed := int64(0); seed < 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			g := randomGraph(40+int(seed)*20, 0.08, seed)
			score := make([]int64, g.N())
			for i := range score {
				score[i] = d.draw(rng)
			}
			got := ScoreOrdering(g, score)
			want := orderBy(g, func(u int32) int64 { return score[u] })
			if !slices.Equal(got.Rank, want.Rank) || !slices.Equal(got.ByRank, want.ByRank) {
				t.Fatalf("%s, seed %d: ScoreOrdering %v, (score, degree, id) sort %v", d.name, seed, got.ByRank, want.ByRank)
			}
		}
	}
	if ord := ScoreOrdering(NewBuilder(0).MustBuild(), nil); len(ord.Rank) != 0 || len(ord.ByRank) != 0 {
		t.Fatalf("empty graph: %+v", ord)
	}
}

// naiveDegeneracy removes min-degree nodes with a quadratic scan.
func naiveDegeneracy(g *Graph) int {
	n := g.N()
	deg := make([]int, n)
	removed := make([]bool, n)
	for u := 0; u < n; u++ {
		deg[u] = g.Degree(int32(u))
	}
	degeneracy := 0
	for it := 0; it < n; it++ {
		best, bd := -1, 1<<30
		for u := 0; u < n; u++ {
			if !removed[u] && deg[u] < bd {
				best, bd = u, deg[u]
			}
		}
		if bd > degeneracy {
			degeneracy = bd
		}
		removed[best] = true
		for _, v := range g.Neighbors(int32(best)) {
			if !removed[v] {
				deg[v]--
			}
		}
	}
	return degeneracy
}

func TestDegeneracyOrdering(t *testing.T) {
	cases := []*Graph{
		buildPath(t, 10),
		randomGraph(30, 0.2, 7),
		randomGraph(50, 0.1, 8),
		randomGraph(25, 0.5, 9),
	}
	for i, g := range cases {
		ord, d := DegeneracyOrdering(g)
		if want := naiveDegeneracy(g); d != want {
			t.Errorf("case %d: degeneracy = %d, want %d", i, d, want)
		}
		// Permutation check.
		seen := make([]bool, g.N())
		for _, r := range ord.Rank {
			if seen[r] {
				t.Fatalf("case %d: rank not a permutation", i)
			}
			seen[r] = true
		}
		// Core-ordering property: each node has at most `degeneracy`
		// neighbours with larger rank.
		for u := int32(0); int(u) < g.N(); u++ {
			later := 0
			for _, v := range g.Neighbors(u) {
				if ord.Rank[v] > ord.Rank[u] {
					later++
				}
			}
			if later > d {
				t.Errorf("case %d: node %d has %d later neighbours > degeneracy %d", i, u, later, d)
			}
		}
	}
}

func TestDegeneracyCompleteGraph(t *testing.T) {
	n := 8
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(int32(u), int32(v))
		}
	}
	_, d := DegeneracyOrdering(b.MustBuild())
	if d != n-1 {
		t.Errorf("K%d degeneracy = %d, want %d", n, d, n-1)
	}
}

func TestOrientDAG(t *testing.T) {
	g := randomGraph(40, 0.25, 10)
	ord := DegreeOrdering(g)
	dag := Orient(g, ord)
	// Every edge appears in exactly one direction; out-neighbours have
	// smaller rank.
	totalOut := 0
	for u := int32(0); int(u) < g.N(); u++ {
		totalOut += dag.OutDegree(u)
		for _, v := range dag.Out(u) {
			if ord.Rank[v] >= ord.Rank[u] {
				t.Fatalf("out-neighbour %d of %d has rank %d >= %d", v, u, ord.Rank[v], ord.Rank[u])
			}
			if !g.HasEdge(u, v) {
				t.Fatalf("DAG edge (%d,%d) not in graph", u, v)
			}
		}
	}
	if totalOut != g.M() {
		t.Fatalf("sum of out-degrees = %d, want M = %d", totalOut, g.M())
	}
}

func TestOrientDegeneracyBound(t *testing.T) {
	g := randomGraph(60, 0.15, 11)
	ord, d := DegeneracyOrdering(g)
	// Under degeneracy ordering with out = smaller rank, IN-degree is
	// bounded by degeneracy; flip by reversing ranks to get the bounded
	// out-degree orientation used by clique listing.
	rev := Ordering{Rank: make([]int32, g.N()), ByRank: make([]int32, g.N())}
	n := int32(g.N())
	for u := range ord.Rank {
		rev.Rank[u] = n - 1 - ord.Rank[u]
	}
	for r, u := range ord.ByRank {
		rev.ByRank[n-1-int32(r)] = u
	}
	dag := Orient(g, rev)
	for u := int32(0); int(u) < g.N(); u++ {
		if dag.OutDegree(u) > d {
			t.Fatalf("node %d out-degree %d exceeds degeneracy %d", u, dag.OutDegree(u), d)
		}
	}
}

func TestDynamicBasic(t *testing.T) {
	d := NewDynamic(5)
	if !d.InsertEdge(0, 1) {
		t.Fatal("insert should succeed")
	}
	if d.InsertEdge(0, 1) || d.InsertEdge(1, 0) {
		t.Fatal("duplicate insert should fail")
	}
	if d.InsertEdge(2, 2) {
		t.Fatal("self-loop insert should fail")
	}
	if d.M() != 1 || !d.HasEdge(1, 0) {
		t.Fatal("edge state wrong after insert")
	}
	if !d.DeleteEdge(1, 0) {
		t.Fatal("delete should succeed")
	}
	if d.DeleteEdge(0, 1) {
		t.Fatal("double delete should fail")
	}
	if d.M() != 0 || d.HasEdge(0, 1) {
		t.Fatal("edge state wrong after delete")
	}
}

func TestDynamicFromAndSnapshot(t *testing.T) {
	g := randomGraph(30, 0.3, 12)
	d := DynamicFrom(g)
	if d.M() != g.M() || d.N() != g.N() {
		t.Fatal("DynamicFrom size mismatch")
	}
	g.Edges(func(u, v int32) bool {
		if !d.HasEdge(u, v) {
			t.Fatalf("dynamic missing edge (%d,%d)", u, v)
		}
		return true
	})
	s := d.Snapshot()
	if s.M() != g.M() {
		t.Fatal("snapshot size mismatch")
	}
}

func TestDynamicIsClique(t *testing.T) {
	d := NewDynamic(4)
	d.InsertEdge(0, 1)
	d.InsertEdge(1, 2)
	d.InsertEdge(0, 2)
	if !d.IsClique([]int32{0, 1, 2}) {
		t.Error("triangle should be a clique")
	}
	if d.IsClique([]int32{0, 1, 3}) {
		t.Error("{0,1,3} should not be a clique")
	}
	if d.IsClique([]int32{0, 0, 1}) {
		t.Error("duplicate nodes should not be a clique")
	}
	if !d.IsClique([]int32{2}) || !d.IsClique(nil) {
		t.Error("singleton and empty sets are trivially cliques")
	}
}

func TestDynamicRandomOpsMatchReference(t *testing.T) {
	const n = 20
	d := NewDynamic(n)
	ref := make(map[[2]int32]bool)
	key := func(u, v int32) [2]int32 {
		if u > v {
			u, v = v, u
		}
		return [2]int32{u, v}
	}
	rng := rand.New(rand.NewSource(13))
	for op := 0; op < 5000; op++ {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		if u == v {
			continue
		}
		if rng.Float64() < 0.6 {
			got := d.InsertEdge(u, v)
			want := !ref[key(u, v)]
			if got != want {
				t.Fatalf("op %d: InsertEdge(%d,%d) = %v, want %v", op, u, v, got, want)
			}
			ref[key(u, v)] = true
		} else {
			got := d.DeleteEdge(u, v)
			want := ref[key(u, v)]
			if got != want {
				t.Fatalf("op %d: DeleteEdge(%d,%d) = %v, want %v", op, u, v, got, want)
			}
			delete(ref, key(u, v))
		}
	}
	live := 0
	for _, ok := range ref {
		if ok {
			live++
		}
	}
	if d.M() != live {
		t.Fatalf("M = %d, reference has %d", d.M(), live)
	}
}

func TestNeighborsSortedDynamic(t *testing.T) {
	d := NewDynamic(10)
	d.InsertEdge(5, 9)
	d.InsertEdge(5, 1)
	d.InsertEdge(5, 3)
	got := d.NeighborsSorted(5)
	want := []int32{1, 3, 9}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestQuickBuilderSymmetric(t *testing.T) {
	f := func(pairs [][2]uint8) bool {
		b := NewBuilder(256)
		for _, p := range pairs {
			b.AddEdge(int32(p[0]), int32(p[1]))
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		// Symmetry: v in N(u) iff u in N(v).
		for u := int32(0); int(u) < g.N(); u++ {
			for _, v := range g.Neighbors(u) {
				if !g.HasEdge(v, u) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
