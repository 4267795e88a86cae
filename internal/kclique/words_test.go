package kclique

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// rootCount counts the k-cliques rooted at u on one path of Count: the
// word-packed kernel or the merge recursion.
func rootCount(d *graph.DAG, k int, u int32, words bool) (uint64, []int64) {
	cc := countCtx{d: d, k: k, scores: make([]int64, d.N()), sc: NewScratch(k, 0)}
	if words {
		cc.rootWords(u)
	} else {
		cc.rootMerge(u)
	}
	return cc.total, cc.scores
}

// findMinMerge is findMin forced onto the merge recursion, whatever the
// candidate set's size.
func findMinMerge(d *graph.DAG, k int, root int32, score []int64, valid []bool, prune, strict bool) ([]int32, int64, bool) {
	st, cand, ok := newFindMin(d, k, root, score, valid, prune, strict, NewScratch(k, 0))
	if !ok {
		return nil, 0, false
	}
	st.rec(k-1, cand, score[root])
	return st.result(nil)
}

// kernelSides counts the roots of d whose out-neighbourhood takes the
// word-packed kernel and those that take the merge recursion.
func kernelSides(d *graph.DAG, k int) (words, merge int) {
	for u := int32(0); int(u) < d.N(); u++ {
		switch deg := d.OutDegree(u); {
		case deg < k-1:
		case deg <= wordBits:
			words++
		default:
			merge++
		}
	}
	return words, merge
}

// checkCount compares Count, for every worker count given, with
// CountSerial and CountNaive, and every word-packed root with the merge
// recursion on the same root.
func checkCount(t *testing.T, d *graph.DAG, k int, workers ...int) {
	t.Helper()
	wantTotal, wantScores := CountSerial(d, k)
	naiveTotal, naiveScores := CountNaive(d, k)
	if naiveTotal != wantTotal || !slices.Equal(naiveScores, wantScores) {
		t.Fatalf("k=%d: CountNaive %d and CountSerial %d disagree", k, naiveTotal, wantTotal)
	}
	for _, w := range workers {
		total, scores := Count(d, k, w)
		if total != wantTotal || !slices.Equal(scores, wantScores) {
			t.Fatalf("k=%d workers=%d: Count total %d, CountSerial %d (scores equal: %v)",
				k, w, total, wantTotal, slices.Equal(scores, wantScores))
		}
	}
	for u := int32(0); int(u) < d.N(); u++ {
		if deg := d.OutDegree(u); deg < k-1 || deg > wordBits {
			continue
		}
		gotTotal, got := rootCount(d, k, u, true)
		refTotal, ref := rootCount(d, k, u, false)
		if gotTotal != refTotal || !slices.Equal(got, ref) {
			t.Fatalf("k=%d root %d: word-packed kernel counts %d cliques, merge recursion %d (scores equal: %v)",
				k, u, gotTotal, refTotal, slices.Equal(got, ref))
		}
	}
}

// checkFindMin compares FindMin and FindMinStrict, pruned and not, with
// the merge recursion for every root, under valid (nil means all).
func checkFindMin(t *testing.T, d *graph.DAG, k int, score []int64, valid []bool) {
	t.Helper()
	sc := NewScratch(k, 0)
	for u := int32(0); int(u) < d.N(); u++ {
		if valid != nil && !valid[u] {
			continue
		}
		for _, prune := range []bool{false, true} {
			for _, strict := range []bool{false, true} {
				find := FindMin
				if strict {
					find = FindMinStrict
				}
				c, s, ok := find(nil, d, k, u, score, valid, prune, sc)
				rc, rs, rok := findMinMerge(d, k, u, score, valid, prune, strict)
				if ok != rok || s != rs || !slices.Equal(c, rc) {
					t.Fatalf("k=%d root %d prune=%v strict=%v: kernel (%v, %d, %v), merge recursion (%v, %d, %v)",
						k, u, prune, strict, c, s, ok, rc, rs, rok)
				}
			}
		}
	}
}

// checkFindOne checks that FindOne returns, for every valid root, the
// first clique the merge recursion emits from the root's valid
// out-neighbours (valid nil means all).
func checkFindOne(t *testing.T, d *graph.DAG, k int, valid []bool) {
	t.Helper()
	sc, ref := NewScratch(k, 0), NewScratch(k, 0)
	ref.NoStamp = true
	for u := int32(0); int(u) < d.N(); u++ {
		if valid != nil && !valid[u] {
			continue
		}
		cand := d.Out(u)
		if valid != nil {
			cand = filterValid(nil, cand, valid)
		}
		var want []int32
		ForEachAmong(d, []int32{u}, k-1, cand, ref, func(c []int32) bool {
			want = slices.Clone(c)
			return false
		})
		if got, ok := FindOne(d, k, u, valid, sc); ok != (want != nil) || !slices.Equal(got, want) {
			t.Fatalf("k=%d root %d: FindOne = (%v, %v), merge recursion's first clique %v", k, u, got, ok, want)
		}
	}
}

// checkKernel runs the differential checks on g for one k: Count on the
// listing DAG and on the score DAG, FindMin and FindOne on the score DAG
// with all nodes valid and under random valid masks.
func checkKernel(t *testing.T, g *graph.Graph, k int, rng *rand.Rand, workers ...int) {
	t.Helper()
	checkCount(t, graph.Orient(g, graph.ListingOrdering(g)), k, workers...)
	_, score := CountSerial(graph.Orient(g, graph.ListingOrdering(g)), k)
	d := graph.Orient(g, graph.ScoreOrdering(g, score))
	checkCount(t, d, k, workers...)
	checkFindMin(t, d, k, score, nil)
	checkFindOne(t, d, k, nil)
	for trial := 0; trial < 3; trial++ {
		valid := make([]bool, g.N())
		for i := range valid {
			valid[i] = rng.Intn(5) != 0
		}
		checkFindMin(t, d, k, score, valid)
		checkFindOne(t, d, k, valid)
	}
}

// bipartiteCore is a complete bipartite graph on two sides of 70 nodes
// with 10% chords inside each side: a 70-core, so listing-DAG roots exceed
// wordBits, with few enough cliques for the exhaustive searches.
func bipartiteCore() *graph.Graph {
	const side = 70
	rng := rand.New(rand.NewSource(11))
	b := graph.NewBuilder(2 * side)
	for u := int32(0); u < 2*side; u++ {
		for v := u + 1; v < 2*side; v++ {
			if (u < side) != (v < side) || rng.Float64() < 0.1 {
				b.AddEdge(u, v)
			}
		}
	}
	return b.MustBuild()
}

// hubOnClique joins one hub (node 7) to every node of a 7-clique and to a
// ring of further nodes with chords. The hub lies in the most cliques, so
// its out-neighbourhood in the score DAG is all 7+ring of its neighbours,
// while every other one fits in a word.
func hubOnClique(ring int32) *graph.Graph {
	const clique = 7
	hub := int32(clique)
	b := graph.NewBuilder(int(clique + 1 + ring))
	for u := int32(0); u < clique; u++ {
		for v := u + 1; v < clique; v++ {
			b.AddEdge(u, v)
		}
		b.AddEdge(u, hub)
	}
	for i := int32(0); i < ring; i++ {
		u := hub + 1 + i
		b.AddEdge(hub, u)
		b.AddEdge(u, hub+1+(i+1)%ring)
		b.AddEdge(u, hub+1+(i+2)%ring)
	}
	return b.MustBuild()
}

// TestLocalKernelMatchesMerge is the differential test of the word-packed
// kernel: on graphs whose candidate sets fall on both sides of wordBits,
// Count and FindMin must agree with the merge recursion root by root.
func TestLocalKernelMatchesMerge(t *testing.T) {
	core := bipartiteCore()
	community := gen.CommunitySocial(600, 12, 0.2, 10000, 12)
	hub := hubOnClique(90)

	// Each graph must put roots on both sides of the cap, in the DAG that
	// is meant to exercise them.
	listing := func(g *graph.Graph) *graph.DAG { return graph.Orient(g, graph.ListingOrdering(g)) }
	scoreDAG := func(g *graph.Graph) *graph.DAG {
		_, score := CountSerial(listing(g), 3)
		return graph.Orient(g, graph.ScoreOrdering(g, score))
	}
	for _, c := range []struct {
		name string
		d    *graph.DAG
	}{{"core listing", listing(core)}, {"community score", scoreDAG(community)}, {"hub score", scoreDAG(hub)}} {
		if w, m := kernelSides(c.d, 3); w == 0 || m == 0 {
			t.Fatalf("%s DAG: %d word-packed roots, %d merge roots; want both", c.name, w, m)
		}
	}
	if community.MaxDegree() <= wordBits {
		t.Fatalf("community graph max degree %d, want > %d", community.MaxDegree(), wordBits)
	}

	rng := rand.New(rand.NewSource(5))
	for k := 3; k <= 6; k++ {
		checkKernel(t, core, k, rng, 1, 4)
		checkKernel(t, community, k, rng, 1, 4)
		checkKernel(t, hub, k, rng, 1, 4)
	}
}

// TestLocalKernelCapBoundary runs the differential checks on a root whose
// candidate set has exactly wordBits members, the full-word case, and on
// one with a member more, the smallest merge case.
func TestLocalKernelCapBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, ring := range []int32{wordBits - 7, wordBits - 6} {
		g := hubOnClique(ring)
		_, score := CountSerial(graph.Orient(g, graph.ListingOrdering(g)), 3)
		if deg := graph.Orient(g, graph.ScoreOrdering(g, score)).OutDegree(7); deg != int(7+ring) {
			t.Fatalf("ring %d: hub out-degree %d in the score DAG, want %d", ring, deg, 7+ring)
		}
		for k := 3; k <= 5; k++ {
			checkKernel(t, g, k, rng, 1, 4)
		}
	}
}

// TestLocalKernelEmptyAndOneNode runs the differential checks on graphs
// with no roots at all.
func TestLocalKernelEmptyAndOneNode(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1} {
		g := graph.NewBuilder(n).MustBuild()
		for k := 3; k <= 6; k++ {
			checkKernel(t, g, k, rng, 1, 4)
			if total, scores := Count(graph.Orient(g, graph.ListingOrdering(g)), k, 4); total != 0 || len(scores) != n {
				t.Fatalf("n=%d k=%d: Count = %d cliques over %d scores", n, k, total, len(scores))
			}
		}
	}
}

// emitOrder returns the cliques ForEachAmong emits on the merge
// recursion (NoStamp on), in order.
func emitOrder(t *testing.T, v graph.View, prefix []int32, l int, cand []int32) [][]int32 {
	t.Helper()
	sc := NewScratch(len(prefix)+l, 0)
	sc.NoStamp = true
	var out [][]int32
	if !ForEachAmong(v, prefix, l, cand, sc, func(c []int32) bool {
		out = append(out, append([]int32(nil), c...))
		return true
	}) {
		t.Fatalf("l=%d |cand|=%d: uninterrupted merge recursion reported a stop", l, len(cand))
	}
	return out
}

// checkOrder checks that ForEachAmong with NoStamp off emits exactly the
// merge recursion's sequence, and that fn returning false after the j-th
// emission, for every j in stops (nil means every j), stops it there.
func checkOrder(t *testing.T, name string, v graph.View, prefix []int32, l int, cand []int32, stops []int) [][]int32 {
	t.Helper()
	want := emitOrder(t, v, prefix, l, cand)
	run := func(stop int) (n int, ok bool) {
		sc := NewScratch(len(prefix)+l, 0)
		ok = ForEachAmong(v, prefix, l, cand, sc, func(c []int32) bool {
			if n >= len(want) {
				t.Fatalf("%s l=%d |cand|=%d stop=%d: emission %d is %v, merge recursion emits only %d",
					name, l, len(cand), stop, n, c, len(want))
			}
			if !slices.Equal(c, want[n]) {
				t.Fatalf("%s l=%d |cand|=%d stop=%d: emission %d is %v, merge recursion emits %v",
					name, l, len(cand), stop, n, c, want[n])
			}
			n++
			return n != stop
		})
		return n, ok
	}
	if n, ok := run(0); !ok || n != len(want) {
		t.Fatalf("%s l=%d |cand|=%d: %d emissions (completed %v), merge recursion %d",
			name, l, len(cand), n, ok, len(want))
	}
	if stops == nil {
		for j := 1; j <= len(want); j++ {
			stops = append(stops, j)
		}
	}
	for _, j := range stops {
		if j < 1 || j > len(want) {
			continue
		}
		if n, ok := run(j); ok || n != j {
			t.Fatalf("%s l=%d |cand|=%d: stop after emission %d ran %d (completed %v)",
				name, l, len(cand), j, n, ok)
		}
	}
	return want
}

// TestForEachAmongOrderMatchesMerge pins the emission order of the
// enumeration core: on the word-packed kernel (63 and 64 members) and on
// the stamped first level (65), over an id-ordered DynView and an
// explicitly oriented DAG, with an empty and an edge-anchored prefix,
// ForEachAmong emits the merge recursion's sequence for l = 1..5, and
// stops after any emission.
func TestForEachAmongOrderMatchesMerge(t *testing.T) {
	// G(65, 0.3) on nodes 0..64 plus hubs 65 and 66 adjacent to each
	// other and to every other node, so each candidate set below is
	// closed under the prefix (65, 66).
	const m, hubA, hubB = 65, 65, 66
	rng := rand.New(rand.NewSource(21))
	b := graph.NewBuilder(m + 2)
	for u := int32(0); u < m; u++ {
		for v := u + 1; v < m; v++ {
			if rng.Float64() < 0.3 {
				b.AddEdge(u, v)
			}
		}
		b.AddEdge(u, hubA)
		b.AddEdge(u, hubB)
	}
	b.AddEdge(hubA, hubB)
	g := b.MustBuild()
	views := []struct {
		name string
		v    graph.View
	}{{"DynView", graph.DynamicFrom(g).View()}, {"DAG", listingDAG(g)}}
	for _, size := range []int{wordBits - 1, wordBits, wordBits + 1} {
		cand := make([]int32, size)
		for i := range cand {
			cand[i] = int32(i)
		}
		for _, vw := range views {
			for _, prefix := range [][]int32{nil, {hubA, hubB}} {
				for l := 1; l <= 5; l++ {
					name := fmt.Sprintf("%s prefix=%v", vw.name, prefix)
					if got := checkOrder(t, name, vw.v, prefix, l, cand, nil); len(got) == 0 {
						t.Fatalf("%s l=%d |cand|=%d: no cliques; the order is untested", name, l, size)
					}
				}
			}
		}
	}
}

// FuzzLocalKernel runs the differential checks on small graphs decoded
// from the fuzz input: byte 0 picks k in 3..6, byte 1 the node count, and
// each following byte pair one edge. The DynView branch checks the
// enumeration order of ForEachAmong over all nodes and over the common
// neighbourhood of the first edge.
func FuzzLocalKernel(f *testing.F) {
	f.Add([]byte{0, 4, 0, 1, 1, 2, 0, 2, 2, 3, 1, 3, 0, 3})
	f.Add([]byte{1, 8, 0, 1, 0, 2, 0, 3, 0, 4, 1, 2, 1, 3, 1, 4, 2, 3, 2, 4, 3, 4, 5, 6, 6, 7})
	f.Add([]byte{3, 30, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		k := 3 + int(data[0]%4)
		n := 1 + int(data[1]%24)
		b := graph.NewBuilder(n)
		for i := 2; i+1 < len(data); i += 2 {
			b.AddEdge(int32(int(data[i])%n), int32(int(data[i+1])%n))
		}
		g := b.MustBuild()
		checkKernel(t, g, k, rand.New(rand.NewSource(int64(len(data)))), 1, 2)

		dyn := graph.DynamicFrom(g)
		all := make([]int32, n)
		for i := range all {
			all[i] = int32(i)
		}
		got := checkOrder(t, "DynView", dyn.View(), nil, k, all, []int{1, 2, 3})
		if total, _ := CountSerial(listingDAG(g), k); uint64(len(got)) != total {
			t.Fatalf("k=%d: DynView emits %d cliques, CountSerial counts %d", k, len(got), total)
		}
		for u := int32(0); int(u) < n; u++ {
			if nb := dyn.Neighbors(u); len(nb) > 0 {
				edge := []int32{u, nb[0]}
				common := graph.IntersectSorted(nil, nb, dyn.Neighbors(nb[0]))
				checkOrder(t, "DynView edge", dyn.View(), edge, k-2, common, []int{1, 2, 3})
				break
			}
		}
	})
}

// TestCountDenseGraph checks Count on a clique-dense community graph, the
// word-packed kernel's target case.
func TestCountDenseGraph(t *testing.T) {
	g := gen.RelaxedCaveman(12, 8, 0.1, 7)
	d := listingDAG(g)
	for k := 3; k <= 6; k++ {
		checkCount(t, d, k, 0, 1, 4)
	}
}

// TestCountDAGEmptyAndTiny runs Count directly on the listing DAGs of an
// empty graph, a single node and a triangle, for every worker count.
func TestCountDAGEmptyAndTiny(t *testing.T) {
	empty := graph.NewBuilder(0).MustBuild()
	single, _ := graph.FromEdges(1, nil)
	tri, _ := graph.FromEdges(3, [][2]int32{{0, 1}, {1, 2}, {0, 2}})
	for _, workers := range []int{0, 1, 4} {
		total, scores := Count(listingDAG(empty), 3, workers)
		if total != 0 || len(scores) != 0 {
			t.Fatalf("workers=%d: empty graph counted %d, scores %v", workers, total, scores)
		}
		total, scores = Count(listingDAG(single), 3, workers)
		if total != 0 || len(scores) != 1 || scores[0] != 0 {
			t.Fatalf("workers=%d: single node counted %d, scores %v", workers, total, scores)
		}
		total, scores = Count(listingDAG(tri), 3, workers)
		if total != 1 || scores[0] != 1 || scores[1] != 1 || scores[2] != 1 {
			t.Fatalf("workers=%d: triangle total=%d scores=%v", workers, total, scores)
		}
	}
}

// TestCountKnownValues checks the K10 binomials.
func TestCountKnownValues(t *testing.T) {
	b := graph.NewBuilder(10)
	for u := 0; u < 10; u++ {
		for v := u + 1; v < 10; v++ {
			b.AddEdge(int32(u), int32(v))
		}
	}
	d := listingDAG(b.MustBuild())
	for k, want := range map[int]uint64{3: 120, 4: 210, 5: 252} {
		for _, workers := range []int{1, 4} {
			total, scores := Count(d, k, workers)
			if total != want {
				t.Fatalf("K10 k=%d workers=%d: %d, want %d", k, workers, total, want)
			}
			// Each node lies in C(9, k-1) = want*k/10 of the cliques.
			for u, s := range scores {
				if s != int64(want)*int64(k)/10 {
					t.Fatalf("K10 k=%d: score[%d] = %d, want %d", k, u, s, int64(want)*int64(k)/10)
				}
			}
		}
	}
}

// TestCountWorkerCounts checks that Count returns CountSerial's totals
// and scores on random graphs for every worker count.
func TestCountWorkerCounts(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		d := listingDAG(randomGraph(45, 0.3, 700+seed))
		for k := 2; k <= 6; k++ {
			checkCount(t, d, k, 1, 2, 4)
		}
	}
}

// TestCountDAG pins CountDAG's rule: the degree DAG when the largest
// degree fits the word-packed kernel, with the boundary at exactly 64
// (a wheel's hub points at every rim node under the degree order), and
// the listing DAG otherwise. Count on it matches the listing DAG's
// counts either way.
func TestCountDAG(t *testing.T) {
	wheel := func(rim int) *graph.Graph {
		b := graph.NewBuilder(rim + 1)
		for i := int32(1); int(i) <= rim; i++ {
			b.AddEdge(0, i)
			b.AddEdge(i, i%int32(rim)+1)
		}
		return b.MustBuild()
	}
	cases := []struct {
		name   string
		g      *graph.Graph
		degree bool
	}{
		{"wheel64", wheel(64), true},
		{"wheel65", wheel(65), false},
		{"community", gen.CommunitySocial(2000, 12, 0.2, 4000, 12), true},
		{"ba", gen.BarabasiAlbert(2000, 12, 7), false},
	}
	for _, c := range cases {
		d := CountDAG(c.g)
		want := graph.ListingOrdering(c.g)
		if c.degree {
			want = graph.DegreeOrdering(c.g)
		}
		if !slices.Equal(d.Ord.Rank, want.Rank) {
			t.Fatalf("%s: CountDAG took the wrong order (degree order wanted: %v)", c.name, c.degree)
		}
		if words, merge := kernelSides(d, 3); c.degree && merge != 0 {
			t.Fatalf("%s: the degree DAG has %d roots past the kernel, %d on it", c.name, merge, words)
		}
		for k := 3; k <= 5; k++ {
			total, scores := Count(d, k, 2)
			wantTotal, wantScores := CountSerial(listingDAG(c.g), k)
			if total != wantTotal || !slices.Equal(scores, wantScores) {
				t.Fatalf("%s k=%d: Count on CountDAG gives %d k-cliques, the listing DAG %d (scores equal: %v)",
					c.name, k, total, wantTotal, slices.Equal(scores, wantScores))
			}
		}
	}
}
