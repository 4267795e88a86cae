package core

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kclique"
)

func TestCompleteGraphPackingFloor(t *testing.T) {
	// K_n with clique size k packs exactly floor(n/k) cliques, and every
	// algorithm must achieve it (any maximal packing in K_n does).
	for _, n := range []int{9, 10, 11, 12} {
		b := graph.NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				b.AddEdge(int32(u), int32(v))
			}
		}
		g := b.MustBuild()
		for _, k := range []int{3, 4} {
			for _, alg := range heuristics() {
				res, err := Find(g, Options{K: k, Algorithm: alg})
				if err != nil {
					t.Fatal(err)
				}
				if res.Size() != n/k {
					t.Fatalf("K%d k=%d %v: %d cliques, want %d", n, k, alg, res.Size(), n/k)
				}
			}
		}
	}
}

func TestTotalKCliquesMatchesGroundTruth(t *testing.T) {
	g := randomGraph(30, 0.35, 400)
	for _, k := range []int{3, 4} {
		want, _ := kclique.ScoreGraph(g, k, 1)
		for _, alg := range []Algorithm{GC, L, LP} {
			res, err := Find(g, Options{K: k, Algorithm: alg})
			if err != nil {
				t.Fatal(err)
			}
			if res.TotalKCliques != want {
				t.Fatalf("%v k=%d: TotalKCliques=%d, want %d", alg, k, res.TotalKCliques, want)
			}
		}
		// HG never counts.
		res, err := Find(g, Options{K: k, Algorithm: HG})
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalKCliques != 0 {
			t.Fatal("HG should not report clique counts")
		}
	}
}

func TestZeroBudgetMeansUnbounded(t *testing.T) {
	g := randomGraph(40, 0.3, 401)
	for _, alg := range heuristics() {
		if _, err := Find(g, Options{K: 4, Algorithm: alg, Budget: 0}); err != nil {
			t.Fatalf("%v with zero budget: %v", alg, err)
		}
	}
}

func TestNegativeWorkersTolerated(t *testing.T) {
	g := randomGraph(30, 0.3, 402)
	res, err := Find(g, Options{K: 3, Algorithm: LP, Workers: -5})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, 3, res.Cliques); err != nil {
		t.Fatal(err)
	}
}

func TestStrictTiesDeterministicAcrossRuns(t *testing.T) {
	g := randomGraph(35, 0.35, 403)
	var prev map[string]bool
	for run := 0; run < 3; run++ {
		res, err := Find(g, Options{K: 3, Algorithm: LP, StrictTies: true, Workers: run + 1})
		if err != nil {
			t.Fatal(err)
		}
		cur := canonicalSet(res.Cliques)
		if prev != nil {
			if len(cur) != len(prev) {
				t.Fatal("strict runs differ in size")
			}
			for key := range prev {
				if !cur[key] {
					t.Fatal("strict runs differ in content")
				}
			}
		}
		prev = cur
	}
}

func TestCliqueLexLessHelper(t *testing.T) {
	// Inputs must be pre-sorted ascending (the comparator no longer sorts
	// or copies — members obey the Result.Cliques contract at creation).
	if !cliqueLexLess([]int32{1, 5, 9}, []int32{2, 5, 9}) {
		t.Error("lex compare wrong")
	}
	if cliqueLexLess([]int32{1, 2, 3}, []int32{1, 2, 3}) {
		t.Error("equal lists are not less")
	}
	if !cliqueLexLess([]int32{1, 2}, []int32{1, 2, 3}) {
		t.Error("proper prefix must precede its extension")
	}
	if cliqueLexLess([]int32{1, 2}, []int32{0, 1, 2}) {
		t.Error("{1,2} must not precede {0,1,2}")
	}
	if n := testing.AllocsPerRun(100, func() {
		cliqueLexLess([]int32{1, 5, 9}, []int32{2, 5, 9})
	}); n != 0 {
		t.Errorf("cliqueLexLess allocates %.0f times per call, want 0", n)
	}
}

// TestQuickLPAlwaysValidMaximal: the central safety property under
// arbitrary random graphs and k.
func TestQuickLPAlwaysValidMaximal(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		k := int(kRaw)%3 + 3 // 3..5
		g := randomGraph(24, 0.35, seed)
		res, err := Find(g, Options{K: k, Algorithm: LP})
		if err != nil {
			return false
		}
		return Verify(g, k, res.Cliques) == nil && IsMaximal(g, k, res.Cliques)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestQuickHGValidMaximal: same property for the basic framework.
func TestQuickHGValidMaximal(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(26, 0.3, seed)
		res, err := Find(g, Options{K: 3, Algorithm: HG})
		if err != nil {
			return false
		}
		return Verify(g, 3, res.Cliques) == nil && IsMaximal(g, 3, res.Cliques)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCaveGraphEveryAlgorithmPerfect(t *testing.T) {
	// Pure caveman graph with cs = k: every cave is one clique; the
	// optimum is the cave count and all methods should reach it (the ring
	// edges cannot form extra cliques).
	for _, k := range []int{3, 4, 5} {
		g := gen.RelaxedCaveman(10, k, 0, int64(k))
		for _, alg := range heuristics() {
			res, err := Find(g, Options{K: k, Algorithm: alg, Budget: time.Minute})
			if err != nil {
				t.Fatal(err)
			}
			if res.Size() != 10 {
				t.Fatalf("k=%d %v: %d caves packed, want 10", k, alg, res.Size())
			}
		}
	}
}

func TestOverlappingCliquesChain(t *testing.T) {
	// A chain of triangles sharing one node each: 0-1-2, 2-3-4, 4-5-6,
	// 6-7-8. The maximum disjoint set alternates: 4 triangles would need
	// 12 distinct nodes, we have 9 → optimum uses {0,1,2},{3,4,5}? No:
	// triangle edges are only within listed triples. Disjoint pairs:
	// {0,1,2} and {4,5,6} (wait, triangle is (4,5,6)? — yes) plus none of
	// (2,3,4)/(6,7,8) fits with both; optimum = 2 using (0,1,2),(4,5,6)
	// or 2 using (2,3,4),(6,7,8). OPT must be 2, and LP must match.
	edges := [][2]int32{
		{0, 1}, {1, 2}, {0, 2},
		{2, 3}, {3, 4}, {2, 4},
		{4, 5}, {5, 6}, {4, 6},
		{6, 7}, {7, 8}, {6, 8},
	}
	g, _ := graph.FromEdges(9, edges)
	opt, err := Find(g, Options{K: 3, Algorithm: OPT, Budget: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Size() != 2 {
		t.Fatalf("OPT = %d, want 2", opt.Size())
	}
	lp, err := Find(g, Options{K: 3, Algorithm: LP})
	if err != nil {
		t.Fatal(err)
	}
	if lp.Size() != 2 {
		t.Fatalf("LP = %d, want 2", lp.Size())
	}
}

func TestWindmillGraph(t *testing.T) {
	// Windmill: t triangles all sharing node 0. Any disjoint set has size
	// exactly 1. Every algorithm must return 1.
	tBlades := 6
	b := graph.NewBuilder(1 + 2*tBlades)
	for i := 0; i < tBlades; i++ {
		x := int32(1 + 2*i)
		y := x + 1
		b.AddEdge(0, x)
		b.AddEdge(0, y)
		b.AddEdge(x, y)
	}
	g := b.MustBuild()
	for _, alg := range allAlgorithms() {
		res, err := Find(g, Options{K: 3, Algorithm: alg, Budget: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		if res.Size() != 1 {
			t.Fatalf("windmill %v: %d, want 1", alg, res.Size())
		}
	}
}

// TestLPAllocsDoNotGrowWithRoots: L and LP keep every root's local
// minimum in one slab, so a solve's allocations do not grow with the
// number of roots. BenchmarkFind's graph has ~39,000 roots with a local
// minimum; one allocation each would be far past the bound.
func TestLPAllocsDoNotGrowWithRoots(t *testing.T) {
	g := gen.CommunitySocial(30000, 16, 0.15, 60000, 11)
	for _, alg := range []Algorithm{L, LP} {
		allocs := testing.AllocsPerRun(2, func() {
			if _, err := Find(g, Options{K: 4, Algorithm: alg, Workers: 2}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs >= 1000 {
			t.Errorf("%v: one solve made %.0f allocations, want under 1000", alg, allocs)
		}
	}
}

// TestHeapInitStopsAtDeadline: HeapInit checks the deadline every 64
// roots per worker, so with one already past it stops long before it has
// visited every root, queues nothing and reports that it stopped.
func TestHeapInitStopsAtDeadline(t *testing.T) {
	g := gen.CommunitySocial(2000, 12, 0.2, 4000, 12)
	k := 4
	_, scores := kclique.ScoreGraph(g, k, 1)
	d := graph.Orient(g, graph.ScoreOrdering(g, scores))
	withMin := func(q *cliqueQueue) int {
		n := 0
		for _, s := range q.score {
			if s != 0 {
				n++
			}
		}
		return n
	}
	for _, workers := range []int{1, 2} {
		full := newCliqueQueue(g.N(), k, false)
		if !full.heapInit(d, scores, true, workers, time.Time{}) {
			t.Fatalf("workers=%d: HeapInit without a deadline reported it stopped", workers)
		}
		q := newCliqueQueue(g.N(), k, false)
		if q.heapInit(d, scores, true, workers, time.Now().Add(-time.Second)) {
			t.Fatalf("workers=%d: HeapInit past its deadline reported it finished", workers)
		}
		if got, all := withMin(q), withMin(full); got >= 64*workers || all <= 64*workers {
			t.Fatalf("workers=%d: HeapInit past its deadline found %d local minima of %d", workers, got, all)
		}
		if root, ok := q.pop(); ok {
			t.Fatalf("workers=%d: HeapInit past its deadline queued root %d", workers, root)
		}
	}
}
