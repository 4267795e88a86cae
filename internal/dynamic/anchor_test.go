package dynamic

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/workload"
)

func ins(u, v int32) workload.Op { return workload.Op{Insert: true, U: u, V: v} }
func del(u, v int32) workload.Op { return workload.Op{U: u, V: v} }

// cliqueEdges returns every pair of the given nodes.
func cliqueEdges(nodes ...int32) [][2]int32 {
	var out [][2]int32
	for i, u := range nodes {
		for _, v := range nodes[i+1:] {
			out = append(out, [2]int32{u, v})
		}
	}
	return out
}

// star returns the edges from hub to every leaf.
func star(hub int32, leaves ...int32) [][2]int32 {
	var out [][2]int32
	for _, v := range leaves {
		out = append(out, [2]int32{hub, v})
	}
	return out
}

// anchorEngine builds an engine over n nodes with the given edge groups
// and initial S, requiring a valid starting state.
func anchorEngine(t *testing.T, k, n int, initial [][]int32, groups ...[][2]int32) *Engine {
	t.Helper()
	var edges [][2]int32
	for _, g := range groups {
		edges = append(edges, g...)
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(g, k, initial)
	if err != nil {
		t.Fatal(err)
	}
	if e.Size() != len(initial) {
		t.Fatalf("construction completed S to %d cliques, want the %d given", e.Size(), len(initial))
	}
	if err := e.Verify(); err != nil {
		t.Fatal(err)
	}
	return e
}

// applyChecked applies ops one by one with Verify after each, or as one
// ApplyBatch followed by Verify.
func applyChecked(t *testing.T, e *Engine, batched bool, ops ...workload.Op) {
	t.Helper()
	if batched {
		e.ApplyBatch(ops)
		if err := e.Verify(); err != nil {
			t.Fatalf("after batch %v: %v", ops, err)
		}
		return
	}
	for _, op := range ops {
		e.applyOne(op)
		if err := e.Verify(); err != nil {
			t.Fatalf("after %+v: %v", op, err)
		}
	}
}

// requireCandidate fails unless the index holds members (sorted) as a
// candidate of the clique that currently holds node bound.
func requireCandidate(t *testing.T, e *Engine, bound int32, members ...int32) {
	t.Helper()
	s := e.index.lookup(members, hashNodes(members))
	if s == 0 {
		t.Fatalf("candidate %v missing", members)
	}
	if owner := e.index.owner[s]; owner != e.nodeClique[bound] {
		t.Fatalf("candidate %v owned by %d, want %d", members, owner, e.nodeClique[bound])
	}
}

// TestAnchorConstructedCases drives the anchored refresh through shapes
// a random stream rarely isolates, each both op by op (units of one op,
// settled inline) and as one batch (one unit, settled on the worker pool
// when it holds more than one op), with Verify's from-scratch index
// comparison after every op or batch. D = {0,1,2,3} is an S-clique older than every
// update; k = 4 throughout.
func TestAnchorConstructedCases(t *testing.T) {
	D := []int32{0, 1, 2, 3}
	cases := []struct {
		name string
		run  func(t *testing.T, batched bool)
	}{
		{"refreed-in-one-batch", func(t *testing.T, batched bool) {
			// 4 leaves W = {4,5,6,7}, joins R = {4,7,9,10} when (7,10)
			// completes it, and is freed again when (9,10) splits R. 9
			// was free at the start and takes the same bound-and-freed
			// path. Through 4: {0,1,4,8}; through 9: {1,2,3,9}.
			e := anchorEngine(t, 4, 11, [][]int32{D, {4, 5, 6, 7}},
				cliqueEdges(D...), cliqueEdges(4, 5, 6, 7),
				star(4, 0, 1, 8, 9, 10), star(8, 0, 1), [][2]int32{{9, 10}}, star(9, 1, 2, 3))
			applyChecked(t, e, batched, del(5, 6), ins(7, 9), ins(7, 10), del(9, 10))
			if !e.IsFree(4) || !e.IsFree(9) {
				t.Fatal("4 and 9 must end free")
			}
			requireCandidate(t, e, 0, 0, 1, 4, 8)
			requireCandidate(t, e, 0, 1, 2, 3, 9)
		}},
		{"clique-through-two-anchors", func(t *testing.T, batched bool) {
			// Splitting W frees 4 and 5, which both sit in {0,1,4,5}.
			e := anchorEngine(t, 4, 8, [][]int32{D, {4, 5, 6, 7}},
				cliqueEdges(D...), cliqueEdges(4, 5, 6, 7), star(4, 0, 1), star(5, 0, 1))
			applyChecked(t, e, batched, del(6, 7))
			requireCandidate(t, e, 0, 0, 1, 4, 5)
		}},
		{"owner-adjacent-to-two-anchors", func(t *testing.T, batched bool) {
			// Splitting W gives D the disjoint candidates {0,1,4,8} and
			// {2,3,6,9} through two different anchors, so D is swapped
			// for them.
			e := anchorEngine(t, 4, 10, [][]int32{D, {4, 5, 6, 7}},
				cliqueEdges(D...), cliqueEdges(4, 5, 6, 7),
				star(4, 0, 1, 8), star(8, 0, 1), star(6, 2, 3, 9), star(9, 2, 3))
			applyChecked(t, e, batched, del(5, 7))
			if e.IsFree(8) || e.IsFree(9) || e.nodeClique[8] == e.nodeClique[9] {
				t.Fatal("D was not swapped for its two disjoint candidates")
			}
		}},
		{"anchor-next-to-new-clique", func(t *testing.T, batched bool) {
			// (10,11) completes N = {8,9,10,11}; splitting W then frees
			// 4, adjacent to N. N's candidates come from its own full
			// enumeration: {4,8,9,13} through the anchor and {8,10,11,12}
			// through no anchor at all.
			e := anchorEngine(t, 4, 14, [][]int32{D, {4, 5, 6, 7}},
				cliqueEdges(D...), cliqueEdges(4, 5, 6, 7),
				[][2]int32{{8, 9}, {8, 10}, {8, 11}, {9, 10}, {9, 11}},
				star(12, 8, 10, 11), star(13, 4, 8, 9), star(4, 0, 8, 9))
			applyChecked(t, e, batched, ins(10, 11), del(5, 6))
			requireCandidate(t, e, 8, 4, 8, 9, 13)
			requireCandidate(t, e, 8, 8, 10, 11, 12)
		}},
		{"anchor-from-AddNode", func(t *testing.T, batched bool) {
			// z = 64 joins the graph after the first refresh sized the
			// marks to 64 nodes (one word of bits), gains the candidate
			// {0,1,2,z}, loses it when it joins Z = {4,5,6,z}, and must
			// regain it when (4,5) splits Z.
			e := anchorEngine(t, 4, 64, [][]int32{D, {7, 8, 9, 10}},
				cliqueEdges(D...), cliqueEdges(4, 5, 6), cliqueEdges(7, 8, 9, 10))
			applyChecked(t, e, batched, del(7, 8))
			z := e.AddNode()
			applyChecked(t, e, batched, ins(z, 0), ins(z, 1), ins(z, 2), ins(z, 4), ins(z, 5), ins(z, 6))
			if e.IsFree(z) {
				t.Fatal("z must join S")
			}
			applyChecked(t, e, batched, del(4, 5))
			requireCandidate(t, e, 0, 0, 1, 2, z)
		}},
		{"hub-anchor-over-64", func(t *testing.T, batched bool) {
			// Hub 4 shares 70 free neighbours (a path, so no all-free
			// clique) with 0, so the candidate set of the (4, 0) pass
			// has 70 members: the stamped path, not the word kernel.
			const leaves = 70
			var path [][2]int32
			var xs []int32
			for i := int32(0); i < leaves; i++ {
				xs = append(xs, 8+i)
				if i > 0 {
					path = append(path, [2]int32{7 + i, 8 + i})
				}
			}
			build := func() *Engine {
				return anchorEngine(t, 4, 8+leaves, [][]int32{D, {4, 5, 6, 7}},
					cliqueEdges(D...), cliqueEdges(4, 5, 6, 7), path,
					star(4, append([]int32{0}, xs...)...), star(0, xs...))
			}
			e := build()
			if n := len(graph.IntersectSorted(nil, e.g.Neighbors(0), e.g.Neighbors(4))); n <= 64 {
				t.Fatalf("hub shares %d neighbours with 0, want > 64", n)
			}
			applyChecked(t, e, batched, del(5, 6))
			if got := e.numCandidatesOfOwner(e.nodeClique[0]); got != leaves-1 {
				t.Fatalf("D holds %d candidates, want %d", got, leaves-1)
			}
			merge := build()
			merge.DisableUnifiedFastPath()
			applyChecked(t, merge, batched, del(5, 6))
			sameCandidateIndex(t, e, merge)
		}},
	}
	for _, tc := range cases {
		for _, batched := range []bool{false, true} {
			name := tc.name + "/ops"
			if batched {
				name = tc.name + "/batch"
			}
			t.Run(name, func(t *testing.T) { tc.run(t, batched) })
		}
	}
}

// TestAnchoredMatchesOwnerRebuild compares the anchored enumeration with
// the whole-owner enumeration it replaces, in the state a unit's settle
// sees: one unit deletes an edge inside random S-cliques (dissolving
// them, repacking, and dropping their candidates), the sweep runs if the
// unit's flag asks for it, and nothing is refreshed yet. For every owner older than the unit and adjacent to the
// anchors, the runs of Algorithm 5's enumeration over B = C ∪ N_F(C)
// (candidatesOf) must be exactly the anchored runs, in the same order:
// owners ascending, each owner's cliques in enumeration order. Checked
// at k = 3..5.
func TestAnchoredMatchesOwnerRebuild(t *testing.T) {
	for _, k := range []int{3, 4, 5} {
		g := gen.CommunitySocial(1500, 10, 0.25, 7500, int64(40+k))
		res, err := core.Find(g, core.Options{K: k, Algorithm: core.LP})
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for round := int64(0); round < 4; round++ {
			e, err := NewWorkers(g, k, res.Cliques, 4)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(round))
			e.ApplyBatch(randomBatch(e, rng, 128))
			e.begin()
			for _, id := range slices.Sorted(maps.Keys(e.cliques)) {
				if c, ok := e.cliques[id]; ok && rng.Intn(6) == 0 {
					e.update(del(c[0], c[1+rng.Intn(k-1)]))
				}
			}
			freed := slices.Compact(slices.Sorted(slices.Values(e.unit.freed)))
			if e.unit.sweep {
				e.sweep(freed)
			}
			var anchors []int32
			for _, u := range freed {
				if e.IsFree(u) {
					anchors = append(anchors, u)
				}
			}
			sc := newEnumScratch(k)
			for _, owner := range adjacentOwners(e, anchors) {
				if owner < e.unit.before {
					e.candidatesOf(sc, owner)
				}
			}
			var want [][]int32
			for off := 0; off < len(sc.runs); off += k + 1 {
				want = append(want, sc.runs[off:off+k+1])
			}
			if got := e.collectRuns(anchors, nil); !slices.EqualFunc(got, want, slices.Equal[[]int32]) {
				t.Fatalf("k=%d round %d: anchored runs differ from owner rebuilds:\n got %v\nwant %v",
					k, round, got, want)
			}
			total += len(want)
		}
		if total == 0 {
			t.Fatalf("k=%d: no new candidates at all; the test checks nothing", k)
		}
	}
}

// adjacentOwners returns the sorted ids of the S-cliques with a member
// adjacent to any of the given nodes.
func adjacentOwners(e *Engine, nodes []int32) []int32 {
	var out []int32
	for _, u := range nodes {
		for _, w := range e.g.Neighbors(u) {
			if id := e.nodeClique[w]; id != free {
				out = append(out, id)
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// TestAnchoredIngestStream replays the toggling write stream the serving
// benchmark uses (workload.ReadWriteClients): every write deletes an
// edge or re-inserts one deleted earlier, so S-cliques keep splitting and
// their freed members keep anchoring refreshes. At k = 3..5 it runs the
// stream in batches with 1 and 4 workers, Verify after every batch and
// the two candidate indexes equal batch for batch, and op by op with
// Verify every 64 ops.
func TestAnchoredIngestStream(t *testing.T) {
	const batches, size = 24, 128
	for _, k := range []int{3, 4, 5} {
		g := gen.CommunitySocial(2000, 10, 0.25, 10000, int64(k))
		res, err := core.Find(g, core.Options{K: k, Algorithm: core.LP})
		if err != nil {
			t.Fatal(err)
		}
		var ops []workload.Op
		for _, op := range workload.ReadWriteClients(g, 1, batches*size, 0, int64(k)+1)[0] {
			ops = append(ops, op.Update)
		}
		engines := make([]*Engine, 3)
		for i, workers := range []int{1, 4, 1} {
			if engines[i], err = NewWorkers(g, k, res.Cliques, workers); err != nil {
				t.Fatal(err)
			}
		}
		one, four, serial := engines[0], engines[1], engines[2]
		for b := 0; b < batches; b++ {
			batch := ops[b*size : (b+1)*size]
			one.ApplyBatch(batch)
			four.ApplyBatch(batch)
			for i, op := range batch {
				serial.applyOne(op)
				if (i+1)%64 == 0 {
					if err := serial.Verify(); err != nil {
						t.Fatalf("k=%d op-by-op batch %d op %d: %v", k, b, i, err)
					}
				}
			}
			if err := one.Verify(); err != nil {
				t.Fatalf("k=%d batch %d: %v", k, b, err)
			}
			sameCandidateIndex(t, one, four)
		}
		if st := one.Stats(); st.Swaps == 0 || st.CandidatesCreated == 0 {
			t.Fatalf("k=%d: stream swapped %d times and created %d candidates; want both", k, st.Swaps, st.CandidatesCreated)
		}
	}
}
