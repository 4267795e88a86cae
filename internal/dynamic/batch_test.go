package dynamic

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/workload"
)

// batchTestSetup builds a community-social graph, runs static LP for the
// initial set, and returns the graph plus a mixed update stream applied on
// top of the prepared deletions (the paper's §VI-E workload shape), at
// k = 3.
func batchTestSetup(t testing.TB, nodes, updates int, seed int64) (startEngine func(workers int) *Engine, stream []workload.Op) {
	return batchTestSetupK(t, 3, nodes, updates, seed)
}

// batchTestSetupK is batchTestSetup for clique size k.
func batchTestSetupK(t testing.TB, k, nodes, updates int, seed int64) (startEngine func(workers int) *Engine, stream []workload.Op) {
	t.Helper()
	g := gen.CommunitySocial(nodes, nodes/40, 0.15, nodes*2, seed)
	res, err := core.Find(g, core.Options{K: k, Algorithm: core.LP, StrictTies: true})
	if err != nil {
		t.Fatal(err)
	}
	w := workload.Mixed(g, updates, seed+1)
	startEngine = func(workers int) *Engine {
		e, err := NewWorkers(g, k, res.Cliques, workers)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range w.Prepare {
			if op.Insert {
				e.InsertEdge(op.U, op.V)
			} else {
				e.DeleteEdge(op.U, op.V)
			}
		}
		return e
	}
	return startEngine, w.Stream
}

// TestApplyBatchInvariants: after a batched mixed workload every engine
// invariant (disjointness, maximality, exact candidate index) must hold,
// and the applied count must match serial application.
func TestApplyBatchInvariants(t *testing.T) {
	start, stream := batchTestSetup(t, 800, 300, 3)

	serial := start(1)
	wantApplied := 0
	for _, op := range stream {
		if serial.applyOne(op) {
			wantApplied++
		}
	}
	if err := serial.Verify(); err != nil {
		t.Fatalf("serial engine invalid: %v", err)
	}

	batched := start(0)
	if got := batched.ApplyBatch(stream); got != wantApplied {
		t.Fatalf("ApplyBatch applied %d ops, serial applied %d", got, wantApplied)
	}
	if err := batched.Verify(); err != nil {
		t.Fatalf("batched engine invalid: %v", err)
	}
	if st := batched.Stats(); st.Batches != 1 || st.BatchedOps != len(stream) {
		t.Fatalf("stats = %+v, want 1 batch of %d ops", st, len(stream))
	}

	// Both engines hold maximal sets of the same final graph; the swap
	// schedules differ, so the sets may differ slightly — but a batched
	// run collapsing quality would be a bug.
	bs, ss := batched.Size(), serial.Size()
	if float64(bs) < 0.95*float64(ss) {
		t.Fatalf("batched |S| = %d collapsed versus serial |S| = %d", bs, ss)
	}
}

// TestApplyBatchWorkerInvariance: the tentpole determinism guarantee for
// the dynamic layer — identical results byte-for-byte regardless of the
// worker count used for construction and batch updates. Swaps break ties
// by candidate id, so the whole candidate index (every id, owner and
// member list, and the next id) must match too, not just its size: a
// worker-dependent id permutation would make engines drift later.
func TestApplyBatchWorkerInvariance(t *testing.T) {
	for _, k := range []int{3, 4} {
		start, stream := batchTestSetupK(t, k, 600, 200, 9)
		var base *Engine
		for _, workers := range []int{1, 2, 8} {
			e := start(workers)
			e.ApplyBatch(stream)
			if err := e.Verify(); err != nil {
				t.Fatalf("k=%d workers=%d: %v", k, workers, err)
			}
			if base == nil {
				base = e
				continue
			}
			if !reflect.DeepEqual(e.Result(), base.Result()) {
				t.Fatalf("k=%d workers=%d: result set diverges from workers=1", k, workers)
			}
			sameCandidateIndex(t, e, base)
		}
		if base.Stats().Swaps == 0 {
			t.Fatalf("k=%d: the stream swapped nothing", k)
		}
	}
}

// TestApplyBatchChunked: chunked batches end in a valid state after every
// chunk, mirroring how a stream consumer would drain a queue.
func TestApplyBatchChunked(t *testing.T) {
	start, stream := batchTestSetup(t, 500, 240, 17)
	e := start(0)
	const chunk = 40
	for i := 0; i < len(stream); i += chunk {
		end := i + chunk
		if end > len(stream) {
			end = len(stream)
		}
		e.ApplyBatch(stream[i:end])
		if err := e.Verify(); err != nil {
			t.Fatalf("after chunk ending at %d: %v", end, err)
		}
	}
	if st := e.Stats(); st.Batches != (len(stream)+chunk-1)/chunk {
		t.Fatalf("batches = %d, want %d", st.Batches, (len(stream)+chunk-1)/chunk)
	}
}

// TestApplyBatchEmptyAndNoop: empty batches and no-op updates are cheap
// and leave the engine untouched.
func TestApplyBatchEmptyAndNoop(t *testing.T) {
	start, _ := batchTestSetup(t, 300, 10, 23)
	e := start(1)
	before := e.Result()
	if got := e.ApplyBatch(nil); got != 0 {
		t.Fatalf("empty batch applied %d", got)
	}
	// Deleting absent edges and re-inserting existing ones changes nothing.
	ops := []workload.Op{
		{Insert: false, U: 0, V: 1},
		{Insert: false, U: 0, V: 1},
	}
	if e.Graph().HasEdge(0, 1) {
		ops = []workload.Op{{Insert: true, U: 0, V: 1}, {Insert: true, U: 0, V: 1}}
	}
	got := e.ApplyBatch(ops)
	if got > 1 {
		t.Fatalf("idempotent pair applied %d times", got)
	}
	if got == 0 && !reflect.DeepEqual(e.Result(), before) {
		t.Fatal("no-op batch changed the result set")
	}
	if err := e.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestNewWorkersDeterminism: index construction is identical for every
// worker count (candidate ids included, since installation is serial in
// ascending clique order).
func TestNewWorkersDeterminism(t *testing.T) {
	start, _ := batchTestSetup(t, 700, 10, 31)
	base := start(1)
	for _, workers := range []int{2, 4, 16} {
		e := start(workers)
		if e.NumCandidates() != base.NumCandidates() {
			t.Fatalf("workers=%d: %d candidates, want %d", workers, e.NumCandidates(), base.NumCandidates())
		}
		if !reflect.DeepEqual(e.Result(), base.Result()) {
			t.Fatalf("workers=%d: result diverges", workers)
		}
	}
}

// candidatesOfGlobal is candidatesOf with the lookup owner-local matching
// replaced: every enumerated clique probes the global dedup index.
func candidatesOfGlobal(e *Engine, id int32) (kept []int32, fresh, allFree [][]int32) {
	sc := newEnumScratch(e.k)
	buf := make([]int32, e.k)
	e.forEachCliqueAmong(sc, e.freeNeighborhood(sc, e.cliques[id]), func(c []int32) bool {
		copy(buf, c)
		slices.Sort(buf)
		nonFree := 0
		for _, u := range buf {
			if e.nodeClique[u] != free {
				nonFree++
			}
		}
		switch {
		case nonFree == e.k:
		case nonFree == 0:
			allFree = append(allFree, slices.Clone(buf))
		default:
			if c, ok := e.candDedup.lookup(buf, hashNodes(buf)); ok {
				kept = append(kept, c.id)
			} else {
				fresh = append(fresh, slices.Clone(buf))
			}
		}
		return true
	})
	return kept, fresh, allFree
}

// TestCandidatesOfOwnerLocal: matching each enumerated clique against the
// owner's own indexed candidates finds exactly what a probe of the global
// dedup index finds, for every owner. The check runs in the state
// ApplyBatch's parallel rebuilds see, a graph that moved on from the
// index: after a random batch, the engine deletes random edges and the
// graph alone re-inserts them (deleted again afterwards), so owners
// enumerate both indexed candidates and ones the index lacks.
func TestCandidatesOfOwnerLocal(t *testing.T) {
	g := gen.CommunitySocial(1500, 10, 0.25, 7500, 41)
	res, err := core.Find(g, core.Options{K: 4, Algorithm: core.LP})
	if err != nil {
		t.Fatal(err)
	}
	equalLists := func(a, b [][]int32) bool { return slices.EqualFunc(a, b, slices.Equal[[]int32]) }
	for _, workers := range []int{1, 4} {
		e, err := NewWorkers(g, 4, res.Cliques, workers)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		var kepts, freshes int
		for round := 0; round < 6; round++ {
			e.ApplyBatch(randomBatch(e, rng, 64))
			edges := e.g.Snapshot().EdgeList()
			var dels []workload.Op
			for range 64 {
				ed := edges[rng.Intn(len(edges))]
				dels = append(dels, workload.Op{U: ed[0], V: ed[1]})
			}
			e.ApplyBatch(dels)
			for _, op := range dels {
				e.g.InsertEdge(op.U, op.V)
			}
			owners := make([]int32, 0, len(e.cliques))
			for id := range e.cliques {
				owners = append(owners, id)
			}
			slices.Sort(owners)
			kept, fresh, allFree := e.collectCandidates(owners)
			for i, id := range owners {
				wantKept, wantFresh, wantAllFree := candidatesOfGlobal(e, id)
				if !slices.Equal(kept[i], wantKept) || !equalLists(fresh[i], wantFresh) || !equalLists(allFree[i], wantAllFree) {
					t.Fatalf("workers=%d round %d owner %d: kept %v fresh %v allFree %v; global probe: kept %v fresh %v allFree %v",
						workers, round, id, kept[i], fresh[i], allFree[i], wantKept, wantFresh, wantAllFree)
				}
				for _, c := range fresh[i] {
					if got, ok := e.candDedup.lookup(c, hashNodes(c)); ok {
						t.Fatalf("workers=%d owner %d: fresh %v is indexed as candidate %d", workers, id, c, got.id)
					}
				}
				kepts += len(kept[i])
				freshes += len(fresh[i])
			}
			for _, op := range dels {
				e.g.DeleteEdge(op.U, op.V)
			}
			if err := e.Verify(); err != nil {
				t.Fatalf("workers=%d round %d: %v", workers, round, err)
			}
		}
		if kepts == 0 || freshes == 0 {
			t.Fatalf("workers=%d: %d kept and %d fresh candidates; want both", workers, kepts, freshes)
		}
	}
}
