package dynamic

import (
	"maps"
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
// worker count used for construction and batch updates. The whole
// candidate index (every owner's member lists) must match too, not just
// its size.
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
// worker count.
func TestNewWorkersDeterminism(t *testing.T) {
	start, _ := batchTestSetup(t, 700, 10, 31)
	base := start(1)
	for _, workers := range []int{2, 4, 16} {
		e := start(workers)
		if !reflect.DeepEqual(e.Result(), base.Result()) {
			t.Fatalf("workers=%d: result diverges", workers)
		}
		sameCandidateIndex(t, e, base)
	}
}

// candidatesOfGlobal is candidatesOf with the owner-local matching
// replaced: every enumerated clique probes the global digest table. It
// returns the candidates the index lacks as (owner, members) runs, and
// how many it holds.
func candidatesOfGlobal(e *Engine, id int32) (runs [][]int32, indexed int) {
	sc := newEnumScratch(e.k)
	e.forEachCliqueAmong(sc, e.freeNeighborhood(sc, e.cliques[id]), func(c []int32) bool {
		cc := slices.Sorted(slices.Values(c))
		nonFree := 0
		for _, u := range cc {
			if e.nodeClique[u] != free {
				nonFree++
			}
		}
		switch {
		case nonFree == e.k:
		case nonFree == 0:
			panic("all-free clique: S is not maximal")
		default:
			if e.index.lookup(cc, hashNodes(cc)) != 0 {
				indexed++
			} else {
				runs = append(runs, append([]int32{id}, cc...))
			}
		}
		return true
	})
	return runs, indexed
}

// TestCandidatesOfOwnerLocal: matching each enumerated clique against the
// owner's own indexed candidates finds exactly what a probe of the global
// digest table finds, for every owner, and collectRuns returns the missing
// ones in the order the per-owner enumeration emits them. The check runs
// on a graph that moved on from the index: after a random batch, the
// engine deletes random edges and the graph alone re-inserts those with a
// bound endpoint (so S stays maximal) and deletes them again afterwards.
// Owners thus enumerate both indexed candidates and ones the index lacks.
func TestCandidatesOfOwnerLocal(t *testing.T) {
	g := gen.CommunitySocial(1500, 10, 0.25, 7500, 41)
	res, err := core.Find(g, core.Options{K: 4, Algorithm: core.LP})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		e, err := NewWorkers(g, 4, res.Cliques, workers)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		var indexed, missing int
		for round := 0; round < 6; round++ {
			e.ApplyBatch(randomBatch(e, rng, 64))
			edges := e.g.Snapshot().EdgeList()
			var dels []workload.Op
			for range 64 {
				ed := edges[rng.Intn(len(edges))]
				dels = append(dels, workload.Op{U: ed[0], V: ed[1]})
			}
			e.ApplyBatch(dels)
			var back []workload.Op
			for _, op := range dels {
				if (!e.IsFree(op.U) || !e.IsFree(op.V)) && e.g.InsertEdge(op.U, op.V) {
					back = append(back, op)
				}
			}
			owners := slices.Sorted(maps.Keys(e.cliques))
			var want [][]int32
			for _, id := range owners {
				runs, n := candidatesOfGlobal(e, id)
				want = append(want, runs...)
				indexed += n
			}
			got := e.collectRuns(nil, owners, true)
			if !slices.EqualFunc(got, want, slices.Equal[[]int32]) {
				t.Fatalf("workers=%d round %d: runs %v; global probe: %v", workers, round, got, want)
			}
			missing += len(got)
			for _, op := range back {
				e.g.DeleteEdge(op.U, op.V)
			}
			if err := e.Verify(); err != nil {
				t.Fatalf("workers=%d round %d: %v", workers, round, err)
			}
		}
		if indexed == 0 || missing == 0 {
			t.Fatalf("workers=%d: %d indexed and %d missing candidates; want both", workers, indexed, missing)
		}
	}
}
