package dynamic

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/workload"
)

// digestOps builds a maintenance churn stream over g: the toggling writes
// of one serving-benchmark client (workload.ReadWriteClients), then a
// mixed stream of re-insertions and deletions (workload.Mixed).
func digestOps(g *graph.Graph, writes, mixed int, seed int64) []workload.Op {
	var ops []workload.Op
	for _, op := range workload.ReadWriteClients(g, 1, writes, 0, seed+1)[0] {
		ops = append(ops, op.Update)
	}
	return append(ops, workload.Mixed(g, mixed, seed+2).Stream...)
}

// maintenanceDigest applies ops to a fresh engine, one by one through
// InsertEdge / DeleteEdge when batch is 0 and through ApplyBatch in
// batches of that size otherwise. It hashes the WriteCheckpoint bytes
// after every op whose 0-based index is a multiple of 16 (or after every
// batch) and once at the end, and returns the first 12 bytes of the
// SHA-256 in hex with the final stats.
func maintenanceDigest(t testing.TB, g *graph.Graph, k int, initial [][]int32, ops []workload.Op, batch, workers int) (string, Stats) {
	t.Helper()
	e, err := NewWorkers(g, k, initial, workers)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	checkpoint := func() {
		if err := e.WriteCheckpoint(h); err != nil {
			t.Fatal(err)
		}
	}
	if batch == 0 {
		for i, op := range ops {
			if op.Insert {
				e.InsertEdge(op.U, op.V)
			} else {
				e.DeleteEdge(op.U, op.V)
			}
			if i%16 == 0 {
				checkpoint()
			}
		}
	} else {
		for i := 0; i < len(ops); i += batch {
			e.ApplyBatch(ops[i:min(i+batch, len(ops))])
			checkpoint()
		}
	}
	checkpoint()
	if err := e.Verify(); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil)[:12]), e.Stats()
}

// digestStats is the part of Stats a maintenance digest pins.
type digestStats struct {
	swaps, insertions, deletions, batches, batchedOps int
	// netCandidates is CandidatesCreated - CandidatesDropped: the index
	// size, whatever the churn that led to it.
	netCandidates int
}

func pinnedStats(st Stats) digestStats {
	return digestStats{st.Swaps, st.Insertions, st.Deletions, st.Batches, st.BatchedOps,
		st.CandidatesCreated - st.CandidatesDropped}
}

// TestMaintenanceDigests pins what §V maintenance does to S: every
// checkpoint (graph, S with its clique ids, snapshot version) along churn
// streams at k = 3, 4, 5 and two seeds, applied op by op and in 256-op
// batches with 1 and 2 workers, plus the final counters. A change to how
// the engine maintains S that is meant to preserve its behaviour must
// leave every row unchanged; the batched rows also pin that the result
// does not depend on the worker count.
func TestMaintenanceDigests(t *testing.T) {
	want := []struct {
		k       int
		seed    int64
		single  string
		batched string
		ops     digestStats // op by op
		batches digestStats // 256-op batches
	}{
		{3, 5, "d5d918e190d9978ea93444d1", "1ba05f82903cde6bce975ab0",
			digestStats{458, 2037, 3082, 0, 0, 1082},
			digestStats{383, 2037, 3082, 24, 6144, 1107}},
		{3, 81, "59d70325155068a74417e3da", "d883ffa28f89f545656211f5",
			digestStats{448, 2042, 3078, 0, 0, 1078},
			digestStats{378, 2042, 3078, 24, 6144, 1163}},
		{4, 5, "535a52d2eac273931858ba71", "456515d8919aa875ff9ea2f3",
			digestStats{446, 2037, 3082, 0, 0, 1933},
			digestStats{417, 2037, 3082, 24, 6144, 1959}},
		{4, 81, "e66e4f2cad8a3d4ca3c386ef", "beee32d4dd28f8e65fbbe491",
			digestStats{474, 2042, 3078, 0, 0, 1933},
			digestStats{415, 2042, 3078, 24, 6144, 1945}},
		{5, 5, "3c41d7e7fe9e7f3b5b8bc59b", "e66ef29ee9a6502adc5e8353",
			digestStats{380, 2037, 3082, 0, 0, 2063},
			digestStats{367, 2037, 3082, 24, 6144, 2063}},
		{5, 81, "285e28cbc2fea899b4a1c153", "a6236463b8c7351e602e837d",
			digestStats{394, 2042, 3078, 0, 0, 1927},
			digestStats{373, 2042, 3078, 24, 6144, 1927}},
	}
	for _, w := range want {
		g := gen.CommunitySocial(3000, 10, 0.25, 15000, w.seed)
		res, err := core.Find(g, core.Options{K: w.k, Algorithm: core.LP, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		ops := digestOps(g, 16*256, 4*256, w.seed)
		got, st := maintenanceDigest(t, g, w.k, res.Cliques, ops, 0, 2)
		if got != w.single || pinnedStats(st) != w.ops {
			t.Errorf("k=%d seed %d op by op: digest %s %+v, want %s %+v", w.k, w.seed, got, pinnedStats(st), w.single, w.ops)
		}
		for _, workers := range []int{1, 2} {
			got, st := maintenanceDigest(t, g, w.k, res.Cliques, ops, 256, workers)
			if got != w.batched || pinnedStats(st) != w.batches {
				t.Errorf("k=%d seed %d batched, %d workers: digest %s %+v, want %s %+v",
					w.k, w.seed, workers, got, pinnedStats(st), w.batched, w.batches)
			}
		}
	}
}
