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
		{3, 5, "3f587a3da589e98601dc9736", "ea9cd03330908bc27e94d0b4",
			digestStats{458, 2037, 3082, 0, 0, 1074},
			digestStats{380, 2037, 3082, 24, 6144, 1100}},
		{3, 81, "6e32a97de9eae88d2e29546a", "85b345120053b5f8c27fb622",
			digestStats{445, 2042, 3078, 0, 0, 1114},
			digestStats{378, 2042, 3078, 24, 6144, 1150}},
		{4, 5, "5e7ef9a7e00986b6dee5a2b3", "72b81bb7db7a9da378a7cfa2",
			digestStats{440, 2037, 3082, 0, 0, 1954},
			digestStats{414, 2037, 3082, 24, 6144, 1949}},
		{4, 81, "a441c10a9f026f76b9ef02cd", "79a2c7e1fba465f93cb5d88a",
			digestStats{462, 2042, 3078, 0, 0, 1935},
			digestStats{414, 2042, 3078, 24, 6144, 1931}},
		{5, 5, "0eeb8d11e7b58a9325b22539", "b20b8263bb50c4c80257a6a8",
			digestStats{381, 2037, 3082, 0, 0, 2063},
			digestStats{369, 2037, 3082, 24, 6144, 2063}},
		{5, 81, "74c55e0df9bb74f097324d5b", "c65d216ca5714d33ba3d6efc",
			digestStats{394, 2042, 3078, 0, 0, 1927},
			digestStats{375, 2042, 3078, 24, 6144, 1927}},
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
