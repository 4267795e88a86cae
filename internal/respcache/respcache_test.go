package respcache

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/wire"
)

// TestBody pins the memoization contract directly: one build per
// version, shared bytes afterwards, monotone replacement.
func TestBody(t *testing.T) {
	var c Body
	builds := 0
	build := func(v uint64) func() []byte {
		return func() []byte {
			builds++
			return []byte(fmt.Sprintf("v%d", v))
		}
	}
	b1 := c.Get(5, build(5))
	b2 := c.Get(5, build(5))
	if builds != 1 {
		t.Fatalf("%d builds for one version", builds)
	}
	if &b1[0] != &b2[0] {
		t.Fatal("second read did not share the cached bytes")
	}
	b3 := c.Get(6, build(6))
	if builds != 2 || string(b3) != "v6" {
		t.Fatalf("builds=%d body=%q", builds, b3)
	}
	// A stale build (an old snapshot still held by a slow reader) must
	// not clobber the newer cached version.
	b4 := c.Get(5, build(5))
	if string(b4) != "v5" {
		t.Fatalf("stale read served %q", b4)
	}
	if got := c.Get(6, func() []byte { t.Fatal("rebuilt a cached version"); return nil }); string(got) != "v6" {
		t.Fatalf("cache lost version 6: %q", got)
	}
}

// TestBodyZeroAlloc is the acceptance-criterion pin: in the cached
// steady state the per-request body "encode" is an atomic load — zero
// allocations.
func TestBodyZeroAlloc(t *testing.T) {
	var c Body
	body := []byte("cached response body")
	c.Get(7, func() []byte { return body })
	allocs := testing.AllocsPerRun(1000, func() {
		if b := c.Get(7, func() []byte { t.Fatal("miss"); return nil }); len(b) == 0 {
			t.Fatal("empty body")
		}
	})
	if allocs != 0 {
		t.Fatalf("cached body retrieval allocates %.1f times per run", allocs)
	}
}

// TestSnapshotBinary checks the shared binary encoder against a direct
// wire encode — and that the cached bytes are version-keyed, so two
// transports mounting one Snapshot cache answer byte-identically.
func TestSnapshotBinary(t *testing.T) {
	snap := testSnapshot(t)

	var c Snapshot
	full := c.Binary(snap, false)
	want := wire.AppendSnapshotFrame(nil, snap.Version(), snap.K(), snap.N(), snap.M(),
		snap.Size(), snap.Cliques(), true)
	if !bytes.Equal(full, want) {
		t.Fatalf("cached full body differs from direct encode:\n got %x\nwant %x", full, want)
	}
	lean := c.Binary(snap, true)
	wantLean := wire.AppendSnapshotFrame(nil, snap.Version(), snap.K(), snap.N(), snap.M(),
		snap.Size(), nil, false)
	if !bytes.Equal(lean, wantLean) {
		t.Fatalf("cached lean body differs from direct encode")
	}
	// Second read of the same version shares the cached bytes.
	if again := c.Binary(snap, false); &again[0] != &full[0] {
		t.Fatal("second read did not share the cached bytes")
	}
}

// testSnapshot is a 9-node graph with two triangles and three free
// nodes, solved for k=3.
func testSnapshot(t *testing.T) *dynamic.Snapshot {
	t.Helper()
	g, err := graph.FromEdges(9, [][2]int32{{0, 1}, {0, 2}, {1, 2}, {3, 4}, {3, 5}, {4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := dynamic.New(g, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	return eng.Snapshot()
}

// TestCliques pins the shared lookup resolution: a clique referenced by
// several nodes is listed once, free nodes resolve to -1, and a node
// outside the graph fails the whole batch with the point lookup's error.
func TestCliques(t *testing.T) {
	snap := testSnapshot(t)
	cliques, lookups, err := Cliques(snap, []int32{4, 0, 7, 3, 1})
	if err != nil {
		t.Fatal(err)
	}
	wantCliques := [][]int32{snap.CliqueOf(4), snap.CliqueOf(0)}
	wantLookups := []wire.Lookup{{Node: 4, Clique: 0}, {Node: 0, Clique: 1}, {Node: 7, Clique: -1},
		{Node: 3, Clique: 0}, {Node: 1, Clique: 1}}
	if !reflect.DeepEqual(cliques, wantCliques) || !reflect.DeepEqual(lookups, wantLookups) {
		t.Fatalf("resolved %v / %v, want %v / %v", cliques, lookups, wantCliques, wantLookups)
	}
	if cliques, _, err := Cliques(snap, []int32{6, 7}); cliques != nil || err != nil {
		t.Fatalf("all-free batch: cliques %v, %v", cliques, err)
	}

	if _, _, err := Cliques(snap, []int32{0, 9}); err == nil || err.Error() != "node 9 out of range for 9 nodes" {
		t.Fatalf("out-of-range batch: %v", err)
	}
	if _, err := Clique(snap, -1); err == nil || err.Error() != "node -1 out of range for 9 nodes" {
		t.Fatalf("out-of-range point lookup: %v", err)
	}
	if c, err := Clique(snap, 8); c != nil || err != nil {
		t.Fatalf("free node: %v, %v", c, err)
	}
}

// TestCounterTable pins the stats schema: the counter names in order,
// and a table row for every serve.Stats field. Each field gets a
// distinct value by reflection, and each value must reach the built
// block, so a service counter added without a row fails here.
func TestCounterTable(t *testing.T) {
	want := []string{
		"size", "nodes", "edges",
		"enqueued", "applied", "changed", "batches", "flushes",
		"recovered", "checkpoints", "wal_batches", "wal_bytes",
		"insertions", "deletions", "swaps", "index_build_us",
		"queue_depth", "snapshot_age",
		"wal_syncs", "group_commit_ops", "checkpoint_stall_ns",
	}
	snap := testSnapshot(t)
	var st serve.Stats
	fields := reflect.ValueOf(&st).Elem()
	for i := 0; i < fields.NumField(); i++ {
		fields.Field(i).SetUint(1<<40 + uint64(i))
	}
	arr := statsBlock(snap, st)
	block := wire.Stats(arr[:])
	var names []string
	values := make(map[uint64]bool)
	for _, c := range block {
		names = append(names, c.Name)
		values[c.Value] = true
	}
	if !slices.Equal(names, want) {
		t.Fatalf("counter names\n got %q\nwant %q", names, want)
	}
	for i := 0; i < fields.NumField(); i++ {
		if !values[1<<40+uint64(i)] {
			t.Errorf("serve.Stats.%s has no row in the counter table", fields.Type().Field(i).Name)
		}
	}
	if v, _ := block.Get("nodes"); v != uint64(snap.N()) {
		t.Fatalf("nodes = %d, want %d", v, snap.N())
	}
}
