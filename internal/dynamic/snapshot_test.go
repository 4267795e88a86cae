package dynamic

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/workload"
)

func twoTriangles(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(6, [][2]int32{
		{0, 1}, {1, 2}, {0, 2},
		{3, 4}, {4, 5}, {3, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSnapshotZeroAlloc pins the acceptance criterion: the whole read path
// — loading the snapshot and answering point queries from it — performs
// zero allocations.
func TestSnapshotZeroAlloc(t *testing.T) {
	e, err := New(twoTriangles(t), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sink int
	allocs := testing.AllocsPerRun(1000, func() {
		s := e.Snapshot()
		sink += s.Size() + s.N() + s.M() + len(s.CliqueOf(0))
		if s.Contains(1) {
			sink++
		}
		sink += len(s.Cliques())
	})
	if allocs != 0 {
		t.Fatalf("read path allocated %v times per run, want 0", allocs)
	}
	_ = sink
}

// TestSnapshotVersionAndQueries exercises the query surface and version
// counter across updates that do and do not move S.
func TestSnapshotVersionAndQueries(t *testing.T) {
	e, err := New(twoTriangles(t), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := e.Snapshot()
	if s == nil {
		t.Fatal("no snapshot published at construction")
	}
	if s.Version() != 1 {
		t.Fatalf("initial version = %d, want 1", s.Version())
	}
	if s.Size() != 2 || s.K() != 3 || s.N() != 6 || s.M() != 6 {
		t.Fatalf("snapshot header = size %d k %d n %d m %d", s.Size(), s.K(), s.N(), s.M())
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	for u := int32(0); u < 6; u++ {
		if !s.Contains(u) {
			t.Fatalf("node %d should be covered", u)
		}
	}
	if got := s.CliqueOf(4); !reflect.DeepEqual(got, []int32{3, 4, 5}) {
		t.Fatalf("CliqueOf(4) = %v", got)
	}
	if s.CliqueOf(-1) != nil || s.CliqueOf(99) != nil {
		t.Fatal("out-of-range CliqueOf must return nil")
	}

	// An insertion that leaves S untouched still publishes (M changed) and
	// reuses the membership arrays copy-on-write.
	if !e.InsertEdge(0, 3) {
		t.Fatal("insert failed")
	}
	s2 := e.Snapshot()
	if s2.Version() != s.Version()+1 {
		t.Fatalf("version after insert = %d, want %d", s2.Version(), s.Version()+1)
	}
	if s2.M() != 7 {
		t.Fatalf("M after insert = %d, want 7", s2.M())
	}
	if &s2.cliques[0][0] != &s.cliques[0][0] {
		t.Error("S-preserving update should reuse the clique arrays")
	}

	// A no-op update publishes nothing.
	if e.InsertEdge(0, 3) {
		t.Fatal("duplicate insert reported true")
	}
	if got := e.Snapshot().Version(); got != s2.Version() {
		t.Fatalf("no-op update bumped version to %d", got)
	}

	// A deletion inside an S-clique moves S: fresh arrays, valid snapshot.
	if !e.DeleteEdge(3, 4) {
		t.Fatal("delete failed")
	}
	s3 := e.Snapshot()
	if s3.Version() <= s2.Version() {
		t.Fatalf("version after delete = %d", s3.Version())
	}
	if s3.Size() != 1 {
		t.Fatalf("size after delete = %d, want 1", s3.Size())
	}
	if err := s3.Validate(); err != nil {
		t.Fatal(err)
	}
	// The older snapshots still answer from their own era.
	if s2.Size() != 2 || !s2.Contains(4) {
		t.Error("older snapshot changed retroactively")
	}
}

// TestSnapshotAddNode checks that node growth extends the read path
// correctly: the fresh node reads as free on the new snapshot and as
// out-of-range (nil, false) on older ones.
func TestSnapshotAddNode(t *testing.T) {
	e, err := New(twoTriangles(t), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	old := e.Snapshot()
	id := e.AddNode()
	s := e.Snapshot()
	if s.N() != 7 {
		t.Fatalf("N = %d, want 7", s.N())
	}
	if s.Contains(id) || s.CliqueOf(id) != nil {
		t.Fatal("fresh node must be free")
	}
	if old.Contains(id) {
		t.Fatal("old snapshot claims the new node")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotMatchesEngineUnderBatches drives randomized batches and
// checks after each one that the published snapshot agrees with the
// engine's own view and validates.
func TestSnapshotMatchesEngineUnderBatches(t *testing.T) {
	g := randomGraph(40, 0.25, 5)
	e, err := New(g, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := workload.Mixed(g, 60, 9)
	for _, op := range w.Prepare {
		e.DeleteEdge(op.U, op.V)
	}
	for i := 0; i+10 <= len(w.Stream); i += 10 {
		e.ApplyBatch(w.Stream[i : i+10])
		s := e.Snapshot()
		if err := s.Validate(); err != nil {
			t.Fatalf("batch %d: %v", i/10, err)
		}
		if s.Size() != e.Size() {
			t.Fatalf("batch %d: snapshot size %d, engine %d", i/10, s.Size(), e.Size())
		}
		if s.M() != e.Graph().M() || s.N() != e.Graph().N() {
			t.Fatalf("batch %d: snapshot graph %d/%d, engine %d/%d",
				i/10, s.N(), s.M(), e.Graph().N(), e.Graph().M())
		}
		if !reflect.DeepEqual(s.Cliques(), e.Result()) {
			t.Fatalf("batch %d: snapshot cliques diverge from Result", i/10)
		}
		for u := int32(0); int(u) < g.N(); u++ {
			if s.Contains(u) == e.IsFree(u) {
				t.Fatalf("batch %d: node %d free status disagrees", i/10, u)
			}
		}
		if err := e.Verify(); err != nil {
			t.Fatalf("batch %d: %v", i/10, err)
		}
	}
}

// TestOrderHolesCompactAtPublish: a batch that dissolves every other
// S-clique leaves holes in the publication order until the publish that
// ends the batch closes them. Afterwards Verify holds, the snapshot lists
// the cliques in ascending id order, and the checkpoint image equals that
// of a twin that applied the same ops one at a time, apart from the
// version field (the twin published once per op).
func TestOrderHolesCompactAtPublish(t *testing.T) {
	const groups, k = 40, 4
	// Group i is the S-clique {a, b, c, d} = 5i..5i+3 plus the free node
	// f = 5i+4 adjacent to a, b and c. Deleting (c, d) dissolves the
	// clique and repacks {a, b, c, f} under a fresh id.
	var edges [][2]int32
	var initial [][]int32
	for i := int32(0); i < groups; i++ {
		a, b, c, d, f := 5*i, 5*i+1, 5*i+2, 5*i+3, 5*i+4
		edges = append(edges, [2]int32{a, b}, [2]int32{a, c}, [2]int32{a, d}, [2]int32{b, c},
			[2]int32{b, d}, [2]int32{c, d}, [2]int32{a, f}, [2]int32{b, f}, [2]int32{c, f})
		initial = append(initial, []int32{a, b, c, d})
	}
	g, err := graph.FromEdges(5*groups, edges)
	if err != nil {
		t.Fatal(err)
	}
	build := func() *Engine {
		e, err := NewWorkers(g, k, initial, 2)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	batched, twin := build(), build()
	var ops []workload.Op
	for i := int32(0); i < groups; i += 2 {
		ops = append(ops, workload.Op{U: 5*i + 2, V: 5*i + 3})
	}
	v0 := batched.Snapshot().Version()
	if got := batched.ApplyBatch(ops); got != len(ops) {
		t.Fatalf("batch applied %d of %d ops", got, len(ops))
	}
	for _, op := range ops {
		twin.applyOne(op)
	}
	for _, e := range []*Engine{batched, twin} {
		if err := e.Verify(); err != nil {
			t.Fatal(err)
		}
	}

	s := batched.Snapshot()
	if s.Version() != v0+1 || twin.Snapshot().Version() != v0+uint64(len(ops)) {
		t.Fatalf("versions %d (batched) and %d (twin), want %d and %d",
			s.Version(), twin.Snapshot().Version(), v0+1, v0+uint64(len(ops)))
	}
	if s.Size() != groups || !slices.IsSorted(s.ids) || s.ids[groups-1] != groups+groups/2-1 {
		t.Fatalf("snapshot holds %d cliques under ids %v, want %d ascending up to %d",
			s.Size(), s.ids, groups, groups+groups/2-1)
	}
	for i, id := range s.ids {
		if !slices.Equal(s.Clique(i), batched.cliques[id]) {
			t.Fatalf("snapshot clique %d is %v, engine clique %d is %v", i, s.Clique(i), id, batched.cliques[id])
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Cliques(), twin.Result()) {
		t.Fatal("batched and serially applied results differ")
	}

	var img, twinImg bytes.Buffer
	if err := batched.WriteCheckpoint(&img); err != nil {
		t.Fatal(err)
	}
	if err := twin.WriteCheckpoint(&twinImg); err != nil {
		t.Fatal(err)
	}
	// The version is the third header word, after the magic and k.
	a, b := img.Bytes(), twinImg.Bytes()
	if got := binary.LittleEndian.Uint64(a[16:24]); got != s.Version() {
		t.Fatalf("checkpoint version %d, want %d", got, s.Version())
	}
	copy(b[16:24], a[16:24])
	if !bytes.Equal(a, b) {
		t.Fatal("checkpoint image differs from the serially applied twin's")
	}
}
