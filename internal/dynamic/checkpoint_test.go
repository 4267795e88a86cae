package dynamic

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/workload"
)

// writeCheckpointRef is the binary.Write encoder WriteCheckpoint
// replaced; the appending encoder must reproduce its bytes exactly.
func (e *Engine) writeCheckpointRef(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(checkpointMagic[:]); err != nil {
		return err
	}
	gs := e.g.Snapshot()
	var version uint64
	if s := e.snap.Load(); s != nil {
		version = s.version
	}
	hdr := []int64{
		int64(e.k),
		int64(version),
		int64(e.nextClique),
		int64(len(e.orderIds)),
		graphBinarySize(gs),
	}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if err := graph.WriteBinary(bw, gs); err != nil {
		return err
	}
	for i, id := range e.orderIds {
		if err := binary.Write(bw, binary.LittleEndian, id); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, e.orderCliques[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// TestWriteCheckpointMatchesReference compares WriteCheckpoint with the
// binary.Write reference on random engines, k = 3..5, after churn; the
// larger ones hold clique records many write buffers long.
func TestWriteCheckpointMatchesReference(t *testing.T) {
	for k := 3; k <= 5; k++ {
		for seed := int64(0); seed < 2; seed++ {
			g := gen.CommunitySocial(3000, 10, 0.1, 3000, 40+seed)
			e, err := New(g, k, nil)
			if err != nil {
				t.Fatal(err)
			}
			churn(e, rand.New(rand.NewSource(50+seed)), 300)
			var got, want bytes.Buffer
			if err := e.WriteCheckpoint(&got); err != nil {
				t.Fatal(err)
			}
			if err := e.writeCheckpointRef(&want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("k=%d seed %d (|S|=%d): checkpoint differs from the reference", k, seed, e.Size())
			}
			if recs := e.Size() * 4 * (1 + k); recs < 2*4096 {
				t.Fatalf("k=%d seed %d: %d bytes of clique records fit one write buffer", k, seed, recs)
			}
		}
	}
}

// churn applies n random single ops to the engine, mirroring them into a
// parallel op log so tests can replay the same stream elsewhere.
func churn(e *Engine, rng *rand.Rand, n int) []workload.Op {
	edges := e.g.Snapshot().EdgeList()
	ops := make([]workload.Op, 0, n)
	for i := 0; i < n; i++ {
		var op workload.Op
		if rng.Intn(2) == 0 && len(edges) > 0 {
			ed := edges[rng.Intn(len(edges))]
			op = workload.Op{Insert: false, U: ed[0], V: ed[1]}
		} else {
			u := int32(rng.Intn(e.g.N()))
			v := int32(rng.Intn(e.g.N()))
			if u == v {
				continue
			}
			op = workload.Op{Insert: true, U: u, V: v}
		}
		e.ApplyBatch([]workload.Op{op})
		ops = append(ops, op)
	}
	return ops
}

func sameEngineState(t *testing.T, a, b *Engine) {
	t.Helper()
	if a.k != b.k || a.nextClique != b.nextClique {
		t.Fatalf("k/nextClique mismatch: (%d,%d) vs (%d,%d)", a.k, a.nextClique, b.k, b.nextClique)
	}
	if !reflect.DeepEqual(a.cliques, b.cliques) {
		t.Fatalf("clique sets differ: %d vs %d cliques", len(a.cliques), len(b.cliques))
	}
	if !reflect.DeepEqual(a.nodeClique, b.nodeClique) {
		t.Fatal("membership arrays differ")
	}
	if a.g.N() != b.g.N() || a.g.M() != b.g.M() {
		t.Fatalf("graphs differ: n=%d/%d m=%d/%d", a.g.N(), b.g.N(), a.g.M(), b.g.M())
	}
	for u := int32(0); int(u) < a.g.N(); u++ {
		if !reflect.DeepEqual(a.g.Neighbors(u), b.g.Neighbors(u)) &&
			(len(a.g.Neighbors(u)) != 0 || len(b.g.Neighbors(u)) != 0) {
			t.Fatalf("adjacency of %d differs", u)
		}
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	if sa.Version() != sb.Version() {
		t.Fatalf("snapshot versions differ: %d vs %d", sa.Version(), sb.Version())
	}
	if !reflect.DeepEqual(sa.Cliques(), sb.Cliques()) {
		t.Fatal("published clique lists differ")
	}
}

// sameCandidateIndex requires identical candidate indexes: the same
// candidates under the same owners. List order is not compared, since no
// decision reads it.
func sameCandidateIndex(t *testing.T, a, b *Engine) {
	t.Helper()
	if a.NumCandidates() != b.NumCandidates() {
		t.Fatalf("candidate counts differ: %d vs %d", a.NumCandidates(), b.NumCandidates())
	}
	la, lb := ownerLists(a), ownerLists(b)
	for owner, lists := range la {
		if !reflect.DeepEqual(lists, lb[owner]) {
			t.Fatalf("candidates of clique %d differ: %v vs %v", owner, lists, lb[owner])
		}
	}
	if len(la) != len(lb) {
		t.Fatalf("%d owners hold candidates vs %d", len(la), len(lb))
	}
}

// ownerLists copies out every owner's candidate member lists, sorted.
func ownerLists(e *Engine) map[int32][][]int32 {
	m := make(map[int32][][]int32)
	for owner := range e.index.byOwner {
		for _, c := range e.ownedMembers(owner) {
			m[owner] = append(m[owner], slices.Clone(c))
		}
		slices.SortFunc(m[owner], slices.Compare)
	}
	return m
}

func newCheckpointEngine(t *testing.T, seed int64) *Engine {
	t.Helper()
	g := gen.CommunitySocial(250, 8, 0.3, 700, seed)
	e, err := New(g, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestCheckpointRoundTrip(t *testing.T) {
	e := newCheckpointEngine(t, 3)
	rng := rand.New(rand.NewSource(5))
	churn(e, rng, 200)

	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := LoadCheckpoint(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Verify(); err != nil {
		t.Fatalf("loaded engine: %v", err)
	}
	sameEngineState(t, e, r)
	sameCandidateIndex(t, e, r)
	e.CanonicalizeIndex()
	if err := e.Verify(); err != nil {
		t.Fatalf("rebuilt engine: %v", err)
	}
	sameCandidateIndex(t, e, r)
}

// TestCheckpointReplayDeterminism is the guarantee recovery rests on:
// the live engine, whose index grew under updates, and an engine loaded
// from its checkpoint, whose index was rebuilt, stay byte-identical under
// the same update stream, batch for batch. No rebuild runs on the live
// engine at the checkpoint.
func TestCheckpointReplayDeterminism(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		e := newCheckpointEngine(t, 11+seed)
		rng := rand.New(rand.NewSource(17 + seed))
		churn(e, rng, 150)

		var buf bytes.Buffer
		if err := e.WriteCheckpoint(&buf); err != nil {
			t.Fatal(err)
		}
		r, err := LoadCheckpoint(&buf, 2)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 30; round++ {
			batch := randomBatch(e, rng, 1+rng.Intn(8))
			ca, cb := e.ApplyBatch(batch), r.ApplyBatch(batch)
			if ca != cb {
				t.Fatalf("seed %d round %d: applied %d vs %d", seed, round, ca, cb)
			}
			sameEngineState(t, e, r)
		}
		if err := r.Verify(); err != nil {
			t.Fatal(err)
		}
		sameCandidateIndex(t, e, r)
	}

	// The churn of TestMaintenanceDigests ties many swaps. Checkpoint
	// halfway, then apply the second half to the live engine and to the
	// loaded one, op by op and in 64-op batches.
	g := gen.CommunitySocial(3000, 10, 0.25, 15000, 5)
	ops := digestOps(g, 8*256, 2*256, 5)
	first, second := ops[:len(ops)/2], ops[len(ops)/2:]
	for _, k := range []int{3, 4} {
		res, err := core.Find(g, core.Options{K: k, Algorithm: core.LP, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range []int{0, 64} {
			e, err := NewWorkers(g, k, res.Cliques, 2)
			if err != nil {
				t.Fatal(err)
			}
			replayOps(e, first, batch)
			var buf bytes.Buffer
			if err := e.WriteCheckpoint(&buf); err != nil {
				t.Fatal(err)
			}
			r, err := LoadCheckpoint(&buf, 2)
			if err != nil {
				t.Fatal(err)
			}
			replayOps(e, second, batch)
			replayOps(r, second, batch)
			var live, loaded bytes.Buffer
			if err := e.WriteCheckpoint(&live); err != nil {
				t.Fatal(err)
			}
			if err := r.WriteCheckpoint(&loaded); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(live.Bytes(), loaded.Bytes()) {
				t.Errorf("k=%d batch %d: live and loaded engines' checkpoints differ after the second half", k, batch)
			}
		}
	}
}

// replayOps applies ops to e one by one through InsertEdge / DeleteEdge
// when batch is 0, and through ApplyBatch in batches of that size
// otherwise.
func replayOps(e *Engine, ops []workload.Op, batch int) {
	if batch == 0 {
		for _, op := range ops {
			if op.Insert {
				e.InsertEdge(op.U, op.V)
			} else {
				e.DeleteEdge(op.U, op.V)
			}
		}
		return
	}
	for i := 0; i < len(ops); i += batch {
		e.ApplyBatch(ops[i:min(i+batch, len(ops))])
	}
}

// randomBatch builds a batch of random ops against the engine's current
// graph without applying it.
func randomBatch(e *Engine, rng *rand.Rand, n int) []workload.Op {
	edges := e.g.Snapshot().EdgeList()
	ops := make([]workload.Op, 0, n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 && len(edges) > 0 {
			ed := edges[rng.Intn(len(edges))]
			ops = append(ops, workload.Op{Insert: false, U: ed[0], V: ed[1]})
			continue
		}
		u := int32(rng.Intn(e.g.N()))
		v := int32(rng.Intn(e.g.N()))
		if u != v {
			ops = append(ops, workload.Op{Insert: true, U: u, V: v})
		}
	}
	return ops
}

func TestCheckpointRejectsCorruption(t *testing.T) {
	e := newCheckpointEngine(t, 29)
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	if _, err := LoadCheckpoint(bytes.NewReader(full[:len(full)/2]), 0); err == nil {
		t.Fatal("truncated checkpoint must not load")
	}
	bad := append([]byte(nil), full...)
	bad[3] ^= 0xff
	if _, err := LoadCheckpoint(bytes.NewReader(bad), 0); err == nil {
		t.Fatal("bad magic must not load")
	}
	bad = append([]byte(nil), full...)
	// Last clique member becomes an out-of-range id.
	binary.LittleEndian.PutUint32(bad[len(bad)-4:], 0x7fffffff)
	if _, err := LoadCheckpoint(bytes.NewReader(bad), 0); err == nil {
		t.Fatal("corrupted clique record must not load")
	}
}

// TestCheckpointRejectsOversizedHeader: a header whose clique size,
// clique count or next clique id cannot fit is an error, not a panic. The
// loader sizes its scratch by k, |S|·k wraps to 0 at k = 2^62 and
// |S| = 4, |S| = 0 passes any product check, and clique ids are int32.
func TestCheckpointRejectsOversizedHeader(t *testing.T) {
	e := newCheckpointEngine(t, 31)
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	n := int64(e.g.N())
	for _, h := range []struct{ k, next, ns int64 }{
		{1 << 62, n, 4}, {1 << 62, n, 0}, {n + 1, n, 0}, {3, n, n/3 + 1},
		{3, 1 << 32, int64(e.Size())},
	} {
		// Header fields after the magic: k, version, next clique id, |S|.
		bad := append([]byte(nil), buf.Bytes()...)
		binary.LittleEndian.PutUint64(bad[8:], uint64(h.k))
		binary.LittleEndian.PutUint64(bad[24:], uint64(h.next))
		binary.LittleEndian.PutUint64(bad[32:], uint64(h.ns))
		if _, err := LoadCheckpoint(bytes.NewReader(bad), 0); err == nil {
			t.Errorf("k=%d next=%d |S|=%d: corrupt header loaded", h.k, h.next, h.ns)
		}
	}
}
