package serve

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/wal"
	"repro/internal/workload"
)

// crashForTest simulates a hard stop; see Crash, which now carries the
// implementation so fault-injection tests outside this package (the
// managed-tenant recovery property in internal/manager) can use it too.
func (s *Service) crashForTest() { s.Crash() }

// sameState asserts two snapshots are byte-identical in everything
// recovery promises: version, shape, clique list, and the full
// membership index. (Stats are activity counters, not state.)
func sameState(t *testing.T, got, want *dynamic.Snapshot) {
	t.Helper()
	if got.Version() != want.Version() {
		t.Fatalf("version %d, want %d", got.Version(), want.Version())
	}
	if got.K() != want.K() || got.N() != want.N() || got.M() != want.M() || got.Size() != want.Size() {
		t.Fatalf("shape (k=%d n=%d m=%d size=%d), want (k=%d n=%d m=%d size=%d)",
			got.K(), got.N(), got.M(), got.Size(), want.K(), want.N(), want.M(), want.Size())
	}
	if !reflect.DeepEqual(got.Cliques(), want.Cliques()) {
		t.Fatal("clique lists differ")
	}
	for u := int32(0); int(u) < want.N(); u++ {
		if !reflect.DeepEqual(got.CliqueOf(u), want.CliqueOf(u)) {
			t.Fatalf("membership of node %d differs", u)
		}
	}
}

func durableService(t *testing.T, g *graph.Graph, dir string, opt Options) *Service {
	t.Helper()
	res, err := core.Find(g, core.Options{K: 3, Algorithm: core.LP})
	if err != nil {
		t.Fatal(err)
	}
	opt.Dir = dir
	s, err := New(g, 3, res.Cliques, opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// randomOps returns n random toggles over the node-id space of g.
func randomOps(g *graph.Graph, rng *rand.Rand, n int) []workload.Op {
	edges := g.EdgeList()
	ops := make([]workload.Op, 0, n)
	for len(ops) < n {
		if rng.Intn(2) == 0 && len(edges) > 0 {
			e := edges[rng.Intn(len(edges))]
			ops = append(ops, workload.Op{Insert: rng.Intn(2) == 0, U: e[0], V: e[1]})
			continue
		}
		u, v := int32(rng.Intn(g.N())), int32(rng.Intn(g.N()))
		if u != v {
			ops = append(ops, workload.Op{Insert: rng.Intn(2) == 0, U: u, V: v})
		}
	}
	return ops
}

// TestOpenAfterGracefulClose: Close drains, checkpoints, and Open serves
// the identical state with an instant (empty) replay.
func TestOpenAfterGracefulClose(t *testing.T) {
	dir := t.TempDir()
	g := gen.CommunitySocial(300, 8, 0.3, 800, 41)
	s := durableService(t, g, dir, Options{})
	ctx := context.Background()
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 10; i++ {
		if err := s.Enqueue(ctx, randomOps(g, rng, 20)...); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	want := s.Snapshot()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if st := r.Stats(); st.Recovered != 0 {
		t.Fatalf("graceful close must leave nothing to replay, recovered %d", st.Recovered)
	}
	sameState(t, r.Snapshot(), want)
	if err := r.eng.Verify(); err != nil {
		t.Fatalf("recovered engine: %v", err)
	}
	// The recovered service keeps working.
	if err := r.Enqueue(ctx, randomOps(g, rng, 10)...); err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashRecovery is the acceptance property: run a random op stream
// through a durable service with frequent checkpoints, hard-stop at a
// random point, Open the dir — the recovered snapshot must be
// byte-identical to the pre-crash one and the engine must verify. The
// crash races background group commits and off-writer installs.
func TestCrashRecovery(t *testing.T) {
	// The subtest is named for the durable path it exercises: the
	// pipelined group-commit syncer plus background checkpoint installer.
	t.Run("pipelined", testCrashRecovery)
}

func testCrashRecovery(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 4; seed++ {
		dir := t.TempDir()
		g := gen.CommunitySocial(300, 8, 0.3, 800, 50+seed)
		rng := rand.New(rand.NewSource(60 + seed))
		// Tiny CheckpointEvery forces several checkpoint + canonicalize +
		// WAL-rollover cycles mid-stream; SyncNone exercises the
		// flush-time sync path.
		opt := Options{Fsync: wal.SyncNone, CheckpointEvery: 64}
		s := durableService(t, g, dir, opt)
		rounds := 5 + rng.Intn(20)
		for i := 0; i < rounds; i++ {
			if err := s.Enqueue(ctx, randomOps(g, rng, 1+rng.Intn(40))...); err != nil {
				t.Fatal(err)
			}
			// Flush every round: the acked prefix is the whole stream.
			if err := s.Flush(ctx); err != nil {
				t.Fatal(err)
			}
		}
		want := s.Snapshot()
		s.crashForTest()

		r, err := Open(dir, opt)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sameState(t, r.Snapshot(), want)
		if err := r.eng.Verify(); err != nil {
			t.Fatalf("seed %d: recovered engine: %v", seed, err)
		}
		// And the recovered service accepts further traffic.
		if err := r.Enqueue(ctx, randomOps(g, rng, 5)...); err != nil {
			t.Fatal(err)
		}
		if err := r.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrashRecoveryTornTail truncates the WAL at arbitrary byte offsets
// after a crash: recovery must land on the state at some batch boundary
// of the acked stream — never garbage, never a torn batch — and verify.
func TestCrashRecoveryTornTail(t *testing.T) {
	t.Run("pipelined", testCrashRecoveryTornTail)
}

func testCrashRecoveryTornTail(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	g := gen.CommunitySocial(250, 8, 0.3, 700, 71)
	rng := rand.New(rand.NewSource(73))
	// No mid-stream checkpoints: the WAL carries the whole stream, so a
	// cut can land anywhere in it.
	s := durableService(t, g, dir, Options{Fsync: wal.SyncNone, CheckpointEvery: 1 << 20})

	// Flush after every enqueue so batch boundaries are deterministic:
	// one WAL record per round. Capture the post-round snapshots as the
	// reference states a truncated replay may land on.
	boundary := []*dynamic.Snapshot{s.Snapshot()}
	for i := 0; i < 12; i++ {
		if err := s.Enqueue(ctx, randomOps(g, rng, 1+rng.Intn(20))...); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		boundary = append(boundary, s.Snapshot())
	}
	s.crashForTest()

	wp := walPath(dir, 1)
	full, err := os.ReadFile(wp)
	if err != nil {
		t.Fatal(err)
	}
	byVersion := map[uint64]*dynamic.Snapshot{}
	for _, b := range boundary {
		byVersion[b.Version()] = b
	}
	for trial := 0; trial < 30; trial++ {
		cut := rng.Intn(len(full) + 1)
		work := t.TempDir()
		// Rebuild a store image with the truncated WAL.
		if err := copyFile(filepath.Join(dir, checkpointName), filepath.Join(work, checkpointName)); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(walPath(work, 1), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(work, Options{})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		snap := r.Snapshot()
		want, ok := byVersion[snap.Version()]
		if !ok {
			t.Fatalf("cut %d: recovered version %d matches no acked batch boundary", cut, snap.Version())
		}
		sameState(t, snap, want)
		if err := r.eng.Verify(); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		r.crashForTest()
	}
}

func copyFile(src, dst string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}

// TestNewRefusesExistingStore guards against silently clobbering data.
func TestNewRefusesExistingStore(t *testing.T) {
	dir := t.TempDir()
	g := gen.CommunitySocial(200, 8, 0.3, 500, 83)
	s := durableService(t, g, dir, Options{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := core.Find(g, core.Options{K: 3, Algorithm: core.LP})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(g, 3, res.Cliques, Options{Dir: dir}); err == nil {
		t.Fatal("New over an existing store must fail")
	}
	if !StoreExists(dir) {
		t.Fatal("store must still exist")
	}
}

// TestStoreLock: a second process (simulated by a second Open in this
// one) must not be able to attach to a live store — double writers would
// interleave WAL records and corrupt the log.
func TestStoreLock(t *testing.T) {
	dir := t.TempDir()
	g := gen.CommunitySocial(200, 8, 0.3, 500, 101)
	s := durableService(t, g, dir, Options{})
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open of a live store must fail")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEnqueueRejectsInvalidOps: self-loops and out-of-range ids must die
// at the API — an invalid op reaching the WAL would read back as
// corruption and truncate acked records behind it.
func TestEnqueueRejectsInvalidOps(t *testing.T) {
	g := gen.CommunitySocial(200, 8, 0.3, 500, 103)
	s := durableService(t, g, t.TempDir(), Options{})
	defer s.Close()
	ctx := context.Background()
	for _, op := range []workload.Op{
		{Insert: true, U: 5, V: 5},
		{Insert: true, U: -1, V: 2},
		{Insert: false, U: 0, V: int32(g.N())},
	} {
		if err := s.Enqueue(ctx, op); err == nil {
			t.Fatalf("op %+v must be rejected", op)
		}
	}
	// Valid traffic still flows and the store stays recoverable.
	if err := s.Enqueue(ctx, workload.Op{Insert: false, U: g.EdgeList()[0][0], V: g.EdgeList()[0][1]}); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestDurableStats sanity-checks the durability counters.
func TestDurableStats(t *testing.T) {
	dir := t.TempDir()
	g := gen.CommunitySocial(200, 8, 0.3, 500, 89)
	s := durableService(t, g, dir, Options{CheckpointEvery: 10})
	ctx := context.Background()
	rng := rand.New(rand.NewSource(97))
	for i := 0; i < 5; i++ {
		if err := s.Enqueue(ctx, randomOps(g, rng, 8)...); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.WALBatches == 0 || st.WALBytes == 0 {
		t.Fatalf("no WAL activity recorded: %+v", st)
	}
	if st.Checkpoints < 2 { // initial + at least one rollover at every=10
		t.Fatalf("expected periodic checkpoints, got %d", st.Checkpoints)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Checkpoints; got < 3 {
		t.Fatalf("Close must write a final checkpoint, got %d", got)
	}

	// Under SyncNone a tail that is never flushed is synced only by
	// Close, and that fsync counts its ops like any other group commit:
	// every applied op is made durable by some counted fsync.
	s = durableService(t, g, t.TempDir(), Options{Fsync: wal.SyncNone, CheckpointEvery: 1 << 20})
	if err := s.Enqueue(ctx, randomOps(g, rng, 20)...); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Enqueue(ctx, randomOps(g, rng, 25)...); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.GroupCommitOps != st.Applied {
		t.Fatalf("GroupCommitOps %d, want Applied %d (%d fsyncs)", st.GroupCommitOps, st.Applied, st.WALSyncs)
	}
}
