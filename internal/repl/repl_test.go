package repl

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/faultconn"
	"repro/internal/framesrv"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/internal/workload"
)

func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	return gen.CommunitySocial(400, 8, 0.3, 900, 42)
}

// newPrimaryService builds a serving service over the test graph with
// WAL syncs deferred; opt.Dir non-empty makes it durable.
func newPrimaryService(t testing.TB, g *graph.Graph, opt serve.Options) *serve.Service {
	t.Helper()
	res, err := core.Find(g, core.Options{K: 3, Algorithm: core.LP})
	if err != nil {
		t.Fatal(err)
	}
	opt.Fsync = wal.SyncNone
	s, err := serve.New(g, 3, res.Cliques, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// startRepl attaches a Primary under epoch to svc and serves it (plus
// the normal frame endpoints) on a loopback listener.
func startRepl(t testing.TB, svc *serve.Service, epoch uint64, opt PrimaryOptions) (*Primary, string) {
	t.Helper()
	p, err := NewPrimary(context.Background(), svc, epoch, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	fs := framesrv.New(svc, framesrv.Options{Repl: p})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go fs.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		fs.Shutdown(ctx)
	})
	return p, ln.Addr().String()
}

// churn applies batches of random updates through the primary, flushing
// each batch so it becomes its own ApplyBatch unit (and so its own
// stream frame), and returns the resulting version.
func churn(t testing.TB, svc *serve.Service, rng *rand.Rand, batches, perBatch int) uint64 {
	t.Helper()
	if err := applyChurn(context.Background(), svc, rng, batches, perBatch); err != nil {
		t.Fatal(err)
	}
	return svc.Snapshot().Version()
}

// applyChurn is churn for goroutines that cannot call t.Fatal.
func applyChurn(ctx context.Context, svc *serve.Service, rng *rand.Rand, batches, perBatch int) error {
	n := int32(svc.Snapshot().N())
	for b := 0; b < batches; b++ {
		ops := make([]workload.Op, perBatch)
		for i := range ops {
			u := rng.Int31n(n)
			v := rng.Int31n(n)
			for v == u {
				v = rng.Int31n(n)
			}
			ops[i] = workload.Op{Insert: rng.Intn(10) < 6, U: u, V: v}
		}
		if err := svc.Enqueue(ctx, ops...); err != nil {
			return err
		}
		if err := svc.Flush(ctx); err != nil {
			return err
		}
	}
	return nil
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// snapFrame encodes a snapshot as its full binary frame — the
// byte-for-byte representation replicas must agree on.
func snapFrame(s *dynamic.Snapshot) []byte {
	return wire.AppendSnapshotFrame(nil, s.Version(), s.K(), s.N(), s.M(), s.Size(), s.Cliques(), true)
}

// captureImage takes a checkpoint and returns its image.
func captureImage(t testing.TB, svc *serve.Service) (uint64, []byte) {
	t.Helper()
	ver, img, err := svc.Checkpoint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return ver, img
}

// newTestFollower builds a follower with test-friendly backoff; extra
// mutates the options before construction.
func newTestFollower(t testing.TB, addr string, extra func(*FollowerOptions)) *Follower {
	t.Helper()
	opt := FollowerOptions{
		Addr:       addr,
		BackoffMin: 5 * time.Millisecond,
		BackoffMax: 50 * time.Millisecond,
		Logf:       t.Logf,
	}
	if extra != nil {
		extra(&opt)
	}
	f, err := NewFollower(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// runFollower drives f.Run until the test ends.
func runFollower(t testing.TB, f *Follower) context.CancelFunc {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return cancel
}

// TestReplicationConvergence streams live churn to a fresh follower and
// checks byte-for-byte snapshot equality at several synced points, plus
// checkpoint-image equality at a shared canon boundary. A second, late
// follower must converge too — through a checkpoint install, because
// the short checkpoint interval has long trimmed the early batches.
func TestReplicationConvergence(t *testing.T) {
	g := testGraph(t)
	svc := newPrimaryService(t, g, serve.Options{CheckpointEvery: 256})
	_, addr := startRepl(t, svc, 1, PrimaryOptions{})
	rng := rand.New(rand.NewSource(7))

	f := newTestFollower(t, addr, nil)
	runFollower(t, f)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.WaitInstalled(ctx); err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 4; round++ {
		ver := churn(t, svc, rng, 30, 8)
		waitFor(t, 15*time.Second, fmt.Sprintf("follower to reach version %d", ver), func() bool {
			return f.Status().Version >= ver
		})
		want := snapFrame(svc.Snapshot())
		got := snapFrame(f.Service().Snapshot())
		if !bytes.Equal(want, got) {
			t.Fatalf("round %d: follower snapshot frame differs from primary at version %d", round, ver)
		}
	}

	// A late follower has no resumable position: it must be installed
	// from a capture and still converge exactly.
	late := newTestFollower(t, addr, nil)
	runFollower(t, late)
	ver := svc.Snapshot().Version()
	waitFor(t, 15*time.Second, "late follower to catch up", func() bool {
		return late.Status().Version >= ver
	})
	if st := late.Status(); st.Installs < 1 {
		t.Fatalf("late follower installs = %d, want >= 1", st.Installs)
	}
	if !bytes.Equal(snapFrame(svc.Snapshot()), snapFrame(late.Service().Snapshot())) {
		t.Fatal("late follower snapshot frame differs from primary")
	}

	// Checkpoint images at a shared canon boundary must match byte for
	// byte. The primary's capture ships a canon marker; wait for the
	// followers to cross the boundary before imaging them.
	pver, pimg := captureImage(t, svc)
	waitFor(t, 10*time.Second, "followers to pass the canon boundary", func() bool {
		return f.Status().StreamVersion >= pver && late.Status().StreamVersion >= pver
	})
	if fver, fimg := captureImage(t, f.Service()); fver != pver || !bytes.Equal(pimg, fimg) {
		t.Fatalf("follower image (version %d, %d bytes) != primary image (version %d, %d bytes)",
			fver, len(fimg), pver, len(pimg))
	}
}

// TestFollowerResume breaks an established stream and checks the
// follower reconnects and resumes from its version — no second install.
func TestFollowerResume(t *testing.T) {
	g := testGraph(t)
	svc := newPrimaryService(t, g, serve.Options{})
	_, addr := startRepl(t, svc, 1, PrimaryOptions{})
	rng := rand.New(rand.NewSource(11))

	var current atomic.Pointer[net.Conn]
	f := newTestFollower(t, addr, func(o *FollowerOptions) {
		o.Dial = func(ctx context.Context, a string) (net.Conn, error) {
			d := net.Dialer{Timeout: time.Second}
			c, err := d.DialContext(ctx, "tcp", a)
			if err == nil {
				current.Store(&c)
			}
			return c, err
		}
	})
	runFollower(t, f)

	ver := churn(t, svc, rng, 20, 8)
	waitFor(t, 15*time.Second, "initial sync", func() bool { return f.Status().Version >= ver })

	// Tear the connection down under the follower.
	(*current.Load()).Close()
	ver = churn(t, svc, rng, 20, 8)
	waitFor(t, 15*time.Second, "post-reconnect sync", func() bool { return f.Status().Version >= ver })

	st := f.Status()
	if st.Installs != 1 {
		t.Fatalf("installs = %d after reconnect, want exactly 1 (resume, not re-install)", st.Installs)
	}
	if st.Reconnects < 1 {
		t.Fatalf("reconnects = %d, want >= 1", st.Reconnects)
	}
	if !bytes.Equal(snapFrame(svc.Snapshot()), snapFrame(f.Service().Snapshot())) {
		t.Fatal("follower snapshot frame differs from primary after resume")
	}
}

// fakePrimary listens on loopback and answers every replicate handshake
// with the raw frames reply returns for it, so a test can send what the
// real Primary never would. Each connection then stays open until the
// follower hangs up. The returned channel gets one result per
// connection: nil once the frames are written, else what went wrong.
func fakePrimary(t testing.TB, reply func(hello *wire.Frame) []byte) (string, <-chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	served := make(chan error, 8)
	stream := func(conn net.Conn) error {
		buf := make([]byte, 0, 256)
		for {
			var chunk [256]byte
			n, err := conn.Read(chunk[:])
			if err != nil {
				return fmt.Errorf("reading handshake: %w", err)
			}
			buf = append(buf, chunk[:n]...)
			hello, _, err := wire.DecodeRequest(buf)
			if err != nil {
				continue
			}
			if hello.Type != wire.FrameReqReplicate {
				return fmt.Errorf("unexpected request type %d", hello.Type)
			}
			if _, err := conn.Write(reply(hello)); err != nil {
				return fmt.Errorf("writing frames: %w", err)
			}
			return nil
		}
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				select {
				case served <- stream(conn):
				default:
				}
				var one [1]byte
				conn.Read(one[:])
			}()
		}
	}()
	return ln.Addr().String(), served
}

// TestEpochFenceFollowerRefuses stages a deposed primary feeding a
// follower that has already accepted a higher epoch: the follower must
// refuse every lower-epoch frame before any state change.
func TestEpochFenceFollowerRefuses(t *testing.T) {
	// A valid checkpoint image to make the refusal unambiguous: the
	// frames are well-formed, only their epoch is stale.
	g := testGraph(t)
	donor := newPrimaryService(t, g, serve.Options{})
	iver, img := captureImage(t, donor)

	// A well-formed install at the follower's epoch, then a batch from a
	// DEPOSED epoch 1. The follower must apply the first and refuse the
	// second without touching state.
	addr, served := fakePrimary(t, func(*wire.Frame) []byte {
		out := wire.AppendReplCheckpointFrame(nil, 2, iver, img)
		return wire.AppendReplBatchFrame(out, 1, iver+1, []graph.Op{{Insert: true, U: 0, V: 1}})
	})

	f := newTestFollower(t, addr, nil)
	// The follower has already followed an epoch-2 primary.
	f.mu.Lock()
	f.epoch = 2
	f.mu.Unlock()
	runFollower(t, f)
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "fence refusal", func() bool { return f.Status().Refusals >= 1 })

	st := f.Status()
	if st.Version != iver {
		t.Fatalf("follower version %d after fenced batch, want %d (no state change)", st.Version, iver)
	}
	if st.Epoch != 2 {
		t.Fatalf("follower epoch %d after fenced batch, want 2", st.Epoch)
	}
	if st.Installs != 1 {
		t.Fatalf("installs = %d, want 1 (the epoch-2 install only)", st.Installs)
	}
	if got := f.Service().Snapshot().Version(); got != iver {
		t.Fatalf("engine version %d after fenced batch, want %d", got, iver)
	}
}

// TestFollowerReinstallFailure fails a re-install after the follower
// has closed its old engine: the image is not at the version its frame
// promises. The next handshake must then ask for a fresh install rather
// than claim the closed engine's state, and that install must bring the
// follower back.
func TestFollowerReinstallFailure(t *testing.T) {
	g := testGraph(t)
	donor := newPrimaryService(t, g, serve.Options{})
	iver, img := captureImage(t, donor)

	hellos := make(chan *wire.Frame, 8)
	var conns atomic.Int32
	addr, served := fakePrimary(t, func(hello *wire.Frame) []byte {
		select {
		case hellos <- hello:
		default:
		}
		out := wire.AppendReplCheckpointFrame(nil, 1, iver, img)
		if conns.Add(1) == 1 {
			out = wire.AppendReplCheckpointFrame(out, 1, iver+5, img)
		}
		return out
	})
	f := newTestFollower(t, addr, nil)
	runFollower(t, f)
	for range 2 {
		if err := <-served; err != nil {
			t.Fatal(err)
		}
	}
	<-hellos
	if hello := <-hellos; hello.HaveState {
		t.Fatalf("handshake after a failed re-install claims state at version %d, want a fresh install", hello.Version)
	}
	waitFor(t, 10*time.Second, "the fresh install", func() bool { return f.Status().Installs >= 2 })
	if err := f.Service().Flush(context.Background()); err != nil {
		t.Fatalf("follower engine after the fresh install: %v", err)
	}
}

// TestEpochFencePrimaryRefuses checks the symmetric fence: a primary
// refuses a follower that reports a higher epoch than its own.
func TestEpochFencePrimaryRefuses(t *testing.T) {
	g := testGraph(t)
	svc := newPrimaryService(t, g, serve.Options{})
	_, addr := startRepl(t, svc, 1, PrimaryOptions{})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := wire.NewClient(conn)
	c.SetIOTimeout(5 * time.Second)
	if err := c.SendReplicate(2, 10, true); err != nil {
		t.Fatal(err)
	}
	_, err = c.Recv()
	if err == nil {
		t.Fatal("primary at epoch 1 served a follower claiming epoch 2")
	}
	if !strings.Contains(err.Error(), "behind follower epoch") {
		t.Fatalf("refusal error %q does not name the epoch conflict", err)
	}
}

// trimPast advances the primary past version and takes a checkpoint
// there, which becomes the primary's install base. The primary trims
// every history entry at or below the base, so a follower at version
// can no longer resume and must re-install.
func trimPast(ctx context.Context, svc *serve.Service, version uint64, rng *rand.Rand) error {
	for svc.Snapshot().Version() <= version {
		if err := applyChurn(ctx, svc, rng, 1, 8); err != nil {
			return err
		}
	}
	_, _, err := svc.Checkpoint(ctx)
	return err
}

// applyOps enqueues ops in batches of size ops, flushing each so it
// becomes its own ApplyBatch unit.
func applyOps(t testing.TB, svc *serve.Service, ops []workload.Op, size int) {
	t.Helper()
	ctx := context.Background()
	for len(ops) > 0 {
		n := min(size, len(ops))
		if err := svc.Enqueue(ctx, ops[:n]...); err != nil {
			t.Fatal(err)
		}
		if err := svc.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		ops = ops[n:]
	}
}

// toggleOps is a stream of n edge updates that toggle edges of g.
func toggleOps(g *graph.Graph, n int) []workload.Op {
	stream := workload.ReadWriteClients(g, 1, n, 0, 5)[0]
	ops := make([]workload.Op, n)
	for i, op := range stream {
		ops[i] = op.Update
	}
	return ops
}

// TestReplCheckpointSchedule pins the one checkpoint schedule: an
// attached primary adds no checkpoints to the service's own, and it
// installs a fresh follower from the latest of them.
func TestReplCheckpointSchedule(t *testing.T) {
	g := testGraph(t)
	t.Run("no-extra-checkpoints", func(t *testing.T) {
		ops := toggleOps(g, 70000)
		prim := newPrimaryService(t, g, serve.Options{Dir: t.TempDir()})
		startRepl(t, prim, 1, PrimaryOptions{})
		twin := newPrimaryService(t, g, serve.Options{Dir: t.TempDir()})
		applyOps(t, prim, ops, 4096)
		applyOps(t, twin, ops, 4096)
		if p, w := prim.Stats().Checkpoints, twin.Stats().Checkpoints; p != w {
			t.Fatalf("primary wrote %d store checkpoints, a twin with no primary %d", p, w)
		}
	})
	t.Run("install-from-latest", func(t *testing.T) {
		prim := newPrimaryService(t, g, serve.Options{Dir: t.TempDir(), CheckpointEvery: 1024})
		_, addr := startRepl(t, prim, 1, PrimaryOptions{})
		applyOps(t, prim, toggleOps(g, 3000), 256)
		before := prim.Stats().Checkpoints
		f := newTestFollower(t, addr, nil)
		runFollower(t, f)
		ver := prim.Snapshot().Version()
		waitFor(t, 15*time.Second, "follower sync", func() bool { return f.Status().Version >= ver })
		if !bytes.Equal(snapFrame(prim.Snapshot()), snapFrame(f.Service().Snapshot())) {
			t.Fatal("follower snapshot frame differs from primary")
		}
		if after := prim.Stats().Checkpoints; after != before {
			t.Fatalf("installing a fresh follower took %d store checkpoints, want 0", after-before)
		}
	})
}

// TestFollowerCheckpointEvery: a durable follower checkpoints its store
// on the interval its options give, counting the ops it replicates, and
// a reopen of that store holds the same image. The follower checkpoints
// every 64 ops and installs before 280 ops are replicated in 8-op
// batches, so it must take at least 4 checkpoints (with the 131,072-op
// default it would take only its store's first). The primary keeps the
// default interval: each checkpoint it took would trim its history, and
// a trim that lands before the stream has shipped the last batch
// re-installs the follower into a fresh store, which restarts the count.
func TestFollowerCheckpointEvery(t *testing.T) {
	g := testGraph(t)
	dirF := t.TempDir()
	prim := newPrimaryService(t, g, serve.Options{Dir: t.TempDir()})
	_, addr := startRepl(t, prim, 1, PrimaryOptions{})
	f := newTestFollower(t, addr, func(o *FollowerOptions) {
		o.Dir = dirF
		o.CheckpointEvery = 64
	})
	cancel := runFollower(t, f)
	ctx, stop := context.WithTimeout(context.Background(), 10*time.Second)
	defer stop()
	if err := f.WaitInstalled(ctx); err != nil {
		t.Fatal(err)
	}
	applyOps(t, prim, toggleOps(g, 280), 8)
	ver := prim.Snapshot().Version()
	waitFor(t, 15*time.Second, "follower sync", func() bool { return f.Status().Version >= ver })
	if n, inst := f.Service().Stats().Checkpoints, f.Status().Installs; n < 4 || inst != 1 {
		t.Fatalf("follower took %d checkpoints over 280 replicated ops at CheckpointEvery 64 and %d installs, want at least 4 and 1", n, inst)
	}
	fver, fimg := captureImage(t, f.Service())
	cancel()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rf, err := serve.OpenFollower(dirF, serve.Options{CheckpointEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	if rver, rimg := captureImage(t, rf); rver != fver || !bytes.Equal(rimg, fimg) {
		t.Fatalf("reopened follower image (version %d, %d bytes) != live one (version %d, %d bytes)",
			rver, len(rimg), fver, len(fimg))
	}
}

// TestFaultScheduleConvergence is the fault-injection property test:
// for several seeded fault schedules (fragmented writes, short reads,
// delays, and injected connection kills on every dial), a follower
// streaming live churn must still converge to the primary's exact
// snapshot bytes once the writes stop. Kills tear connections mid-frame,
// so this exercises resume, re-install after history trims, and the
// handshake under partial I/O — the backoff loop must always recover.
func TestFaultScheduleConvergence(t *testing.T) {
	var totalReconnects, totalInstalls uint64
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			g := testGraph(t)
			// A short checkpoint interval forces captures and trims during
			// the run, so kills land followers on the re-install path too.
			svc := newPrimaryService(t, g, serve.Options{CheckpointEvery: 128})
			_, addr := startRepl(t, svc, 1, PrimaryOptions{})
			rng := rand.New(rand.NewSource(seed))

			// Besides the random kills, each schedule kills the live stream
			// once the follower holds state, and holds the redial until the
			// primary has trimmed past the follower's version, so that
			// reconnect re-installs by construction. (Random kills tend to
			// land during the first install, and a redial after one that
			// lands later resumes inside the history window.) mu orders each
			// dial, and the conn it publishes in live, against the kill: the
			// kill closes the latest conn, and the next dial sees trimNext.
			var (
				mu       sync.Mutex
				live     net.Conn
				attempt  int64
				trimNext bool
				f        *Follower
			)
			trimRng := rand.New(rand.NewSource(-seed))
			f = newTestFollower(t, addr, func(o *FollowerOptions) {
				o.Dial = func(ctx context.Context, a string) (net.Conn, error) {
					mu.Lock()
					defer mu.Unlock()
					if trimNext {
						// The previous stream has ended, so the follower's
						// version cannot move under us.
						if err := trimPast(ctx, svc, f.Status().Version, trimRng); err != nil {
							return nil, err
						}
						trimNext = false
					}
					d := net.Dialer{Timeout: time.Second}
					c, err := d.DialContext(ctx, "tcp", a)
					if err != nil {
						return nil, err
					}
					attempt++
					live = faultconn.Wrap(c, faultconn.Options{
						Seed:          seed*1000 + attempt,
						FragmentProb:  0.3,
						ShortReadProb: 0.3,
						DelayProb:     0.05,
						MaxDelay:      200 * time.Microsecond,
						KillProb:      0.05,
					})
					return live, nil
				}
			})
			runFollower(t, f)

			for round := 0; round < 5; round++ {
				churn(t, svc, rng, 15, 8)
				if round == 0 {
					waitFor(t, 10*time.Second, "first install", func() bool { return f.Status().Installs > 0 })
					mu.Lock()
					trimNext = true
					live.Close()
					mu.Unlock()
				}
				time.Sleep(10 * time.Millisecond) // let faults land mid-stream
			}
			// The trim writes to the primary too; the writes stop once it
			// is done.
			waitFor(t, 10*time.Second, "the scheduled trim", func() bool {
				mu.Lock()
				defer mu.Unlock()
				return !trimNext
			})
			ver := svc.Snapshot().Version()
			waitFor(t, 60*time.Second, fmt.Sprintf("convergence to version %d", ver), func() bool {
				return f.Status().Version >= ver
			})
			if !bytes.Equal(snapFrame(svc.Snapshot()), snapFrame(f.Service().Snapshot())) {
				t.Fatalf("seed %d: follower snapshot bytes differ from primary after faults", seed)
			}
			st := f.Status()
			totalReconnects += st.Reconnects
			totalInstalls += st.Installs
			t.Logf("seed %d: converged at version %d after %d reconnects, %d installs",
				seed, ver, st.Reconnects, st.Installs)
		})
	}
	// The property is vacuous if no schedule ever tore a connection:
	// across the seeds, kills must have forced real reconnects and at
	// least one checkpoint re-install.
	if totalReconnects == 0 {
		t.Fatal("no fault schedule caused a reconnect; the injection is not biting")
	}
	if totalInstalls < 5 {
		t.Fatalf("only %d installs across all seeds; expected re-installs beyond the first per seed", totalInstalls)
	}
}

// TestCrossProcessDeterminism is the durable cross-check: a follower
// built from a checkpoint install plus the shipped WAL suffix must hold
// the same engine image, byte for byte, as a fresh serve.Open of the
// primary's own store directory — and both survive their own restarts
// with that image intact.
func TestCrossProcessDeterminism(t *testing.T) {
	g := testGraph(t)
	dirP, dirF := t.TempDir(), t.TempDir()
	svc := newPrimaryService(t, g, serve.Options{Dir: dirP})
	_, addr := startRepl(t, svc, 1, PrimaryOptions{})
	rng := rand.New(rand.NewSource(13))

	f := newTestFollower(t, addr, func(o *FollowerOptions) { o.Dir = dirF })
	cancel := runFollower(t, f)

	ver := churn(t, svc, rng, 40, 8)
	waitFor(t, 20*time.Second, "follower sync", func() bool { return f.Status().Version >= ver })

	// The primary's capture is a real store checkpoint at a canon
	// boundary; the follower, synced to the same version, must produce
	// the identical image (checkpoints serialise graph + S + version,
	// and the candidate index is rebuilt canonically by every loader).
	pver, pimg := captureImage(t, svc)
	if pver != ver {
		t.Fatalf("primary capture at version %d, churn ended at %d", pver, ver)
	}
	fver, fimg := captureImage(t, f.Service())
	if fver != pver || !bytes.Equal(pimg, fimg) {
		t.Fatalf("follower image (version %d, %d bytes) != primary image (version %d, %d bytes)",
			fver, len(fimg), pver, len(pimg))
	}

	// Stop both processes and restart each from its own directory.
	cancel()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	rp, err := serve.Open(dirP, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()
	over, oimg := captureImage(t, rp)
	if over != pver || !bytes.Equal(pimg, oimg) {
		t.Fatalf("reopened primary image (version %d, %d bytes) != live capture (version %d, %d bytes)",
			over, len(oimg), pver, len(pimg))
	}

	rf, err := serve.OpenFollower(dirF, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	rver, rimg := captureImage(t, rf)
	if rver != pver || !bytes.Equal(pimg, rimg) {
		t.Fatalf("reopened follower image (version %d, %d bytes) != primary image (version %d, %d bytes)",
			rver, len(rimg), pver, len(pimg))
	}
	if !rf.Follower() {
		t.Fatal("reopened follower store lost its follower mode")
	}
	if err := rf.Enqueue(context.Background(), workload.Op{Insert: true, U: 0, V: 1}); err != serve.ErrNotPrimary {
		t.Fatalf("reopened follower Enqueue err = %v, want ErrNotPrimary", err)
	}
}
