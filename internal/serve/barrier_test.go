package serve

import (
	"bytes"
	"context"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/wal"
)

// heldGate is an ApplyGate that holds the writer inside its first apply
// until the test opens it, so later items queue up behind that apply.
type heldGate struct {
	entered chan struct{} // closed once the writer is held
	open    chan struct{} // closed by the test to let every apply through
	once    sync.Once
}

func (g *heldGate) Acquire() {
	g.once.Do(func() { close(g.entered) })
	<-g.open
}

func (g *heldGate) Release() {}

// waitQueued waits until s's queue holds n items, while gate holds the
// writer; on a timeout it lets the writer go and fails the test.
func waitQueued(t *testing.T, s *Service, gate *heldGate, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); len(s.in) < n; {
		if time.Now().After(deadline) {
			close(gate.open)
			t.Fatalf("queue holds %d items, want %d", len(s.in), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkpointImage is ref's dynamic.WriteCheckpoint image.
func checkpointImage(t *testing.T, ref *dynamic.Engine) []byte {
	t.Helper()
	var img bytes.Buffer
	if err := ref.WriteCheckpoint(&img); err != nil {
		t.Fatal(err)
	}
	return img.Bytes()
}

// TestBarrierSeesQueuedOps: a barrier runs only after every op queued
// ahead of it has been applied. Ops A wait in the queue behind an apply
// the test holds, a Checkpoint queues behind them, and its image must
// already hold A. A Flush after Enqueue(B) must leave the snapshot of an
// engine that applied B, and be counted in Stats when it returns.
func TestBarrierSeesQueuedOps(t *testing.T) {
	for _, durable := range []bool{false, true} {
		name := "in-memory"
		if durable {
			name = "durable"
		}
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			g := testGraph(t)
			res, err := core.Find(g, core.Options{K: 3, Algorithm: core.LP})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := dynamic.New(g, 3, res.Cliques)
			if err != nil {
				t.Fatal(err)
			}
			gate := &heldGate{entered: make(chan struct{}), open: make(chan struct{})}
			opt := Options{ApplyGate: gate}
			if durable {
				opt.Dir = t.TempDir()
			}
			s, err := New(g, 3, res.Cliques, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			rng := rand.New(rand.NewSource(107))
			first, a, b := randomOps(g, rng, 32), randomOps(g, rng, 32), randomOps(g, rng, 32)

			if err := s.Enqueue(ctx, first...); err != nil {
				t.Fatal(err)
			}
			<-gate.entered
			if err := s.Enqueue(ctx, a...); err != nil {
				t.Fatal(err)
			}
			type capture struct {
				image []byte
				err   error
			}
			got := make(chan capture, 1)
			go func() {
				_, img, err := s.Checkpoint(ctx)
				got <- capture{img, err}
			}()
			// Let the writer go only once A and the barrier both wait in
			// the queue.
			waitQueued(t, s, gate, 2)
			close(gate.open)
			c := <-got
			if c.err != nil {
				t.Fatal(c.err)
			}
			ref.ApplyBatch(first)
			if ref.ApplyBatch(a) == 0 {
				t.Fatal("ops A change nothing, so the checkpoint cannot tell whether it saw them")
			}
			if !bytes.Equal(c.image, checkpointImage(t, ref)) {
				t.Fatal("checkpoint image differs from an engine that applied every op queued before it")
			}

			if err := s.Enqueue(ctx, b...); err != nil {
				t.Fatal(err)
			}
			if err := s.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			if got := s.Stats().Flushes; got != 1 {
				t.Fatalf("Stats().Flushes = %d when Flush returned, want 1", got)
			}
			ref.ApplyBatch(b)
			sameState(t, s.Snapshot(), ref.Snapshot())
		})
	}
}

// TestFlushesShareOneCycle: Flushes queued in one drain cycle do not
// split it. Four Enqueue+Flush pairs queue, one pair after the other,
// behind an apply the test holds; once it is let go their ops must land
// in one ApplyBatch unit (one WAL record when durable), leaving the
// snapshot of an engine that applied them in one ApplyBatch call.
func TestFlushesShareOneCycle(t *testing.T) {
	for _, durable := range []bool{false, true} {
		name := "in-memory"
		if durable {
			name = "durable"
		}
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			g := testGraph(t)
			res, err := core.Find(g, core.Options{K: 3, Algorithm: core.LP})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := dynamic.New(g, 3, res.Cliques)
			if err != nil {
				t.Fatal(err)
			}
			gate := &heldGate{entered: make(chan struct{}), open: make(chan struct{})}
			opt := Options{ApplyGate: gate}
			if durable {
				opt.Dir = t.TempDir()
			}
			s, err := New(g, 3, res.Cliques, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			rng := rand.New(rand.NewSource(127))
			first := randomOps(g, rng, 32)
			if err := s.Enqueue(ctx, first...); err != nil {
				t.Fatal(err)
			}
			<-gate.entered

			const flushers = 4
			var flushed []graph.Op
			errs := make(chan error, flushers)
			for i := range flushers {
				ops := randomOps(g, rng, 16)
				flushed = append(flushed, ops...)
				go func() {
					if err := s.Enqueue(ctx, ops...); err != nil {
						errs <- err
						return
					}
					errs <- s.Flush(ctx)
				}()
				waitQueued(t, s, gate, 2*(i+1))
			}
			close(gate.open)
			for range flushers {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
			st := s.Stats()
			if st.Batches != 2 || st.Flushes != flushers {
				t.Fatalf("%d ApplyBatch units and %d flushes, want 2 (the held one, then every flushed op) and %d",
					st.Batches, st.Flushes, flushers)
			}
			if durable && st.WALBatches != 2 {
				t.Fatalf("%d WAL records, want 2", st.WALBatches)
			}
			ref.ApplyBatch(first)
			ref.ApplyBatch(flushed)
			sameState(t, s.Snapshot(), ref.Snapshot())
		})
	}
}

// TestReplicateIsOneUnit: a replicated batch is the primary's exact
// ApplyBatch unit whatever the follower's MaxBatch. A durable follower
// with MaxBatch 8 replicates one 64-op batch and crashes; its WAL must
// hold exactly one 64-op record, and the reopened store must equal an
// engine that applied the 64 ops in one ApplyBatch call.
func TestReplicateIsOneUnit(t *testing.T) {
	ctx := context.Background()
	g := gen.CommunitySocial(300, 8, 0.3, 800, 109)
	res, err := core.Find(g, core.Options{K: 3, Algorithm: core.LP})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := dynamic.New(g, 3, res.Cliques)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opt := Options{Dir: dir, MaxBatch: 8, CheckpointEvery: 1 << 20}
	f, err := NewFollowerFromCheckpoint(bytes.NewReader(checkpointImage(t, ref)), opt)
	if err != nil {
		t.Fatal(err)
	}
	ops := randomOps(g, rand.New(rand.NewSource(113)), 64)
	ref.ApplyBatch(ops)
	ver, err := f.Replicate(ctx, ops)
	if err != nil {
		t.Fatal(err)
	}
	if want := ref.Snapshot().Version(); ver != want {
		t.Fatalf("follower at version %d, reference at %d", ver, want)
	}
	f.Crash()

	var records []int
	if _, err := wal.Replay(filepath.Join(dir, "wal-1.log"), func(rec []graph.Op) error {
		records = append(records, len(rec))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 || records[0] != len(ops) {
		t.Fatalf("WAL records of %v ops, want one record of %d", records, len(ops))
	}
	r, err := OpenFollower(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sameState(t, r.Snapshot(), ref.Snapshot())
}
