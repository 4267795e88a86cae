package serve

// Pipeline fault tests: the durability promises of the pipelined write
// path under injected WAL/checkpoint failures and simulated crashes.
// The wal.WrapFile seam wraps every log file in a wal.FaultFile so tests
// can observe the synced watermark and fail arbitrary fsyncs; the seam
// is process-global, so these tests must not run in parallel (none do).

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/wal"
)

// trackWALFiles installs a WrapFile hook that records the FaultFile
// wrapped around every subsequently created/resumed log, keyed by path.
// The hook is removed when the test ends.
func trackWALFiles(t *testing.T) func(path string) *wal.FaultFile {
	t.Helper()
	var mu sync.Mutex
	files := map[string]*wal.FaultFile{}
	wal.WrapFile = func(path string, f *os.File) wal.File {
		ff := &wal.FaultFile{F: f}
		mu.Lock()
		files[path] = ff
		mu.Unlock()
		return ff
	}
	t.Cleanup(func() { wal.WrapFile = nil })
	return func(path string) *wal.FaultFile {
		mu.Lock()
		defer mu.Unlock()
		return files[path]
	}
}

// TestFlushAckSurvivesCrashCutWAL is the "acks never precede fsync"
// property: cut the WAL at the fsync watermark as it stood when the last
// Flush acked — the harshest crash consistent with what fsync promised —
// and every acked op must survive Open. Ops enqueued but never acked
// after that point are allowed (and here, guaranteed) to vanish with the
// cut. Runs under both sync policies; acks ride the background group
// commit.
func TestFlushAckSurvivesCrashCutWAL(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name   string
		policy wal.SyncPolicy
	}{
		{"pipelined/everybatch", wal.SyncEveryBatch},
		{"pipelined/syncnone", wal.SyncNone},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lookup := trackWALFiles(t)
			dir := t.TempDir()
			g := gen.CommunitySocial(250, 8, 0.3, 700, 201)
			rng := rand.New(rand.NewSource(203))
			// One WAL generation: no checkpoints move the acked prefix out
			// of the log, so the cut decides everything past the initial
			// image.
			s := durableService(t, g, dir, Options{Fsync: tc.policy, CheckpointEvery: 1 << 20})
			rounds := 4 + rng.Intn(8)
			for i := 0; i < rounds; i++ {
				if err := s.Enqueue(ctx, randomOps(g, rng, 1+rng.Intn(30))...); err != nil {
					t.Fatal(err)
				}
				if err := s.Flush(ctx); err != nil {
					t.Fatal(err)
				}
			}
			want := s.Snapshot()
			ff := lookup(walPath(dir, 1))
			if ff == nil {
				t.Fatal("wal-1 was never wrapped")
			}
			cut := ff.SyncedBytes()
			if cut == 0 {
				t.Fatal("nothing synced despite acked flushes")
			}
			// An unacked tail: enqueued, likely appended, never flushed.
			// Whatever of it the crash cleanup syncs sits beyond cut and is
			// truncated away — exactly what a crash at ack time would do.
			if err := s.Enqueue(ctx, randomOps(g, rng, 25)...); err != nil {
				t.Fatal(err)
			}
			time.Sleep(20 * time.Millisecond)
			s.crashForTest()
			if err := os.Truncate(walPath(dir, 1), cut); err != nil {
				t.Fatal(err)
			}

			r, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			sameState(t, r.Snapshot(), want)
			if err := r.eng.Verify(); err != nil {
				t.Fatalf("recovered engine: %v", err)
			}
			r.crashForTest()
		})
	}
}

// TestWALSyncFailureFailStop: an fsync failure on the background syncer
// must fail-stop the service — the error sticks, no Flush acks after it,
// and Enqueue/Flush/Close all surface it.
func TestWALSyncFailureFailStop(t *testing.T) {
	lookup := trackWALFiles(t)
	injected := errors.New("injected fsync failure")
	dir := t.TempDir()
	g := gen.CommunitySocial(200, 8, 0.3, 500, 211)
	s := durableService(t, g, dir, Options{Fsync: wal.SyncEveryBatch, CheckpointEvery: 1 << 20})
	ff := lookup(walPath(dir, 1))
	if ff == nil {
		t.Fatal("wal-1 was never wrapped")
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(213))

	// First two fsyncs succeed, everything after fails.
	ff.BeforeSync = func(n int) error {
		if n > 2 {
			return injected
		}
		return nil
	}
	var ackedAfterFailure bool
	var sawError error
	for i := 0; i < 50 && sawError == nil; i++ {
		if err := s.Enqueue(ctx, randomOps(g, rng, 4)...); err != nil {
			sawError = err
			break
		}
		if err := s.Flush(ctx); err != nil {
			sawError = err
		} else if ff.Syncs() > 2 {
			// A Flush returning nil after the failing fsync attempt would
			// be an ack without a covering fsync.
			ackedAfterFailure = true
		}
	}
	if sawError == nil {
		t.Fatal("service never surfaced the injected fsync failure")
	}
	if !errors.Is(sawError, injected) {
		t.Fatalf("surfaced %v, want the injected error", sawError)
	}
	if ackedAfterFailure {
		t.Fatal("Flush acked after the fsync path started failing")
	}
	if err := s.Err(); !errors.Is(err, injected) {
		t.Fatalf("Err() = %v, want sticky injected error", err)
	}
	if err := s.Enqueue(ctx, randomOps(g, rng, 1)...); !errors.Is(err, injected) {
		t.Fatalf("Enqueue after failure = %v, want injected error", err)
	}
	if err := s.Flush(ctx); !errors.Is(err, injected) {
		t.Fatalf("Flush after failure = %v, want injected error", err)
	}
	if err := s.Close(); !errors.Is(err, injected) {
		t.Fatalf("Close = %v, want injected error", err)
	}
}

// TestCheckpointInstallFailureFailStop: a failure in the background
// checkpoint installer must latch like any other durability failure —
// the service fail-stops and stops acking.
func TestCheckpointInstallFailureFailStop(t *testing.T) {
	dir := t.TempDir()
	g := gen.CommunitySocial(200, 8, 0.3, 500, 223)
	s := durableService(t, g, dir, Options{Fsync: wal.SyncEveryBatch, CheckpointEvery: 32})
	ctx := context.Background()
	rng := rand.New(rand.NewSource(227))
	// A directory squatting on the temp path makes the installer's
	// os.Create fail — the simplest io fault that survives running the
	// tests as root (permission bits would not).
	if err := os.Mkdir(filepath.Join(dir, "checkpoint.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	var sawError error
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && sawError == nil {
		if err := s.Enqueue(ctx, randomOps(g, rng, 16)...); err != nil {
			sawError = err
			break
		}
		if err := s.Flush(ctx); err != nil {
			sawError = err
		}
	}
	if sawError == nil {
		t.Fatal("service never surfaced the checkpoint install failure")
	}
	if s.Err() == nil {
		t.Fatal("Err() must hold the latched install failure")
	}
	if err := s.Close(); err == nil {
		t.Fatal("Close after an install failure must return it")
	}
}

// TestFlushCheckpointHammer drives concurrent Flush callers through
// constant background checkpoints — the -race exerciser for the
// writer / syncer / installer handoffs — then proves the surviving store
// recovers byte-identically.
func TestFlushCheckpointHammer(t *testing.T) {
	dir := t.TempDir()
	g := gen.CommunitySocial(250, 8, 0.3, 700, 229)
	// Tiny CheckpointEvery: every few batches another capture+install
	// cycle overlaps the acked traffic below.
	s := durableService(t, g, dir, Options{Fsync: wal.SyncEveryBatch, CheckpointEvery: 64})
	ctx := context.Background()
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				if err := s.Enqueue(ctx, randomOps(g, rng, 1+rng.Intn(10))...); err != nil {
					errs <- fmt.Errorf("enqueue: %w", err)
					return
				}
				if err := s.Flush(ctx); err != nil {
					errs <- fmt.Errorf("flush: %w", err)
					return
				}
			}
		}(300 + int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Checkpoints < 3 {
		t.Fatalf("hammer drove only %d checkpoints; raise traffic or lower CheckpointEvery", st.Checkpoints)
	}
	if st.WALSyncs == 0 || st.GroupCommitOps < st.WALSyncs {
		t.Fatalf("implausible group-commit counters: %d syncs, %d ops", st.WALSyncs, st.GroupCommitOps)
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
	sameState(t, r.Snapshot(), want)
	if err := r.eng.Verify(); err != nil {
		t.Fatalf("recovered engine: %v", err)
	}
}

// TestCrashDuringBackgroundInstall crashes the service inside the
// capture→install window: captures roll the WAL generation but (via the
// testSkipInstall seam) no install ever reaches the disk, so the store
// image is checkpoint.dkc at generation g with the chain wal-g, wal-g+1,
// … wal-tail — exactly what a crash mid-install leaves. Chain recovery
// must replay across the generations, canonicalizing at each boundary,
// and land on the exact pre-crash state.
func TestCrashDuringBackgroundInstall(t *testing.T) {
	ctx := context.Background()
	testSkipInstall.Store(true)
	t.Cleanup(func() { testSkipInstall.Store(false) })
	for seed := int64(0); seed < 4; seed++ {
		dir := t.TempDir()
		g := gen.CommunitySocial(250, 8, 0.3, 700, 240+seed)
		rng := rand.New(rand.NewSource(250 + seed))
		s := durableService(t, g, dir, Options{Fsync: wal.SyncEveryBatch, CheckpointEvery: 48})
		rounds := 4 + rng.Intn(12)
		for i := 0; i < rounds; i++ {
			if err := s.Enqueue(ctx, randomOps(g, rng, 8+rng.Intn(24))...); err != nil {
				t.Fatal(err)
			}
			if err := s.Flush(ctx); err != nil {
				t.Fatal(err)
			}
		}
		want := s.Snapshot()
		gens := s.dur.gen
		s.crashForTest()
		if gens < 2 {
			t.Fatalf("seed %d: traffic drove no captures; the window is empty", seed)
		}

		// Recovery must cross the abandoned generations (installs resume
		// normally — the recovered service is allowed to checkpoint).
		testSkipInstall.Store(false)
		r, err := Open(dir, Options{})
		testSkipInstall.Store(true)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sameState(t, r.Snapshot(), want)
		if err := r.eng.Verify(); err != nil {
			t.Fatalf("seed %d: recovered engine: %v", seed, err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
