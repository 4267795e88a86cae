package serve

// Write-path pipeline. A durable service splits the two slow pieces of
// durability off the writer goroutine:
//
//   - groupSyncer owns every WAL fsync. The writer appends a batch's
//     record (buffered write — the bytes reach the log file before
//     ApplyBatch, preserving write-ahead ordering) and moves straight on
//     to applying it while the syncer fsyncs behind it. While one fsync
//     is in flight, further appends accumulate and the next fsync covers
//     them all — group commit: the fsync rate degrades gracefully to the
//     disk's ability instead of serializing every batch behind its own
//     flush. Flush acks ride the group: a waiter registered before an
//     fsync starts is woken strictly after it completes (or after the
//     failure latch is set, in which case the waiter reads the sticky
//     error — acks never precede the covering fsync).
//
//   - installer owns the slow half of a checkpoint. The writer captures
//     the engine image into memory at the batch boundary (microseconds to
//     milliseconds), switches to the next WAL generation, and hands the
//     buffer off; the background goroutine pays the image write, fsync,
//     atomic rename, and directory sync. Exactly one install is in
//     flight: the next capture (and Close) drains it first.
//
// Both goroutines latch their first error through Service.fail, after
// which the service is fail-stopped: nothing further applies and no
// successful ack is issued.

import (
	"sync"
	"sync/atomic"

	"repro/internal/wal"
)

// testSkipInstall, when set, makes installCheckpoint return right after
// closing the superseded log, leaving the disk untouched. Because the
// install is an atomic rename, the resulting store image — checkpoint.dkc
// generations behind the newest WAL — is exactly what a crash between a
// capture and its install leaves behind; the chain-recovery tests build
// that window deterministically through this seam.
var testSkipInstall atomic.Bool

// syncWaiter is one party blocked on a group commit: flush marks waiters
// whose wake-up is a client-visible Flush ack (counted in Stats.Flushes);
// internal drains (checkpoint capture, Close) leave it unset.
type syncWaiter struct {
	ch    chan struct{}
	flush bool
}

// groupSyncer is the dedicated fsync goroutine of a durable service. The
// writer never calls Log.Sync; it notes appends and registers waiters
// here, and the syncer is the only goroutine issuing fsyncs (wal.Log is
// safe for exactly that split).
type groupSyncer struct {
	s          *Service
	everyBatch bool // wal.SyncEveryBatch: every append requests a commit

	mu      sync.Mutex
	cond    *sync.Cond
	log     *wal.Log
	want    bool // a commit has been requested
	waiters []syncWaiter
	pending uint64 // ops appended to the log since the last fsync took its count
	stopped bool

	done chan struct{}
}

func newGroupSyncer(s *Service, lg *wal.Log, everyBatch bool) *groupSyncer {
	y := &groupSyncer{s: s, log: lg, everyBatch: everyBatch, done: make(chan struct{})}
	y.cond = sync.NewCond(&y.mu)
	go y.run()
	return y
}

// noteAppend records ops whose records just reached the log file and,
// under SyncEveryBatch, requests a group commit for them (under SyncNone
// appends accumulate until a flush or drain pays the fsync and the ops
// count in the coalescing stats then).
func (y *groupSyncer) noteAppend(ops int) {
	y.mu.Lock()
	y.pending += uint64(ops)
	if y.everyBatch {
		y.want = true
	}
	y.mu.Unlock()
	if y.everyBatch {
		y.cond.Signal()
	}
}

// await registers a waiter to be woken strictly after the next completed
// fsync (or after the failure latch is set) and requests a commit.
func (y *groupSyncer) await(w syncWaiter) {
	y.mu.Lock()
	y.waiters = append(y.waiters, w)
	y.mu.Unlock()
	y.cond.Signal()
}

// drain blocks until everything appended before the call is durable (or
// the service has fail-stopped) and returns the sticky error, if any.
// The writer drains before every checkpoint capture so the old WAL
// generation is complete and synced when the generation switches; Close
// drains before stopping the syncer so the unflushed tail is synced and
// counted like every other group commit.
func (y *groupSyncer) drain() error {
	ch := make(chan struct{})
	y.await(syncWaiter{ch: ch})
	<-ch
	return y.s.Err()
}

// setLog retargets the syncer at the next WAL generation. The caller
// must have drained first, so no commit covering the old generation can
// still be pending.
func (y *groupSyncer) setLog(lg *wal.Log) {
	y.mu.Lock()
	y.log = lg
	y.mu.Unlock()
}

// stop ends the syncer once it has worked off everything pending. Called
// with the writer already exited (Close, crashForTest).
func (y *groupSyncer) stop() {
	y.mu.Lock()
	y.stopped = true
	y.mu.Unlock()
	y.cond.Signal()
	<-y.done
}

func (y *groupSyncer) run() {
	defer close(y.done)
	for {
		y.mu.Lock()
		for !y.want && len(y.waiters) == 0 && !y.stopped {
			y.cond.Wait()
		}
		if !y.want && len(y.waiters) == 0 {
			y.mu.Unlock()
			return
		}
		y.want = false
		ws := y.waiters
		y.waiters = nil
		ops := y.pending
		y.pending = 0
		lg := y.log
		y.mu.Unlock()
		// Everything grabbed above reached the file before the fsync
		// below starts, so a completed fsync covers it; appends racing in
		// while it runs ride the next group. After a failure the service
		// is fail-stopped: skip the disk, wake the waiters, and let them
		// read the sticky error — no ack after failure.
		if y.s.Err() == nil && lg.Dirty() {
			if err := lg.Sync(); err != nil {
				y.s.fail(err)
			} else {
				y.s.walSyncs.Add(1)
				y.s.groupCommitOps.Add(ops)
			}
		}
		for _, w := range ws {
			if w.flush {
				// Count before waking: a caller returning from Flush must
				// observe its own flush in Stats.
				y.s.flushes.Add(1)
			}
			close(w.ch)
		}
	}
}

// installReq is one captured checkpoint handed to the background
// installer: the full checkpoint file image (store header + engine
// image), the generation it becomes, and the previous generation's log,
// which the installer closes — no append will ever touch it again.
type installReq struct {
	data   []byte
	gen    int64
	oldLog *wal.Log
	done   chan error // buffered; carries this install's result
}

// installer is the background checkpoint-install goroutine of a durable
// service.
type installer struct {
	s        *Service
	req      chan installReq
	done     chan struct{}
	inflight chan error // result slot of the in-flight install; writer-owned, nil when idle
}

func newInstaller(s *Service) *installer {
	c := &installer{s: s, req: make(chan installReq, 1), done: make(chan struct{})}
	go c.run()
	return c
}

func (c *installer) run() {
	defer close(c.done)
	for req := range c.req {
		err := c.s.installCheckpoint(req)
		if err != nil {
			c.s.fail(err)
		}
		req.done <- err
	}
}

// start hands one capture to the background installer. The caller must
// have drained the previous install through wait — exactly one install
// is in flight at a time.
func (c *installer) start(req installReq) {
	c.inflight = req.done
	c.req <- req
}

// wait drains the in-flight install, if any, and returns its error (also
// latched through Service.fail by the goroutine itself).
func (c *installer) wait() error {
	if c.inflight == nil {
		return nil
	}
	err := <-c.inflight
	c.inflight = nil
	return err
}

// stop ends the goroutine after any in-flight install completes.
func (c *installer) stop() {
	close(c.req)
	<-c.done
}
