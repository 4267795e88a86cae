// Package serve turns the dynamic engine into a concurrently servable
// component: a Service owns the engine behind a single writer goroutine
// that drains a queued update stream into coalesced ApplyBatch calls,
// while any number of reader goroutines get wait-free, allocation-free
// access to the latest published result snapshot.
//
// The design is the standard reader/writer split of production graph
// stores. Writers never block readers: the engine publishes an immutable
// dynamic.Snapshot through an atomic pointer after every batch, and the
// read path (Snapshot, Size, CliqueOf, Contains) is a single atomic load
// plus array indexing — no locks, no copies. Readers may hold a snapshot
// for as long as they like; it is point-in-time and never mutated.
//
// Updates are asynchronous: Enqueue hands ops to the writer and returns;
// Flush blocks until everything enqueued before it has been applied;
// Close stops the writer after draining the queue. Backpressure comes
// from the bounded queue — when it is full, Enqueue blocks until the
// writer catches up or the context is cancelled.
//
// Setting Options.Dir makes the service durable: drained batches are
// written ahead to a log before application and the engine state is
// checkpointed periodically and on Close, so Open can rebuild the exact
// pre-crash engine from the last checkpoint plus the log suffix. See
// durable.go for the store protocol.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/wal"
)

// ErrClosed is returned by Enqueue and Flush after Close.
var ErrClosed = errors.New("serve: service closed")

// Gate bounds how many services may run engine applies at once. A
// process hosting many services (see internal/manager) hands each the
// same Gate so the aggregate apply parallelism — the expensive part of
// the write pipeline — stays bounded no matter how many tenants are
// live. Acquire blocks until a slot frees; Release returns it.
// Implementations must be safe for concurrent use.
type Gate interface {
	Acquire()
	Release()
}

// Options tunes a Service; the zero value of every field selects a
// sensible default.
type Options struct {
	// Workers bounds the engine's parallelism for index construction and
	// batch rebuilds; <= 0 means GOMAXPROCS.
	Workers int
	// QueueCapacity bounds the update queue (in Enqueue calls, not ops);
	// a full queue makes Enqueue block. Default 1024.
	QueueCapacity int
	// MaxBatch caps how many ops one ApplyBatch call coalesces. Default
	// 4096.
	MaxBatch int
	// Dir, when non-empty, makes the service durable: every drained batch
	// is appended to a write-ahead log under Dir before it is applied, and
	// the engine is checkpointed there periodically and on Close. New
	// initialises a fresh store and refuses a directory that already holds
	// one; Open resumes an existing store.
	Dir string
	// Fsync selects when WAL appends reach stable storage (see
	// wal.SyncPolicy). The default, SyncEveryBatch, fsyncs per applied
	// batch; SyncNone defers to the OS but still syncs on Flush and
	// checkpoints, so Flush returning always means durable.
	Fsync wal.SyncPolicy
	// CheckpointEvery is the number of applied ops between checkpoints of
	// a durable service or one with a replication sink. Default 1 << 17.
	// Each checkpoint truncates the WAL, bounding both recovery replay
	// time and disk growth, and becomes the replication install base,
	// bounding the history a primary keeps for resuming followers.
	CheckpointEvery int
	// ApplyGate, when non-nil, is acquired around every local ApplyBatch
	// call so a process hosting many services can cap their aggregate
	// apply parallelism (the engine fans each batch out to Workers
	// goroutines; N unbounded tenants would mean N×Workers). The gate
	// covers the engine work only — WAL appends, fsyncs, and checkpoint
	// installs stay ungated, so a slow tenant's apply never blocks
	// another's durability. Follower replication applies are ungated too:
	// the stream applier is already one-in-flight.
	ApplyGate Gate
}

func (o Options) withDefaults() Options {
	if o.QueueCapacity <= 0 {
		o.QueueCapacity = 1024
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 4096
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 1 << 17
	}
	return o
}

// Stats counts service activity. All fields are cumulative and, in the
// absence of failed Enqueue attempts, monotone.
type Stats struct {
	// Enqueued counts ops accepted by Enqueue. An Enqueue blocked on a
	// full queue counts its ops tentatively and takes the count back if
	// the context is cancelled (or the service closes) before acceptance,
	// so Enqueued can step back by exactly a failed call's op count —
	// but never below Applied, because rolled-back ops were never visible
	// to the writer.
	Enqueued uint64
	// Applied counts ops the writer handed to the engine (every enqueued
	// op is applied exactly once, so Applied trails Enqueued by the queue
	// backlog).
	Applied uint64
	// Changed counts applied ops that actually changed the graph.
	Changed uint64
	// Batches counts ApplyBatch calls the writer issued.
	Batches uint64
	// Flushes counts completed Flush calls.
	Flushes uint64
	// Recovered counts ops replayed from the WAL when the service was
	// resumed with Open; zero for fresh services. Replayed ops are not
	// re-counted in Enqueued/Applied.
	Recovered uint64
	// Checkpoints counts store checkpoints written (including the initial
	// one a fresh durable store starts with and the final one Close
	// writes). An in-memory service's captures are not counted.
	Checkpoints uint64
	// WALBatches / WALBytes count write-ahead-log appends and their size.
	// Zero for non-durable services.
	WALBatches uint64
	WALBytes   uint64
	// WALSyncs counts completed WAL fsyncs; GroupCommitOps counts the ops
	// those fsyncs made durable. Their ratio is the group-commit
	// coalescing factor — ops per fsync: appends that land while one
	// fsync is in flight are all covered by the next, so it grows with
	// load.
	WALSyncs       uint64
	GroupCommitOps uint64
	// CheckpointStallNs is cumulative wall time the writer spent stalled
	// on checkpoint rollovers: the in-memory capture, plus any wait for a
	// previous install still in flight. The image write, fsync and rename
	// run on the background installer and are not counted here.
	CheckpointStallNs uint64
	// QueueDepth is the instantaneous update backlog: ops accepted by
	// Enqueue that the writer has not yet applied. Unlike every field
	// above it is a gauge, not a cumulative counter — it falls back to
	// zero whenever the writer catches up.
	QueueDepth uint64
	// SnapshotAge is the number of snapshot publications since the clique
	// set S last changed (0 when the latest publication moved S). A gauge:
	// it grows while updates leave the result set untouched and resets on
	// every S-changing publish. This is the freshness signal the TCP
	// delta-subscribe path keys on.
	SnapshotAge uint64
}

// item is one unit of the writer's input queue: ops to apply and/or a
// flush marker to close once everything before it has been applied.
// repl and barrier are replication specials (see repl.go); they run on
// the writer after the batch group they arrived in has been applied.
type item struct {
	ops     []graph.Op
	flush   chan struct{}
	repl    *replReq
	barrier *barrierReq
}

// Service owns a dynamic engine behind a single writer goroutine. All
// exported methods are safe for concurrent use by any number of
// goroutines; the read path never blocks on the writer.
type Service struct {
	eng  *dynamic.Engine
	k    int
	n    int  // node-id bound for op validation
	gate Gate // optional cross-service apply limiter (Options.ApplyGate)

	in   chan item
	quit chan struct{} // closed by Close to stop the writer
	done chan struct{} // closed by the writer on exit

	closeOnce sync.Once
	closed    atomic.Bool
	closeErr  error

	// pubMu guards pubCh, the broadcast channel Published hands out;
	// the writer closes and replaces it after every batch application,
	// waking every goroutine blocked on an earlier Published() value.
	pubMu sync.Mutex
	pubCh chan struct{}

	// follower marks a replica service: Enqueue refuses local writes
	// with ErrNotPrimary and state advances through Replicate (repl.go).
	// Set before the writer starts, never after.
	follower bool

	// sink is the attached replication sink, stored as a pointer to the
	// interface value so attachment is one atomic store (see repl.go).
	sink atomic.Pointer[ReplSink]

	// every and sinceCkpt are the checkpoint schedule (Options.
	// CheckpointEvery, maybeCheckpoint): the interval in applied ops and
	// the writer-owned count since the last checkpoint.
	every     int
	sinceCkpt int

	// dur is the durability state (nil for in-memory services); werr
	// latches the first WAL/checkpoint failure, after which the service is
	// fail-stopped: no further op is applied and Enqueue/Flush/Close
	// surface the error. An un-logged mutation must never be acked.
	dur  *durable
	werr atomic.Pointer[error]

	enqueued       atomic.Uint64
	applied        atomic.Uint64
	changed        atomic.Uint64
	batches        atomic.Uint64
	flushes        atomic.Uint64
	recovered      atomic.Uint64
	checkpoints    atomic.Uint64
	walBatches     atomic.Uint64
	walBytes       atomic.Uint64
	walSyncs       atomic.Uint64
	groupCommitOps atomic.Uint64
	ckptStallNs    atomic.Uint64
}

// New builds a Service over a starting graph and initial clique set
// (normally a static Find result; nil is completed greedily) and starts
// the writer goroutine. Callers must Close the service to stop it.
//
// With Options.Dir set, New also initialises a durable store there (an
// initial checkpoint plus an empty WAL) and fails if the directory
// already holds one — resume those with Open instead.
func New(g *graph.Graph, k int, initial [][]int32, opt Options) (*Service, error) {
	opt = opt.withDefaults()
	eng, err := dynamic.NewWorkers(g, k, initial, opt.Workers)
	if err != nil {
		return nil, err
	}
	s := wrapEngine(eng, opt)
	if opt.Dir != "" {
		dur, err := initStore(opt, eng)
		if err != nil {
			return nil, err
		}
		s.dur = dur
		s.checkpoints.Add(1)
		dur.startPipeline(s, opt)
	}
	s.start(opt.MaxBatch)
	return s, nil
}

// wrapEngine builds the Service shell around an engine without starting
// the writer; New and Open attach durability state in between.
func wrapEngine(eng *dynamic.Engine, opt Options) *Service {
	return &Service{
		eng:   eng,
		k:     eng.K(),
		n:     eng.Graph().N(),
		gate:  opt.ApplyGate,
		every: opt.CheckpointEvery,
		in:    make(chan item, opt.QueueCapacity),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
		pubCh: make(chan struct{}),
	}
}

// start launches the writer goroutine.
func (s *Service) start(maxBatch int) { go s.run(maxBatch) }

// Err returns the sticky durability error that fail-stopped the service,
// or nil. Always nil for in-memory services.
func (s *Service) Err() error {
	if p := s.werr.Load(); p != nil {
		return *p
	}
	return nil
}

// fail latches the first durability error.
func (s *Service) fail(err error) {
	s.werr.CompareAndSwap(nil, &err)
}

// Published returns a channel that is closed at the next snapshot
// publication (and on writer exit). The pattern for a push consumer —
// the TCP delta-subscribe loop is one — is: grab the channel FIRST,
// then read Snapshot(); if the snapshot is not new, block on the
// channel. A publication racing between the two calls closes the
// already-held channel, so no version can slip by unobserved. Each
// returned channel fires once; call Published again for the next tick.
//
// After the writer has exited (Close), Published returns the same
// already-closed channel forever — a waiter wakes immediately instead
// of hanging, and getting an identical channel twice is the signal
// that no further publication will ever come.
func (s *Service) Published() <-chan struct{} {
	s.pubMu.Lock()
	ch := s.pubCh
	s.pubMu.Unlock()
	return ch
}

// notifyPublished wakes everything blocked on an earlier Published()
// channel. Called by the writer after each applied batch group.
func (s *Service) notifyPublished() {
	s.pubMu.Lock()
	close(s.pubCh)
	s.pubCh = make(chan struct{})
	s.pubMu.Unlock()
}

// finalPublish is the writer's exit notification: it closes the current
// broadcast channel and, unlike notifyPublished, does NOT replace it —
// so every past and future Published() channel is closed and nothing can
// block on a publication that will never come.
func (s *Service) finalPublish() {
	s.pubMu.Lock()
	close(s.pubCh)
	s.pubMu.Unlock()
}

// run is the single writer: it blocks for the next queue item, then
// greedily collects everything already queued (up to maxBatch ops) and
// applies it as one ApplyBatch call, so bursts coalesce into few engine
// batches while an idle service applies single updates immediately.
func (s *Service) run(maxBatch int) {
	defer close(s.done)
	defer s.finalPublish()
	buf := make([]graph.Op, 0, maxBatch)
	var pendingFlush []chan struct{}
	var specials []item
	var waiterBuf []syncWaiter
	apply := func() {
		if s.dur != nil && len(buf) > 0 && s.Err() == nil {
			// Write-ahead for the whole drain cycle: every chunk's record
			// reaches the log file — in one vectored write — before any
			// chunk is applied. On a log failure the service fail-stops:
			// nothing below applies, so the durable state stays a
			// prefix-exact image of the engine. Record boundaries equal the
			// maxBatch chunking below, so the log replays through the exact
			// ApplyBatch calls the live engine saw.
			if err := s.appendWALGroup(buf, maxBatch); err != nil {
				s.fail(err)
			}
		}
		// Chunk to maxBatch so one oversized Enqueue cannot stall the
		// writer (and snapshot freshness) for an unbounded mega-batch.
		for off := 0; off < len(buf); off += maxBatch {
			if s.dur != nil && s.Err() != nil {
				break
			}
			end := min(off+maxBatch, len(buf))
			chunk := buf[off:end]
			changed := s.applyChunk(chunk)
			s.applied.Add(uint64(end - off))
			s.changed.Add(uint64(changed))
			s.batches.Add(1)
			if changed > 0 {
				// Ship S-changing batches (the only ones that bump the
				// version) before maybeCheckpoint, so the sink sees them in
				// version order and a checkpoint's image covers every batch
				// shipped before it. chunk aliases buf — the sink copies
				// what it retains.
				if sink := s.replSink(); sink != nil {
					sink.ReplBatch(chunk, s.eng.Snapshot().Version())
				}
			}
			if s.maybeCheckpoint(end-off) != nil {
				break
			}
		}
		buf = buf[:0]
		// Acking a flush promises durability. Durable: hand the markers
		// to the syncer — they ride the next group commit and wake strictly
		// after the covering fsync (or after the failure latch), without
		// stalling the writer here. In-memory: ack on the spot.
		if s.dur != nil {
			waiterBuf = waiterBuf[:0]
			for _, f := range pendingFlush {
				waiterBuf = append(waiterBuf, syncWaiter{ch: f, flush: true})
			}
			s.dur.sync.await(waiterBuf)
		} else {
			for _, f := range pendingFlush {
				// Count before waking the flusher: a caller returning from
				// Flush must observe its own flush in Stats.
				s.flushes.Add(1)
				close(f)
			}
		}
		pendingFlush = pendingFlush[:0]
		// Wake the delta subscribers after the engine published.
		s.notifyPublished()
		// Replication specials run at the batch boundary, in arrival
		// order: a follower's stream applier is synchronous (one item in
		// flight), so order relative to local ops never matters on the
		// services that receive them.
		for _, sp := range specials {
			switch {
			case sp.repl != nil:
				s.applyRepl(sp.repl)
			case sp.barrier != nil:
				sp.barrier.done <- s.runBarrier(sp.barrier.fn)
			}
		}
		specials = specials[:0]
	}
	collect := func(it item) {
		buf = append(buf, it.ops...)
		if it.flush != nil {
			pendingFlush = append(pendingFlush, it.flush)
		}
		if it.repl != nil || it.barrier != nil {
			specials = append(specials, it)
		}
	}
	for {
		select {
		case it := <-s.in:
			collect(it)
			// Coalesce whatever else is already queued.
		collecting:
			for len(buf) < maxBatch {
				select {
				case more := <-s.in:
					collect(more)
				default:
					break collecting
				}
			}
			apply()
		case <-s.quit:
			// Final drain: apply everything that made it into the queue
			// before Close, then exit.
			for {
				select {
				case it := <-s.in:
					collect(it)
					if len(buf) >= maxBatch {
						apply()
					}
				default:
					apply()
					return
				}
			}
		}
	}
}

// applyChunk runs one ApplyBatch call under the cross-service apply
// gate, if one was configured. Writer goroutine only.
func (s *Service) applyChunk(chunk []graph.Op) int {
	if s.gate != nil {
		s.gate.Acquire()
		defer s.gate.Release()
	}
	return s.eng.ApplyBatch(chunk)
}

// Enqueue queues edge updates for the writer and returns once they are
// accepted (not yet applied — use Flush to wait for application). It
// blocks when the queue is full until space frees, the context is
// cancelled, or the service closes. Ops whose Enqueue races with Close
// may be discarded; Flush before Close for a full-drain guarantee.
//
// Every op is validated up front: self-loops and out-of-range node ids
// are rejected with an error before anything is accepted. (The engine
// panics on out-of-range ids by design, and the WAL only persists
// well-formed edge ops — an invalid op that slipped into the log would
// read back as corruption and truncate acked records behind it.)
func (s *Service) Enqueue(ctx context.Context, ops ...graph.Op) error {
	if len(ops) == 0 {
		return nil
	}
	for _, op := range ops {
		if !op.Valid(s.n) {
			return fmt.Errorf("serve: invalid edge op (%d,%d) for %d nodes", op.U, op.V, s.n)
		}
	}
	if s.follower {
		return ErrNotPrimary
	}
	if s.closed.Load() {
		return ErrClosed
	}
	if err := s.Err(); err != nil {
		return err
	}
	// Copy before queueing: Enqueue returns on acceptance, before the
	// writer reads the ops, so retaining the caller's slice would race
	// with callers that reuse their buffer.
	ops = append([]graph.Op(nil), ops...)
	// The writer drains the queue once more after Close; a send that beats
	// that final drain is still applied, later ones are dropped (see doc).
	select {
	case <-s.done:
		return ErrClosed
	default:
	}
	// Count before the send, not after: the writer may pick the ops up and
	// apply them before a post-send Add runs, and Stats must never show
	// Applied ahead of Enqueued (the documented backlog relation). A
	// failed send takes the count back, so a cancelled Enqueue leaves no
	// phantom ops behind — the transient over-count while the attempt is
	// in flight is harmless because those ops cannot have been applied.
	s.enqueued.Add(uint64(len(ops)))
	select {
	case s.in <- item{ops: ops}:
		return nil
	case <-ctx.Done():
		s.enqueued.Add(^uint64(len(ops) - 1))
		return ctx.Err()
	case <-s.done:
		s.enqueued.Add(^uint64(len(ops) - 1))
		return ErrClosed
	}
}

// Flush blocks until every op enqueued before the call has been applied
// — and, for a durable service, synced to the write-ahead log — or until
// the context is cancelled or the service closes. A nil return is the
// durability ack: those ops survive a crash.
func (s *Service) Flush(ctx context.Context) error {
	if s.closed.Load() {
		return ErrClosed
	}
	if err := s.Err(); err != nil {
		return err
	}
	marker := make(chan struct{})
	select {
	case s.in <- item{flush: marker}:
	case <-ctx.Done():
		return ctx.Err()
	case <-s.done:
		return ErrClosed
	}
	select {
	case <-marker:
		return s.Err()
	case <-ctx.Done():
		return ctx.Err()
	case <-s.done:
		// The writer's final drain closes collected markers; if it exited
		// without reaching ours, report closure.
		select {
		case <-marker:
			return s.Err()
		default:
			return ErrClosed
		}
	}
}

// Close stops the writer after draining the queue and waits for it to
// exit; a durable service then writes a final checkpoint (so a clean
// shutdown leaves an empty WAL and instant recovery) and closes its log.
// Further Enqueue/Flush calls return ErrClosed; the read path keeps
// answering from the last published snapshot. Close is idempotent and
// returns the first durability error the service hit, if any.
func (s *Service) Close() error {
	s.closeOnce.Do(func() {
		s.closed.Store(true)
		close(s.quit)
		<-s.done
		if s.dur == nil {
			return
		}
		// The writer has exited; its durability state is ours now. Drain
		// the syncer first, so the unflushed tail is synced and counted
		// like every other group commit (its error is the sticky one,
		// read below). Then wind the pipeline down: the syncer acks every
		// outstanding waiter (so no Flush caller hangs), the installer
		// finishes the in-flight checkpoint. Only then is the final
		// checkpoint meaningful — and on a latched failure it is skipped
		// entirely.
		_ = s.dur.sync.drain()
		s.dur.stopPipeline()
		if err := s.Err(); err != nil {
			s.closeErr = err
		} else if err := s.finalCheckpoint(); err != nil {
			s.fail(err)
			s.closeErr = err
		}
		// Whatever happened above, drop the log fd and the store lock: a
		// failed final checkpoint must not leak either (the WAL it leaves
		// behind is exactly what recovery replays).
		if s.dur.log != nil {
			s.dur.log.Close()
			s.dur.log = nil
		}
		s.dur.unlock()
	})
	return s.closeErr
}

// Crash is fault-injection support: it simulates a hard process stop.
// The writer is stopped once idle and the log handle closed WITHOUT the
// final checkpoint Close would write, so the store holds only what the
// WAL protocol itself made durable; the pipeline goroutines are stopped
// (their fds must not outlive the fake process death) but nothing else
// is flushed or checkpointed. The flock is released too — a real crash
// releases it with the process. Recovery tests (here and in
// internal/manager) Open the store afterwards and assert byte-identical
// state; production code has no reason to call this.
func (s *Service) Crash() {
	s.closeOnce.Do(func() {
		s.closed.Store(true)
		close(s.quit)
		<-s.done
		if s.dur != nil {
			s.dur.stopPipeline()
			if s.dur.log != nil {
				s.dur.log.Close()
			}
			s.dur.unlock()
		}
	})
}

// Snapshot returns the latest published result snapshot — one atomic
// load, zero allocations, never blocked by the writer. The snapshot is
// immutable and stays valid indefinitely.
func (s *Service) Snapshot() *dynamic.Snapshot { return s.eng.Snapshot() }

// Size returns the current |S|.
func (s *Service) Size() int { return s.eng.Snapshot().Size() }

// CliqueOf returns the sorted members of the clique containing u in the
// latest snapshot, or nil if u is free or out of range. The slice is
// shared with the snapshot and must not be modified.
func (s *Service) CliqueOf(u int32) []int32 { return s.eng.Snapshot().CliqueOf(u) }

// Contains reports whether u is covered by the latest snapshot.
func (s *Service) Contains(u int32) bool { return s.eng.Snapshot().Contains(u) }

// K returns the clique size.
func (s *Service) K() int { return s.k }

// Stats returns the service's activity counters. The engine's own
// counters travel with each snapshot (Snapshot().Stats()).
//
// The counters are written with atomics and causally ordered: an op is
// counted in Enqueued before the writer can see it, Applied advances only
// after that, and Changed only with Applied. Loading them here in the
// reverse of that order makes the documented relations (Changed <=
// Applied <= Enqueued) hold in every returned snapshot even while
// updates land between the individual loads — the naive same-order reads
// could observe Applied ahead of Enqueued under concurrent traffic.
func (s *Service) Stats() Stats {
	var st Stats
	st.Flushes = s.flushes.Load()
	st.Batches = s.batches.Load()
	st.Changed = s.changed.Load()
	st.Applied = s.applied.Load()
	st.Enqueued = s.enqueued.Load()
	st.Recovered = s.recovered.Load()
	st.Checkpoints = s.checkpoints.Load()
	st.WALBatches = s.walBatches.Load()
	st.WALBytes = s.walBytes.Load()
	st.WALSyncs = s.walSyncs.Load()
	st.GroupCommitOps = s.groupCommitOps.Load()
	st.CheckpointStallNs = s.ckptStallNs.Load()
	// Gauges. QueueDepth inherits the Applied-before-Enqueued load order
	// above, so it can transiently over-count an in-flight Enqueue but
	// never goes negative; SnapshotAge is internally consistent because
	// both counters come from one immutable snapshot.
	st.QueueDepth = st.Enqueued - st.Applied
	snap := s.eng.Snapshot()
	st.SnapshotAge = snap.Version() - snap.SChanged()
	return st
}
