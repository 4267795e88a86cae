package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/dynamic"
	"repro/internal/workload"
)

// Replication support. A primary Service exposes a ReplSink hook the
// log-shipping layer (internal/repl) attaches to: the writer goroutine
// reports every S-changing batch right after it is applied (and WAL-
// logged), and every candidate-index canonicalization boundary. A
// follower Service is the receiving side: local writes are refused with
// ErrNotPrimary and state advances only through Replicate/Canonicalize,
// which apply the primary's exact batch sequence through the same
// single-writer loop — so MVCC snapshots are byte-identical to the
// primary's at every shipped version. Canonicalization boundaries are
// part of the stream; Service.canonicalize states why.

// ErrNotPrimary is returned by Enqueue on a follower-mode service:
// followers take writes only from the replication stream.
var ErrNotPrimary = errors.New("serve: not the primary; follower refuses local writes")

// ReplSink receives replication events from the writer goroutine.
// Both methods are called synchronously on the writer (or, for
// Checkpointer-triggered canonicalizations, on the goroutine running
// the capture) — implementations must be fast and must not call back
// into the Service except through the provided Checkpointer. The ops
// slice aliases the writer's reusable buffer: copy it before retaining.
type ReplSink interface {
	// ReplBatch reports one applied S-changing batch: applying ops took
	// the engine to version (versions of successive calls are exactly
	// consecutive). cp can capture a checkpoint of the engine as it
	// stands right now — the writer is quiescent for the duration of the
	// call.
	ReplBatch(cp Checkpointer, ops []workload.Op, version uint64)
	// ReplCanon reports that the engine canonicalized its candidate
	// index with the snapshot at version — a boundary every replica must
	// reproduce.
	ReplCanon(version uint64)
}

// Checkpointer captures engine checkpoints with the writer quiescent.
// It is only valid for the duration of the ReplBatch or Barrier call
// that provided it.
type Checkpointer interface {
	// Version returns the engine's current snapshot version.
	Version() uint64
	// Checkpoint writes a dynamic.WriteCheckpoint image of the engine to
	// w and returns the version it captures. The capture is a
	// canonicalization boundary: the live engine's index is canonical
	// afterwards (on a durable service via a real store checkpoint, so
	// crash recovery stays byte-identical) and ReplCanon fires for it.
	Checkpoint(w io.Writer) (uint64, error)
}

// SetReplSink attaches (or, with nil, detaches) the replication sink.
// Attach before write traffic starts to ship the full history; batches
// applied while no sink is attached are not replayed to a later one —
// a late-attached sink must capture a checkpoint first.
func (s *Service) SetReplSink(sink ReplSink) {
	if sink == nil {
		s.sink.Store(nil)
		return
	}
	s.sink.Store(&sink)
}

// replSink returns the attached sink, or nil.
func (s *Service) replSink() ReplSink {
	if p := s.sink.Load(); p != nil {
		return *p
	}
	return nil
}

// canonicalize rebuilds the engine's candidate index in canonical order
// and announces the boundary to the replication sink at the current
// version. Writer goroutine only, with the writer quiescent.
//
// Determinism contract: dynamic.LoadCheckpoint rebuilds the candidate
// index in canonical order, and swap tie-breaking follows candidate
// order, so two engines stay byte-identical only if they canonicalize at
// the same versions. Every capture of a checkpoint image — a store
// checkpoint or a replication checkpoint — is therefore a boundary on
// the live engine too, and every boundary goes into the replicated
// history. A follower canonicalizes exactly at the shipped markers,
// never on its own schedule (its durable checkpoints ride the same
// markers, keeping a crash-recovered follower on the primary's
// lineage). Recovery reproduces a boundary at each WAL generation
// switch (see open).
func (s *Service) canonicalize() {
	s.eng.CanonicalizeIndex()
	if sink := s.replSink(); sink != nil {
		sink.ReplCanon(s.eng.Snapshot().Version())
	}
}

// Barrier runs fn on the writer goroutine at a batch boundary at or
// after the call, with the writer quiescent until fn returns — the only
// safe vantage point for capturing a replication checkpoint that no
// concurrent batch can straddle. It returns fn's error, or the
// context's/service's if fn never ran.
func (s *Service) Barrier(ctx context.Context, fn func(cp Checkpointer) error) error {
	if s.closed.Load() {
		return ErrClosed
	}
	if err := s.Err(); err != nil {
		return err
	}
	req := &barrierReq{fn: fn, done: make(chan error, 1)}
	select {
	case s.in <- item{barrier: req}:
	case <-ctx.Done():
		return ctx.Err()
	case <-s.done:
		return ErrClosed
	}
	select {
	case err := <-req.done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	case <-s.done:
		select {
		case err := <-req.done:
			return err
		default:
			return ErrClosed
		}
	}
}

// Replicate applies one shipped batch on a follower — the primary's
// exact ApplyBatch unit, logged to the follower's own WAL first when it
// is durable, never coalesced or split — and returns the engine version
// it produced (the caller checks it against the version the stream
// promised). Returns ErrNotPrimary on a non-follower service.
func (s *Service) Replicate(ctx context.Context, ops []workload.Op) (uint64, error) {
	if !s.follower {
		return 0, errors.New("serve: Replicate on a primary service")
	}
	for _, op := range ops {
		if op.U < 0 || op.V < 0 || int(op.U) >= s.n || int(op.V) >= s.n || op.U == op.V {
			return 0, fmt.Errorf("serve: invalid replicated op (%d,%d) for %d nodes", op.U, op.V, s.n)
		}
	}
	return s.sendRepl(ctx, &replReq{ops: ops, done: make(chan replResult, 1)})
}

// Canonicalize reproduces a shipped canonicalization boundary on a
// follower: a durable follower writes a real store checkpoint there
// (its only checkpoints — keeping crash recovery on the primary's
// lineage), an in-memory one canonicalizes the index directly.
func (s *Service) Canonicalize(ctx context.Context) (uint64, error) {
	if !s.follower {
		return 0, errors.New("serve: Canonicalize on a primary service")
	}
	return s.sendRepl(ctx, &replReq{canon: true, done: make(chan replResult, 1)})
}

// Follower reports whether the service is in follower mode.
func (s *Service) Follower() bool { return s.follower }

func (s *Service) sendRepl(ctx context.Context, req *replReq) (uint64, error) {
	if s.closed.Load() {
		return 0, ErrClosed
	}
	if err := s.Err(); err != nil {
		return 0, err
	}
	select {
	case s.in <- item{repl: req}:
	case <-ctx.Done():
		return 0, ctx.Err()
	case <-s.done:
		return 0, ErrClosed
	}
	select {
	case res := <-req.done:
		return res.version, res.err
	case <-ctx.Done():
		return 0, ctx.Err()
	case <-s.done:
		select {
		case res := <-req.done:
			return res.version, res.err
		default:
			return 0, ErrClosed
		}
	}
}

// replReq is a follower-side replication work item: one exact batch to
// apply, or a canonicalization boundary.
type replReq struct {
	ops   []workload.Op
	canon bool
	done  chan replResult // buffered; the writer never blocks on it
}

type replResult struct {
	version uint64
	err     error
}

// barrierReq runs a closure on the quiescent writer.
type barrierReq struct {
	fn   func(cp Checkpointer) error
	done chan error // buffered; the writer never blocks on it
}

// applyRepl executes one replication item on the writer goroutine.
func (s *Service) applyRepl(req *replReq) {
	if err := s.Err(); err != nil {
		req.done <- replResult{err: err}
		return
	}
	if req.canon {
		var err error
		if s.dur != nil {
			if err = s.storeCheckpoint(); err != nil {
				s.fail(err)
			}
		} else {
			s.canonicalize()
		}
		req.done <- replResult{version: s.eng.Snapshot().Version(), err: err}
		return
	}
	if s.dur != nil {
		if err := s.appendWAL(req.ops); err != nil {
			s.fail(err)
			req.done <- replResult{err: err}
			return
		}
	}
	changed := s.eng.ApplyBatch(req.ops)
	n := uint64(len(req.ops))
	// Count replicated ops through the same Enqueued/Applied pair so the
	// QueueDepth gauge (Enqueued - Applied) stays zero instead of
	// wrapping.
	s.enqueued.Add(n)
	s.applied.Add(n)
	s.changed.Add(uint64(changed))
	s.batches.Add(1)
	ver := s.eng.Snapshot().Version()
	if changed > 0 {
		if sink := s.replSink(); sink != nil {
			sink.ReplBatch(svcCheckpointer{s}, req.ops, ver)
		}
	}
	s.notifyPublished()
	req.done <- replResult{version: ver}
}

// runBarrier executes a Barrier closure on the writer goroutine.
func (s *Service) runBarrier(fn func(cp Checkpointer) error) error {
	if err := s.Err(); err != nil {
		return err
	}
	return fn(svcCheckpointer{s})
}

// svcCheckpointer is the Checkpointer handed to ReplBatch/Barrier
// closures; it is only used while the writer is quiescent.
type svcCheckpointer struct{ s *Service }

func (c svcCheckpointer) Version() uint64 { return c.s.eng.Snapshot().Version() }

func (c svcCheckpointer) Checkpoint(w io.Writer) (uint64, error) {
	s := c.s
	if err := s.Err(); err != nil {
		return 0, err
	}
	ver := s.eng.Snapshot().Version()
	if s.dur == nil {
		if err := s.eng.WriteCheckpoint(w); err != nil {
			return 0, err
		}
		// The capture is a canon boundary for its loader; make it one for
		// the live engine and its streaming replicas too.
		s.canonicalize()
		return ver, nil
	}
	// On a durable service the capture must be a real store checkpoint:
	// storeCheckpoint canonicalizes the live index at this version, and
	// doing that without rolling the store would break byte-identical
	// crash recovery mid-generation. The image it just captured is the
	// one to serve: write those bytes (minus the store header) and never
	// touch the possibly half-installed on-disk file. Read-only aliasing
	// with the background installer is safe.
	if err := s.storeCheckpoint(); err != nil {
		s.fail(err)
		return 0, err
	}
	_, err := w.Write(s.dur.ckptBuf[storeHdrSize:])
	return ver, err
}

// NewFollowerFromCheckpoint builds a follower-mode Service from a
// dynamic.WriteCheckpoint image (the payload of a replication install
// frame). With Options.Dir set the follower gets its own durable store,
// initialised from the same image, so it can crash-recover and resume
// the stream from its last applied version; the directory must not
// already hold a store (reinstalls clear it first). Local writes are
// refused with ErrNotPrimary; state advances through Replicate and
// Canonicalize only.
func NewFollowerFromCheckpoint(r io.Reader, opt Options) (*Service, error) {
	opt = opt.withDefaults()
	eng, err := dynamic.LoadCheckpoint(bufio.NewReader(r), opt.Workers)
	if err != nil {
		return nil, err
	}
	s := wrapEngine(eng, opt)
	s.follower = true
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

// OpenFollower resumes a durable follower store (created by
// NewFollowerFromCheckpoint with a Dir) exactly as Open resumes a
// primary's: checkpoint load plus WAL-suffix replay. Because the
// follower's WAL holds the primary's exact shipped batches and its
// checkpoints sit on shipped canon boundaries, the recovered engine is
// byte-identical to the pre-crash one and the stream can resume from
// its version.
func OpenFollower(dir string, opt Options) (*Service, error) {
	return open(dir, opt, true)
}
