package serve

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/dynamic"
	"repro/internal/graph"
)

// Replication support. A primary Service exposes a ReplSink hook the
// log-shipping layer (internal/repl) attaches to: the writer goroutine
// reports every S-changing batch right after it is applied (and WAL-
// logged), and every checkpoint it takes, which is also a
// candidate-index canonicalization boundary, together with the image it
// captured. A follower Service is the receiving side: local writes are
// refused with ErrNotPrimary and state advances only through
// Replicate/Canonicalize, which apply the primary's exact batch sequence
// through the same single-writer loop — so MVCC snapshots are
// byte-identical to the primary's at every shipped version.
// Canonicalization boundaries are part of the stream; Service.checkpoint
// states why.

// ErrNotPrimary is returned by Enqueue on a follower-mode service:
// followers take writes only from the replication stream.
var ErrNotPrimary = errors.New("serve: not the primary; follower refuses local writes")

// ReplSink receives replication events from the writer goroutine.
// Both methods are called synchronously on the writer with the writer
// quiescent — implementations must be fast and must not call back into
// the Service.
type ReplSink interface {
	// ReplBatch reports one applied S-changing batch: applying ops took
	// the engine to version (versions of successive calls are exactly
	// consecutive). ops aliases the writer's reusable buffer: copy it
	// before retaining.
	ReplBatch(ops []graph.Op, version uint64)
	// ReplCanon reports a checkpoint: the engine canonicalized its
	// candidate index with the snapshot at version — a boundary every
	// replica must reproduce — and image is the dynamic.WriteCheckpoint
	// capture taken there. The sink may keep image; the service never
	// writes into it again.
	ReplCanon(version uint64, image []byte)
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

// checkpoint is the service's one capture routine: it takes a
// dynamic.WriteCheckpoint image of the engine at the current batch
// boundary, canonicalizes the candidate index there, and hands the image
// with its canon marker to the replication sink. A durable service
// captures through a real store checkpoint; an in-memory one serializes
// the image only when a sink or the caller (keep) takes it, and otherwise
// just canonicalizes. It returns the image, nil when nobody took one.
// Writer goroutine only, with the writer quiescent. A failure
// fail-stops the service.
//
// Determinism contract: dynamic.LoadCheckpoint rebuilds the candidate
// index in canonical order, and swap tie-breaking follows candidate
// order, so two engines stay byte-identical only if they canonicalize at
// the same versions. Every capture is therefore a boundary on the live
// engine too, and every boundary goes into the replicated history. A
// follower canonicalizes exactly at the shipped markers, never on its
// own schedule (its durable checkpoints ride the same markers, keeping a
// crash-recovered follower on the primary's lineage). Recovery
// reproduces a boundary at each WAL generation switch (see open).
func (s *Service) checkpoint(keep bool) ([]byte, error) {
	if s.dur != nil {
		defer func(start time.Time) { s.ckptStallNs.Add(uint64(time.Since(start))) }(time.Now())
	}
	sink := s.replSink()
	keep = keep || sink != nil
	var img []byte
	var err error
	if s.dur != nil {
		img, err = s.storeCheckpoint(keep)
	} else if keep {
		var buf bytes.Buffer
		err = s.eng.WriteCheckpoint(&buf)
		img = buf.Bytes()
	}
	if err != nil {
		s.fail(err)
		return nil, err
	}
	s.sinceCkpt = 0
	s.eng.CanonicalizeIndex()
	if sink != nil {
		sink.ReplCanon(s.eng.Snapshot().Version(), img)
	}
	return img, nil
}

// maybeCheckpoint runs the checkpoint schedule: every CheckpointEvery
// applied ops, a service that is durable or has a replication sink takes
// a checkpoint. Called by the writer goroutine after each local
// ApplyBatch call.
func (s *Service) maybeCheckpoint(applied int) error {
	if s.dur == nil && s.replSink() == nil {
		return nil
	}
	s.sinceCkpt += applied
	if s.sinceCkpt < s.every {
		return nil
	}
	_, err := s.checkpoint(false)
	return err
}

// Checkpoint takes a checkpoint at a writer barrier and returns the
// version and the dynamic.WriteCheckpoint image it captured; the image is
// the caller's to keep. Like every checkpoint it is a canonicalization
// boundary, a store checkpoint on a durable service, and reaches the
// replication sink.
func (s *Service) Checkpoint(ctx context.Context) (uint64, []byte, error) {
	type capture struct {
		version uint64
		image   []byte
	}
	// Buffered: the closure may run after ctx has given up on it.
	res := make(chan capture, 1)
	err := s.Barrier(ctx, func() error {
		img, err := s.checkpoint(true)
		if err != nil {
			return err
		}
		res <- capture{s.eng.Snapshot().Version(), img}
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	c := <-res
	return c.version, c.image, nil
}

// Barrier runs fn on the writer goroutine at a batch boundary at or
// after the call, with the writer quiescent until fn returns — the
// vantage point no concurrent batch can straddle, where Checkpoint
// captures and a replication sink attaches. It returns fn's error, or
// the context's/service's if fn never ran; fn may still run after the
// context gave up, so it must not hand results back through variables
// the caller reads.
func (s *Service) Barrier(ctx context.Context, fn func() error) error {
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
func (s *Service) Replicate(ctx context.Context, ops []graph.Op) (uint64, error) {
	if !s.follower {
		return 0, errors.New("serve: Replicate on a primary service")
	}
	for _, op := range ops {
		if !op.Valid(s.n) {
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
	ops   []graph.Op
	canon bool
	done  chan replResult // buffered; the writer never blocks on it
}

type replResult struct {
	version uint64
	err     error
}

// barrierReq runs a closure on the quiescent writer.
type barrierReq struct {
	fn   func() error
	done chan error // buffered; the writer never blocks on it
}

// applyRepl executes one replication item on the writer goroutine.
func (s *Service) applyRepl(req *replReq) {
	if err := s.Err(); err != nil {
		req.done <- replResult{err: err}
		return
	}
	if req.canon {
		_, err := s.checkpoint(false)
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
			sink.ReplBatch(req.ops, ver)
		}
	}
	s.notifyPublished()
	req.done <- replResult{version: ver}
}

// runBarrier executes a Barrier closure on the writer goroutine.
func (s *Service) runBarrier(fn func() error) error {
	if err := s.Err(); err != nil {
		return err
	}
	return fn()
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
