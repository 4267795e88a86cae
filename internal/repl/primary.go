// Package repl replicates a serving-layer Service over the wire frame
// transport: a Primary hooks the writer goroutine of internal/serve and
// streams every S-changing batch (the WAL's exact ApplyBatch units) to
// any number of followers; a Follower applies that stream through the
// same deterministic engine, so its MVCC snapshots are byte-identical to
// the primary's at every shipped version.
//
// Catch-up protocol: a follower opens a stream with its last accepted
// epoch and applied version. If the primary still holds the history
// suffix past that version, the stream resumes there; otherwise — or
// for a fresh follower — the primary sends its install base, the image
// of the service's latest checkpoint, as an install frame, followed by
// the suffix. Every checkpoint the service takes (on its
// serve.Options.CheckpointEvery schedule) replaces the base and trims
// the history it covers, so replication keeps no schedule of its own;
// only before the first checkpoint after attach does the primary ask the
// service for one. A follower that falls behind a history trim
// mid-stream is re-installed the same way.
//
// Epoch fencing: the primary stamps its (operator-assigned, monotone
// across handoffs) epoch on every frame. A follower remembers the
// highest epoch it has accepted — durably, next to its store — and
// refuses any frame carrying a lower one without touching its state, so
// a deposed primary that comes back can never corrupt a replica that
// has already followed its successor. Symmetrically, a primary refuses
// a follower reporting a higher epoch than its own.
package repl

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"slices"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/wire"
)

// PrimaryOptions tunes a Primary. It has no fields: the history a
// primary keeps is bounded by the service's checkpoint schedule.
type PrimaryOptions struct{}

// entry is one unit of the replicated history: a shipped batch and the
// version applying it produced.
type entry struct {
	version uint64
	ops     []graph.Op // immutable once stored
}

// capture is a checkpoint image the primary installs fresh or lagging
// followers from.
type capture struct {
	version uint64
	data    []byte
}

// Primary is the log-shipping side: it implements serve.ReplSink and
// fans the history out to follower connections handed to
// ServeReplication. Attach one Primary per service.
type Primary struct {
	svc   *serve.Service
	epoch uint64

	mu       sync.Mutex
	history  []entry
	firstSeq uint64   // sequence number of history[0]
	floor    uint64   // history is complete for versions > floor
	base     *capture // the latest checkpoint; nil until the first one
	closed   bool
	notify   chan struct{} // closed+replaced on every history append
}

// NewPrimary attaches a Primary to a running service under a fixed
// epoch. The attach happens at a writer barrier, so the history is
// complete from the barrier's version onward — a follower resuming at
// or past it never needs an install. Detach with Close.
func NewPrimary(ctx context.Context, svc *serve.Service, epoch uint64, opt PrimaryOptions) (*Primary, error) {
	p := &Primary{
		svc:    svc,
		epoch:  epoch,
		notify: make(chan struct{}),
	}
	err := svc.Barrier(ctx, func() error {
		p.floor = svc.Snapshot().Version()
		p.firstSeq = 1
		svc.SetReplSink(p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Epoch returns the primary's fencing epoch.
func (p *Primary) Epoch() uint64 { return p.epoch }

// Close detaches the sink and wakes every serving stream so it ends.
func (p *Primary) Close() {
	p.svc.SetReplSink(nil)
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.notify)
		p.notify = make(chan struct{})
	}
	p.mu.Unlock()
}

// wake notifies blocked stream senders; callers hold p.mu.
func (p *Primary) wake() {
	close(p.notify)
	p.notify = make(chan struct{})
}

// ReplBatch implements serve.ReplSink: record one applied batch.
func (p *Primary) ReplBatch(ops []graph.Op, version uint64) {
	// Copy: ops aliases the writer's reusable buffer.
	ops = slices.Clone(ops)
	p.mu.Lock()
	p.history = append(p.history, entry{version: version, ops: ops})
	p.wake()
	p.mu.Unlock()
}

// ReplCheckpoint implements serve.ReplSink: make a checkpoint's image
// the install base and trim the history the base covers.
func (p *Primary) ReplCheckpoint(version uint64, image []byte) {
	p.mu.Lock()
	p.base = &capture{version: version, data: image}
	p.trimLocked()
	p.mu.Unlock()
}

// trimLocked drops every batch the base capture covers: those at or
// below the base version, whose effect an installed follower already
// has.
func (p *Primary) trimLocked() {
	drop := p.seekLocked(p.base.version) - p.firstSeq
	if drop > 0 {
		p.history = append([]entry(nil), p.history[drop:]...)
		p.firstSeq += uint64(drop)
	}
	if p.base.version > p.floor {
		p.floor = p.base.version
	}
}

// seekLocked returns the sequence number of the first batch a follower
// positioned at version still needs: the first past it.
func (p *Primary) seekLocked(version uint64) uint64 {
	for i, e := range p.history {
		if e.version > version {
			return p.firstSeq + uint64(i)
		}
	}
	return p.firstSeq + uint64(len(p.history))
}

// ensureBase makes sure an install base exists. Every checkpoint the
// service takes sets one, so only before the first checkpoint after
// attach does it ask the service for one. p.mu must not be held: the
// capture re-enters ReplCheckpoint. Once set, the base is replaced but
// never cleared.
func (p *Primary) ensureBase(ctx context.Context) error {
	p.mu.Lock()
	has := p.base != nil
	p.mu.Unlock()
	if has {
		return nil
	}
	if _, _, err := p.svc.Checkpoint(ctx); err != nil {
		return err
	}
	p.mu.Lock()
	has = p.base != nil
	p.mu.Unlock()
	if !has {
		return errors.New("repl: primary detached from its service")
	}
	return nil
}

// ServeReplication runs the primary side of one replication stream on a
// connection whose last decoded request was req (a replicate request).
// It matches framesrv.ReplHandler: the frame server dispatches here and
// the connection is ours until we return. done ends the stream on
// server shutdown.
func (p *Primary) ServeReplication(conn net.Conn, bw *bufio.Writer, req *wire.Frame, done <-chan struct{}) {
	var scratch []byte
	// Handshake fence: a follower that has accepted a higher epoch has
	// followed a newer primary — this one must not feed it anything.
	if req.Epoch > p.epoch {
		scratch = wire.AppendErrorFrame(scratch, http.StatusConflict,
			fmt.Sprintf("primary epoch %d is behind follower epoch %d", p.epoch, req.Epoch))
		bw.Write(scratch)
		bw.Flush()
		return
	}

	// The serving loop stopped reading; a watchdog owns the read side so
	// a follower hangup ends the stream promptly (followers send nothing
	// after the handshake).
	conn.SetReadDeadline(time.Time{})
	gone := make(chan struct{})
	go func() {
		var one [1]byte
		conn.Read(one[:])
		close(gone)
	}()
	// Barriers taken for installs must not outlive the connection.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-gone:
		case <-done:
		case <-ctx.Done():
		}
		cancel()
	}()

	// Position the stream: resume from the follower's version when the
	// retained history reaches back that far, else checkpoint-install.
	var seq uint64
	cur := p.svc.Snapshot().Version()
	p.mu.Lock()
	resume := req.HaveState && req.Epoch == p.epoch &&
		req.Version >= p.floor && req.Version <= cur
	if resume {
		seq = p.seekLocked(req.Version)
		p.mu.Unlock()
	} else {
		p.mu.Unlock()
		if err := p.ensureBase(ctx); err != nil {
			scratch = wire.AppendErrorFrame(scratch, http.StatusServiceUnavailable,
				fmt.Sprintf("checkpoint capture failed: %v", err))
			bw.Write(scratch)
			bw.Flush()
			return
		}
		p.mu.Lock()
		base := p.base
		seq = p.seekLocked(base.version)
		p.mu.Unlock()
		scratch = wire.AppendReplCheckpointFrame(scratch[:0], p.epoch, base.version, base.data)
		if _, err := bw.Write(scratch); err != nil {
			return
		}
		if bw.Flush() != nil {
			return
		}
	}

	// Send loop: drain everything the history holds past seq, then block
	// for the next append.
	var pending []entry
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return
		}
		if seq < p.firstSeq {
			// A trim passed us by; everything retained is past the base, so
			// re-install and continue from the history's start.
			base := p.base
			seq = p.firstSeq
			p.mu.Unlock()
			scratch = wire.AppendReplCheckpointFrame(scratch[:0], p.epoch, base.version, base.data)
			if _, err := bw.Write(scratch); err != nil {
				return
			}
			if bw.Flush() != nil {
				return
			}
			continue
		}
		pending = append(pending[:0], p.history[seq-p.firstSeq:]...)
		seq += uint64(len(pending))
		ch := p.notify
		p.mu.Unlock()
		if len(pending) > 0 {
			scratch = scratch[:0]
			for _, e := range pending {
				scratch = wire.AppendReplBatchFrame(scratch, p.epoch, e.version, e.ops)
			}
			if _, err := bw.Write(scratch); err != nil {
				return
			}
			if bw.Flush() != nil {
				return
			}
			continue
		}
		select {
		case <-ch:
		case <-gone:
			return
		case <-done:
			return
		}
	}
}
