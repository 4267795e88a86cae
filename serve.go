package dkclique

import (
	"context"

	"repro/internal/dynamic"
	"repro/internal/serve"
	"repro/internal/wal"
)

// ResultSnapshot is an immutable point-in-time view of a maintained
// disjoint k-clique set: the cliques, a per-node membership index, the
// graph's node/edge counts and a version counter. Snapshots are published
// by Service (and by the dynamic engine underneath) after every applied
// update; once obtained, a snapshot never changes — readers may hold it
// indefinitely and queries on it are wait-free and allocation-free.
type ResultSnapshot = dynamic.Snapshot

// ServiceOptions tunes NewService and OpenService; the zero value picks
// sensible defaults (GOMAXPROCS workers, queue capacity 1024, batch cap
// 4096, in-memory only). Setting Dir makes the service durable: updates
// are written ahead to a log before application and the engine state is
// checkpointed every CheckpointEvery applied ops and on Close, so
// OpenService can rebuild the exact pre-crash state.
type ServiceOptions = serve.Options

// FsyncPolicy selects when WAL appends of a durable service reach stable
// storage: FsyncEveryBatch (the default) syncs per applied batch,
// FsyncNone leaves it to the OS but still syncs on Flush and at
// checkpoints — under both policies a returned Flush means durable.
type FsyncPolicy = wal.SyncPolicy

const (
	FsyncEveryBatch FsyncPolicy = wal.SyncEveryBatch
	FsyncNone       FsyncPolicy = wal.SyncNone
)

// ServiceStats counts service activity: ops enqueued, applied and
// changed, writer batches, and completed flushes.
type ServiceStats = serve.Stats

// ErrServiceClosed is returned by Enqueue and Flush after Close.
var ErrServiceClosed = serve.ErrClosed

// Service serves a continuously updated disjoint k-clique set to
// concurrent readers. It owns a dynamic maintainer behind a single writer
// goroutine that coalesces a queued update stream into batched engine
// calls, while any number of reader goroutines query the latest published
// ResultSnapshot — lock-free and without blocking on the writer. This is
// the serving-layer counterpart of Dynamic, whose methods assume one
// caller at a time.
//
//	svc, _ := dkclique.NewService(g, 4, res.Cliques, dkclique.ServiceOptions{})
//	defer svc.Close()
//	svc.Enqueue(ctx, dkclique.Update{Insert: true, U: 3, V: 9})
//	svc.Flush(ctx)                  // wait for application
//	snap := svc.Snapshot()          // immutable view, any goroutine
//	fmt.Println(snap.Size(), snap.CliqueOf(3))
type Service struct {
	s *serve.Service
}

// NewService builds a serving layer over a starting graph and an initial
// clique set (normally the Cliques field of a static Find result; nil is
// completed greedily) and starts the writer goroutine. Close must be
// called to stop it.
func NewService(g *Graph, k int, initial [][]int32, opt ServiceOptions) (*Service, error) {
	s, err := serve.New(g.g, k, initial, opt)
	if err != nil {
		return nil, err
	}
	return &Service{s: s}, nil
}

// OpenService resumes a durable service from the store a previous
// NewService(…, ServiceOptions{Dir: dir}) run left behind: it loads the
// latest checkpoint, replays the write-ahead-log suffix, and serves the
// reconstructed state — byte-identical to the pre-shutdown (or pre-crash)
// snapshot for every flushed update, including the version counter. The
// dir argument wins over opt.Dir; the remaining options tune the resumed
// service as in NewService.
func OpenService(dir string, opt ServiceOptions) (*Service, error) {
	s, err := serve.Open(dir, opt)
	if err != nil {
		return nil, err
	}
	return &Service{s: s}, nil
}

// StoreExists reports whether dir holds a durable service store (so
// callers can choose between OpenService and NewService at boot).
func StoreExists(dir string) bool { return serve.StoreExists(dir) }

// Enqueue queues edge updates for the writer and returns once accepted
// (not yet applied — Flush waits for application). It blocks while the
// queue is full, until the context is cancelled or the service closes.
// Self-loops and out-of-range node ids are rejected with an error before
// anything is accepted.
func (s *Service) Enqueue(ctx context.Context, ops ...Update) error {
	return s.s.Enqueue(ctx, ops...)
}

// Flush blocks until every update enqueued before the call has been
// applied, the context is cancelled, or the service closes. On a durable
// service it also waits for the WAL fsync covering those updates, so a
// nil return means they survive a crash.
func (s *Service) Flush(ctx context.Context) error { return s.s.Flush(ctx) }

// Close stops the writer after draining the queue. Later Enqueue/Flush
// calls return ErrServiceClosed; reads keep answering from the last
// snapshot. Idempotent.
func (s *Service) Close() error { return s.s.Close() }

// Snapshot returns the latest published snapshot: one atomic load, zero
// allocations, never blocked by the writer.
func (s *Service) Snapshot() *ResultSnapshot { return s.s.Snapshot() }

// Size returns the current number of maintained cliques.
func (s *Service) Size() int { return s.s.Size() }

// CliqueOf returns the sorted members of the clique containing u in the
// latest snapshot, or nil if u is free or out of range. The slice is
// shared with the snapshot and must not be modified.
func (s *Service) CliqueOf(u int32) []int32 { return s.s.CliqueOf(u) }

// Contains reports whether u is covered by the latest snapshot.
func (s *Service) Contains(u int32) bool { return s.s.Contains(u) }

// K returns the clique size.
func (s *Service) K() int { return s.s.K() }

// Stats returns the service's activity counters; the engine's own
// counters travel with each snapshot (Snapshot().Stats()).
func (s *Service) Stats() ServiceStats { return s.s.Stats() }

// Published returns a channel that is closed the next time the writer
// publishes a snapshot (or the service stops). Each call returns the
// current-generation channel: grab it before loading Snapshot, and a
// publish racing between the two calls closes the channel you already
// hold — no notification is ever missed. After Close, every call
// returns the same already-closed channel, so waiters wake instead of
// hanging. Used by push consumers (the TCP delta stream) to wait for
// changes without polling.
func (s *Service) Published() <-chan struct{} { return s.s.Published() }

// Err returns the sticky durability error that fail-stopped a durable
// service (a WAL append or checkpoint failure), or nil. Once set, no
// further update is applied and Enqueue/Flush/Close return it; reads keep
// answering from the last applied snapshot. Always nil for in-memory
// services.
func (s *Service) Err() error { return s.s.Err() }
