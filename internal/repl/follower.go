package repl

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/internal/workload"
)

// FollowerOptions configures a Follower; zero values pick defaults.
type FollowerOptions struct {
	// Addr is the primary's frame-transport address.
	Addr string
	// Dir, when non-empty, gives the follower its own durable store: the
	// installed checkpoint, a WAL of the shipped batches, and the fencing
	// epoch all persist there, so a restarted follower resumes the stream
	// from its last applied version instead of re-installing.
	Dir string
	// Workers bounds the follower engine's parallelism (serve.Options).
	Workers int
	// Fsync is the follower store's WAL sync policy. The default,
	// SyncEveryBatch, syncs every shipped batch. SyncNone defers syncs
	// to the follower's own checkpoints, taken on the
	// serve.Options.CheckpointEvery schedule; a crash can then lose the
	// tail past the last one, which the primary re-ships, or replaces
	// with an install, on reconnect.
	Fsync wal.SyncPolicy
	// Dial connects to the primary; nil uses a TCP dial bounded by
	// workload.DialTimeout. Fault-injection tests wrap it.
	Dial func(ctx context.Context, addr string) (net.Conn, error)
	// BackoffMin/BackoffMax bound the exponential reconnect backoff
	// (jittered ±50%). Defaults 50ms and 3s.
	BackoffMin, BackoffMax time.Duration
	// LagBound is the replication lag (stream head version minus applied
	// version) above which Ready reports the follower unready. Default
	// 1024.
	LagBound uint64
	// Logf, when non-nil, receives connection lifecycle messages.
	Logf func(format string, args ...any)
}

func (o FollowerOptions) withDefaults() FollowerOptions {
	if o.Dial == nil {
		o.Dial = func(ctx context.Context, addr string) (net.Conn, error) {
			d := net.Dialer{Timeout: workload.DialTimeout}
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	if o.BackoffMin <= 0 {
		o.BackoffMin = 50 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 3 * time.Second
	}
	if o.LagBound == 0 {
		o.LagBound = 1024
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// epochName is the follower's persisted fencing epoch inside Dir.
const epochName = "EPOCH"

// FollowerStatus is a point-in-time view of a follower's replication
// state.
type FollowerStatus struct {
	// Installed reports whether the follower holds engine state.
	Installed bool
	// Connected reports an established, handshaked stream.
	Connected bool
	// Epoch is the highest primary epoch accepted so far.
	Epoch uint64
	// Version is the last applied snapshot version.
	Version uint64
	// StreamVersion is the highest version seen on the stream (applied
	// or not); StreamVersion - Version is the local lag.
	StreamVersion uint64
	// Installs counts checkpoint installs (including the first).
	Installs uint64
	// Refusals counts lower-epoch frames refused by the fence.
	Refusals uint64
	// Reconnects counts dial attempts after the first.
	Reconnects uint64
}

// Follower consumes a primary's replication stream into a local
// follower-mode serve.Service, reconnecting with backoff and resuming
// (or re-installing) as needed. Run drives it; readers serve through
// Front, which follows the live service across reinstalls.
type Follower struct {
	opt FollowerOptions

	svc atomic.Pointer[serve.Service]

	installed chan struct{}
	instOnce  sync.Once

	mu         sync.Mutex
	epoch      uint64
	version    uint64
	stream     uint64
	connected  bool
	stateBad   bool // force a full install on the next handshake
	installs   uint64
	refusals   uint64
	reconnects uint64
	lastErr    error

	rng *rand.Rand
}

// errEpochFenced marks a refused lower-epoch frame; it forces a
// disconnect without touching follower state.
var errEpochFenced = errors.New("repl: frame from a lower (deposed) primary epoch refused")

// NewFollower builds a follower. With a Dir that already holds a store
// (a previous follower's), the engine and epoch resume from it;
// otherwise the first connection installs a checkpoint. Call Run to
// start streaming.
func NewFollower(opt FollowerOptions) (*Follower, error) {
	opt = opt.withDefaults()
	f := &Follower{
		opt:       opt,
		installed: make(chan struct{}),
		rng:       rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	if opt.Dir != "" && serve.StoreExists(opt.Dir) {
		svc, err := serve.OpenFollower(opt.Dir, serve.Options{
			Workers: opt.Workers, Dir: opt.Dir, Fsync: opt.Fsync,
		})
		if err != nil {
			return nil, err
		}
		epoch, err := readEpoch(opt.Dir)
		if err != nil {
			svc.Close()
			return nil, err
		}
		f.epoch = epoch
		f.version = svc.Snapshot().Version()
		f.stream = f.version
		f.svc.Store(svc)
		f.markInstalled()
	}
	return f, nil
}

func (f *Follower) markInstalled() {
	f.instOnce.Do(func() { close(f.installed) })
}

// Service returns the current follower-mode service, or nil before the
// first install. The pointer changes across reinstalls — serve reads
// through Front instead of caching it.
func (f *Follower) Service() *serve.Service { return f.svc.Load() }

// WaitInstalled blocks until the follower holds engine state (resumed
// or installed) or the context expires.
func (f *Follower) WaitInstalled(ctx context.Context) error {
	select {
	case <-f.installed:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Status returns a point-in-time view of the replication state.
func (f *Follower) Status() FollowerStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	return FollowerStatus{
		Installed:     f.svc.Load() != nil,
		Connected:     f.connected,
		Epoch:         f.epoch,
		Version:       f.version,
		StreamVersion: f.stream,
		Installs:      f.installs,
		Refusals:      f.refusals,
		Reconnects:    f.reconnects,
	}
}

// Ready reports nil when the follower can serve fresh reads: state
// installed, stream connected, and lag within the configured bound.
func (f *Follower) Ready() error {
	if f.svc.Load() == nil {
		return errors.New("repl: no state installed yet")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.connected {
		return errors.New("repl: disconnected from primary")
	}
	if lag := f.stream - f.version; lag > f.opt.LagBound {
		return fmt.Errorf("repl: replication lag %d exceeds bound %d", lag, f.opt.LagBound)
	}
	return nil
}

// Run streams from the primary until ctx is cancelled, reconnecting
// with jittered exponential backoff. It returns ctx.Err on exit; the
// follower's service stays up for reads (close it via Close).
func (f *Follower) Run(ctx context.Context) error {
	backoff := f.opt.BackoffMin
	first := true
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if !first {
			f.mu.Lock()
			f.reconnects++
			f.mu.Unlock()
		}
		first = false
		applied, err := f.stream1(ctx)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if err != nil {
			f.mu.Lock()
			f.lastErr = err
			f.mu.Unlock()
			f.opt.Logf("repl follower: %v", err)
		}
		if applied {
			backoff = f.opt.BackoffMin
		}
		// Jitter ±50% so a herd of followers does not reconnect in phase.
		d := time.Duration(float64(backoff) * (0.5 + f.rng.Float64()))
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return ctx.Err()
		}
		if backoff *= 2; backoff > f.opt.BackoffMax {
			backoff = f.opt.BackoffMax
		}
	}
}

// Close shuts the follower's service down (reads stop being served).
// Call after Run has returned.
func (f *Follower) Close() error {
	if svc := f.svc.Load(); svc != nil {
		return svc.Close()
	}
	return nil
}

// stream1 runs one connection: dial, handshake, apply frames until the
// stream breaks. It reports whether any frame was applied (resets the
// backoff) and the terminal error.
func (f *Follower) stream1(ctx context.Context) (applied bool, err error) {
	conn, err := f.opt.Dial(ctx, f.opt.Addr)
	if err != nil {
		return false, fmt.Errorf("dial %s: %w", f.opt.Addr, err)
	}
	defer conn.Close()
	// A cancelled context must unblock the stream read promptly.
	watchCtx, cancelWatch := context.WithCancel(ctx)
	defer cancelWatch()
	go func() {
		<-watchCtx.Done()
		if ctx.Err() != nil {
			conn.Close()
		}
	}()

	defer func() {
		f.mu.Lock()
		f.connected = false
		f.mu.Unlock()
	}()

	c := workload.NewFrameClient(conn)
	f.mu.Lock()
	epoch, version := f.epoch, f.version
	haveState := f.svc.Load() != nil && !f.stateBad
	f.mu.Unlock()
	if !haveState {
		version = 0
	}
	if err := c.SendReplicate(epoch, version, haveState); err != nil {
		return false, fmt.Errorf("handshake: %w", err)
	}
	// Optimistically connected: an up-to-date resume receives nothing
	// until the primary writes again, and that quiet stream is healthy.
	// A rejected handshake comes back as an error frame below and drops
	// the flag again in the deferred cleanup.
	f.mu.Lock()
	f.connected = true
	f.mu.Unlock()
	for {
		fr, err := c.Recv()
		if err != nil {
			return applied, fmt.Errorf("stream: %w", err)
		}
		if err := f.applyFrame(ctx, fr); err != nil {
			return applied, err
		}
		applied = true
	}
}

// applyFrame applies one stream frame: fence first, then install or
// batch. Any error tears the connection down; divergence additionally
// marks the state bad so the next handshake asks for an install.
func (f *Follower) applyFrame(ctx context.Context, fr *wire.Frame) error {
	switch fr.Type {
	case wire.FrameReplCheckpoint, wire.FrameReplBatch:
	default:
		return fmt.Errorf("repl: unexpected frame type %d on replication stream", fr.Type)
	}
	// Epoch fence: refuse lower-epoch frames before ANY state change;
	// accept-and-persist higher epochs before applying anything of
	// theirs, so a crash cannot regress the fence behind applied state.
	f.mu.Lock()
	cur := f.epoch
	f.mu.Unlock()
	if fr.Epoch < cur {
		f.mu.Lock()
		f.refusals++
		f.mu.Unlock()
		return fmt.Errorf("%w: frame epoch %d below accepted %d", errEpochFenced, fr.Epoch, cur)
	}
	if fr.Epoch > cur {
		if f.opt.Dir != "" {
			if err := writeEpoch(f.opt.Dir, fr.Epoch); err != nil {
				return fmt.Errorf("persist epoch: %w", err)
			}
		}
		f.mu.Lock()
		f.epoch = fr.Epoch
		f.mu.Unlock()
	}

	f.mu.Lock()
	f.stream = fr.Version
	f.mu.Unlock()

	if fr.Type == wire.FrameReplCheckpoint {
		return f.install(fr)
	}
	svc := f.svc.Load()
	if svc == nil {
		return errors.New("repl: batch before any checkpoint install")
	}
	ver, err := svc.Replicate(ctx, fr.ReplOps)
	if err != nil {
		return fmt.Errorf("apply batch @%d: %w", fr.Version, err)
	}
	if ver != fr.Version {
		f.markBad()
		return fmt.Errorf("repl: divergence: batch promised version %d, engine produced %d", fr.Version, ver)
	}
	f.mu.Lock()
	f.version = ver
	f.mu.Unlock()
	return nil
}

func (f *Follower) markBad() {
	f.mu.Lock()
	f.stateBad = true
	f.mu.Unlock()
}

// install replaces the follower's engine with the shipped checkpoint.
// The old service keeps answering reads until the new one is up; a
// durable follower's store is cleared and re-initialised from the new
// image so crash recovery follows the new lineage. Once the old service
// is closed the state is bad until the install succeeds, so a failed
// install never resumes the stream on a closed engine.
func (f *Follower) install(fr *wire.Frame) error {
	old := f.svc.Load()
	if old != nil {
		if err := old.Close(); err != nil {
			f.opt.Logf("repl follower: closing replaced service: %v", err)
		}
		f.markBad()
	}
	opt := serve.Options{Workers: f.opt.Workers, Fsync: f.opt.Fsync}
	if f.opt.Dir != "" {
		if err := clearStore(f.opt.Dir); err != nil {
			return fmt.Errorf("clear store for install: %w", err)
		}
		opt.Dir = f.opt.Dir
	}
	svc, err := serve.NewFollowerFromCheckpoint(bytes.NewReader(fr.Checkpoint), opt)
	if err != nil {
		return fmt.Errorf("install checkpoint @%d: %w", fr.Version, err)
	}
	if got := svc.Snapshot().Version(); got != fr.Version {
		svc.Close()
		return fmt.Errorf("repl: installed checkpoint at version %d, frame promised %d", got, fr.Version)
	}
	f.svc.Store(svc)
	f.mu.Lock()
	f.version = fr.Version
	f.stateBad = false
	f.installs++
	f.mu.Unlock()
	f.markInstalled()
	return nil
}

// clearStore removes a follower store's checkpoint and WALs (the
// service holding them must be closed) so a fresh install can
// re-initialise the directory. The EPOCH file survives — the fence
// outlives any one lineage.
func clearStore(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := removeIfExists(filepath.Join(dir, "checkpoint.dkc")); err != nil {
		return err
	}
	matches, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return err
	}
	for _, m := range matches {
		if err := removeIfExists(m); err != nil {
			return err
		}
	}
	return nil
}

func removeIfExists(path string) error {
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}

// readEpoch loads the persisted fencing epoch; a missing file is epoch
// 0 (accept anything).
func readEpoch(dir string) (uint64, error) {
	b, err := os.ReadFile(filepath.Join(dir, epochName))
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	if len(b) != 8 {
		return 0, fmt.Errorf("repl: epoch file holds %d bytes, want 8", len(b))
	}
	return binary.LittleEndian.Uint64(b), nil
}

// writeEpoch durably persists the fencing epoch (temp file, fsync,
// rename, directory sync — same discipline as the store checkpoint).
func writeEpoch(dir string, epoch uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp := filepath.Join(dir, epochName+".tmp")
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], epoch)
	fd, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, werr := fd.Write(buf[:])
	if werr == nil {
		werr = fd.Sync()
	}
	if cerr := fd.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return werr
	}
	if err := os.Rename(tmp, filepath.Join(dir, epochName)); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	return serr
}

// Front is a stable serving surface over a follower: it satisfies both
// the frame server's and the HTTP handler's Service interfaces and
// follows the live engine across reinstalls. Valid once WaitInstalled
// has returned.
type Front struct{ f *Follower }

// Front returns the follower's serving surface.
func (f *Follower) Front() *Front { return &Front{f} }

// Snapshot returns the latest applied snapshot.
func (fr *Front) Snapshot() *dynamic.Snapshot { return fr.f.svc.Load().Snapshot() }

// Stats returns the current service's counters.
func (fr *Front) Stats() serve.Stats { return fr.f.svc.Load().Stats() }

// K returns the clique size.
func (fr *Front) K() int { return fr.f.svc.Load().K() }

// Published returns the current service's publication channel. Across a
// reinstall the old service's channel stays closed, which ends delta
// subscriptions — clients resubscribe and land on the new engine.
func (fr *Front) Published() <-chan struct{} { return fr.f.svc.Load().Published() }

// Enqueue refuses local writes with serve.ErrNotPrimary.
func (fr *Front) Enqueue(ctx context.Context, ops ...graph.Op) error {
	return fr.f.svc.Load().Enqueue(ctx, ops...)
}

// Flush delegates to the current service.
func (fr *Front) Flush(ctx context.Context) error { return fr.f.svc.Load().Flush(ctx) }
