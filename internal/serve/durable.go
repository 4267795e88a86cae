package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"syscall"

	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/wal"
)

// Durable store. When Options.Dir is set, the service fronts its
// in-memory engine with a write-ahead log and periodic checkpoints so a
// crash or restart loses nothing that was flushed:
//
//   - The writer goroutine appends every drained batch to the WAL
//     *before* handing it to ApplyBatch; under wal.SyncEveryBatch the
//     append is covered by an fsync before its ops are acked, under
//     wal.SyncNone the sync is deferred to the next Flush (so Flush
//     returning still means "durable"). The fsyncs run on the dedicated
//     group-commit syncer so applying overlaps syncing (see pipeline.go).
//   - Every CheckpointEvery applied ops — and on Close — the engine state
//     is checkpointed: the checkpoint is written to a temp file, fsynced,
//     atomically renamed over checkpoint.dkc, the directory synced, and a
//     fresh WAL generation started; superseded generations' logs are then
//     deleted. The writer captures the image in memory and the installer
//     writes it in the background, so the writer only stalls for the
//     capture; the WAL generation still rolls at the capture point, which
//     is what lets recovery find the boundary. The same in-memory image
//     goes to an attached replication sink, which installs followers
//     from it. Close's final checkpoint streams straight to the file
//     instead and starts no new generation.
//   - Open loads the checkpoint, replays the matching WAL generation's
//     intact record prefix through ApplyBatch (a torn tail from a crash
//     mid-append is truncated away), then walks any newer generations a
//     crashed-in-flight install left behind and resumes appending to the
//     newest one. Replay is byte-identical to the live engine because
//     the engine's decisions depend only on its graph and S (see
//     Service.checkpoint).
//
// Store layout inside Dir:
//
//	checkpoint.dkc   store header (magic, WAL generation) + engine checkpoint
//	wal-<gen>.log    the WAL covering updates applied since that checkpoint
//	                 (during a background install, wal-<gen+1>.log already
//	                 collects updates past the captured-but-uninstalled one)
//
// A WAL failure fail-stops the service: the op that could not be logged is
// not applied, the error sticks, and every later Enqueue/Flush/Close
// returns it — an un-logged mutation must never be acked.

// storeMagic heads checkpoint.dkc; the trailing digit is the layout
// version.
var storeMagic = [8]byte{'D', 'K', 'C', 'Q', 'S', 'R', 'V', '1'}

// checkpointName is the checkpoint file inside a store directory.
const checkpointName = "checkpoint.dkc"

// storeHdrSize is the checkpoint file's header: magic + WAL generation.
const storeHdrSize = 16

// durable is the writer-owned durability state of a Service.
type durable struct {
	dir  string
	log  *wal.Log
	lock *os.File // flock-held LOCK file; exclusivity for the store
	gen  int64

	// chunks is the writer's scratch for vectored group appends.
	chunks [][]graph.Op
	// ckptBuf is the reusable checkpoint capture buffer (store header +
	// engine image). It is handed to the installer by reference — both
	// sides only read it — and reused by the next capture after the
	// install is drained. A capture whose image a sink or a caller takes
	// drops it instead, since they may keep the image.
	ckptBuf []byte

	// sync and ckpt are the pipeline goroutines (pipeline.go).
	sync *groupSyncer
	ckpt *installer
}

// startPipeline launches the group-commit syncer and the background
// checkpoint installer. Called after the Service owns its durable state,
// before the writer starts.
func (d *durable) startPipeline(s *Service, opt Options) {
	d.sync = newGroupSyncer(s, d.log, opt.Fsync == wal.SyncEveryBatch)
	d.ckpt = newInstaller(s)
}

// stopPipeline winds both pipeline goroutines down: the syncer works off
// (or error-acks) every commit already requested, the installer finishes
// any in-flight checkpoint. Called once, with the writer already exited.
func (d *durable) stopPipeline() {
	d.sync.stop()
	d.ckpt.stop()
	d.ckpt.wait()
}

// lockStore takes the store's exclusive advisory lock (flock on a LOCK
// file), so two processes can never append to the same WAL or race
// checkpoint renames — the second opener fails fast instead of silently
// corrupting the log mid-file. The lock dies with the process, so a
// crashed owner never wedges recovery.
func lockStore(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("serve: store %s: create lock file: %w", dir, err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("serve: store %s: another process holds this store (close it or choose a different store directory): %w", dir, err)
	}
	return f, nil
}

// unlock releases the store lock; idempotent.
func (d *durable) unlock() {
	if d.lock != nil {
		d.lock.Close()
		d.lock = nil
	}
}

func walPath(dir string, gen int64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%d.log", gen))
}

// StoreExists reports whether dir holds a durable store a previous
// service created (its checkpoint file is present).
func StoreExists(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, checkpointName))
	return err == nil
}

// syncDir fsyncs a directory so a just-renamed or just-created entry
// survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// storeHeader returns the checkpoint file header for a WAL generation.
func storeHeader(gen int64) [storeHdrSize]byte {
	var hdr [storeHdrSize]byte
	copy(hdr[:8], storeMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:], uint64(gen))
	return hdr
}

// installFile atomically installs the content fill writes as dir/name:
// a temp file (name with its extension replaced by .tmp), fsync, rename
// over dir/name, directory sync.
func installFile(dir, name string, fill func(f *os.File) error) error {
	tmp := filepath.Join(dir, strings.TrimSuffix(name, filepath.Ext(name))+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = fill(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return err
	}
	return syncDir(dir)
}

// InstallFile atomically installs data as dir/name, the way every
// checkpoint is installed: after a crash dir/name holds either its old
// content or data. The replication follower persists its fencing epoch
// with it.
func InstallFile(dir, name string, data []byte) error {
	return installFile(dir, name, func(f *os.File) error {
		_, err := f.Write(data)
		return err
	})
}

// ClearStore removes the store in dir, its checkpoint first and then its
// WALs, so a new store can be initialised there. The service that held
// it must be closed. Files outside the store layout, such as a
// follower's fencing epoch, survive.
func ClearStore(dir string) error {
	wals, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return err
	}
	for _, path := range append([]string{filepath.Join(dir, checkpointName)}, wals...) {
		if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
	}
	return nil
}

// writeCheckpointFile atomically installs a checkpoint of eng, tagged
// with the WAL generation that will cover updates applied after it,
// streaming the image straight to the file. Used by initStore and
// finalCheckpoint; periodic checkpoints go through InstallFile with an
// already-captured buffer.
func writeCheckpointFile(dir string, gen int64, eng *dynamic.Engine) error {
	return installFile(dir, checkpointName, func(f *os.File) error {
		// No buffering layer here: WriteCheckpoint buffers internally, and
		// the header write below is one-off.
		hdr := storeHeader(gen)
		if _, err := f.Write(hdr[:]); err != nil {
			return err
		}
		return eng.WriteCheckpoint(f)
	})
}

// initStore creates a fresh durable store for a newly built engine: an
// initial checkpoint (generation 1) plus an empty WAL. It refuses to
// clobber an existing store — Open resumes those.
func initStore(opt Options, eng *dynamic.Engine) (*durable, error) {
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, err
	}
	lock, err := lockStore(opt.Dir)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*durable, error) {
		lock.Close()
		return nil, err
	}
	if StoreExists(opt.Dir) {
		return fail(fmt.Errorf("serve: %s already holds a store; use Open to resume it", opt.Dir))
	}
	const gen = 1
	if err := writeCheckpointFile(opt.Dir, gen, eng); err != nil {
		return fail(err)
	}
	// The log itself is created with SyncNone regardless of policy: serve
	// owns every fsync (on the group-commit syncer) so it can coalesce
	// them and count them.
	lg, err := wal.Create(walPath(opt.Dir, gen), wal.SyncNone)
	if err != nil {
		return fail(err)
	}
	if err := syncDir(opt.Dir); err != nil {
		lg.Close()
		return fail(err)
	}
	return &durable{dir: opt.Dir, log: lg, lock: lock, gen: gen}, nil
}

// Open resumes a durable service from dir: it loads the checkpoint,
// replays the WAL suffix through ApplyBatch to reconstruct the engine
// exactly as it stood when the previous process last logged a batch, and
// starts the writer. Options.Dir is ignored (dir wins); the remaining
// options tune the resumed service as in New.
func Open(dir string, opt Options) (*Service, error) {
	return open(dir, opt, false)
}

// open is Open with the follower flag (see OpenFollower in repl.go);
// the flag must be set before the writer starts.
func open(dir string, opt Options, follower bool) (*Service, error) {
	opt = opt.withDefaults()
	opt.Dir = dir
	lock, err := lockStore(dir)
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			lock.Close()
		}
	}()
	f, err := os.Open(filepath.Join(dir, checkpointName))
	if err != nil {
		return nil, fmt.Errorf("serve: open store: %w", err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("serve: store header: %w", err)
	}
	if magic != storeMagic {
		return nil, fmt.Errorf("serve: %s is not a dkclique store (magic %q)", dir, magic)
	}
	var gen int64
	if err := binary.Read(br, binary.LittleEndian, &gen); err != nil {
		return nil, fmt.Errorf("serve: store header: %w", err)
	}
	if gen < 1 {
		return nil, fmt.Errorf("serve: corrupt store generation %d", gen)
	}
	eng, err := dynamic.LoadCheckpoint(br, opt.Workers)
	if err != nil {
		return nil, fmt.Errorf("serve: load checkpoint: %w", err)
	}
	n := eng.Graph().N()
	recovered := uint64(0)
	replay := func(ops []graph.Op) error {
		for _, op := range ops {
			if !op.Valid(n) {
				return fmt.Errorf("serve: wal op (%d,%d) out of range for %d nodes", op.U, op.V, n)
			}
		}
		eng.ApplyBatch(ops)
		recovered += uint64(len(ops))
		return nil
	}
	ckptGen := gen
	wp := walPath(dir, gen)
	valid, err := wal.Replay(wp, replay)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	// Chain recovery past in-flight checkpoint installs: a durable
	// service rolls to WAL generation g+1 at the in-memory capture and
	// installs checkpoint g+1 in the background, so a crash inside that
	// window leaves checkpoint.dkc one (or, across repeated crashes,
	// several) generations behind the newest log. The generations replay
	// back to back, as the live engine applied them, and the newest takes
	// over as the append target.
	for {
		nwp := walPath(dir, gen+1)
		if _, serr := os.Stat(nwp); serr != nil {
			break
		}
		gen++
		wp = nwp
		valid, err = wal.Replay(wp, replay)
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
	}
	// A crash can land between the checkpoint rename and the creation of
	// its WAL generation; a missing (or headerless) log simply means no
	// updates survived it, so start the generation's log fresh. Resume
	// truncates any torn tail beyond the intact prefix. SyncNone because
	// serve owns the fsyncs (see initStore).
	lg, err := wal.Resume(wp, valid, wal.SyncNone)
	if err != nil {
		return nil, err
	}
	removeStaleWALs(dir, ckptGen, gen)
	s := wrapEngine(eng, opt, follower)
	s.dur = &durable{dir: dir, log: lg, lock: lock, gen: gen}
	// Anchor the checkpoint schedule to the replayed backlog so a service
	// that keeps crashing before its first rollover cannot grow the WAL
	// chain without bound.
	s.sinceCkpt = int(recovered)
	s.recovered.Store(recovered)
	s.dur.startPipeline(s, opt)
	go s.run(opt.MaxBatch)
	ok = true
	return s, nil
}

// removeStaleWALs deletes log files of generations outside [lo, hi] — left
// behind when a crash interrupted a checkpoint's cleanup. Generations in
// the range stay: during a background install, lo is still referenced by
// the on-disk checkpoint while hi collects new appends. Best effort.
func removeStaleWALs(dir string, lo, hi int64) {
	matches, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	for _, m := range matches {
		var g int64
		if _, err := fmt.Sscanf(filepath.Base(m), "wal-%d.log", &g); err != nil {
			continue
		}
		if g < lo || g > hi {
			os.Remove(m)
		}
	}
}

// appendWALGroup logs ops ahead of application: one record per maxBatch
// chunk — mirroring the ApplyBatch chunking — framed into a single
// vectored write. The drain loop logs a whole cycle this way, Replicate
// one shipped batch as one record. Called by the writer goroutine only.
func (s *Service) appendWALGroup(buf []graph.Op, maxBatch int) error {
	d := s.dur
	chunks := d.chunks[:0]
	for off := 0; off < len(buf); off += maxBatch {
		chunks = append(chunks, buf[off:min(off+maxBatch, len(buf))])
	}
	d.chunks = chunks
	nb, err := d.log.AppendGroup(chunks)
	if err != nil {
		return err
	}
	s.walBatches.Add(uint64(len(chunks)))
	s.walBytes.Add(uint64(nb))
	d.sync.noteAppend(len(buf))
	return nil
}

// storeCheckpoint rolls the store over at the current batch boundary:
// drain what must be durable, serialize the engine image into memory,
// roll the WAL generation, and hand the slow install to the background
// goroutine. The writer resumes applying immediately after. It returns
// the captured engine image (the capture minus its store header); keep
// marks an image a sink or a caller takes, so the next capture
// serializes into a fresh buffer. Called from Service.checkpoint only,
// which accounts the writer's stall.
func (s *Service) storeCheckpoint(keep bool) ([]byte, error) {
	d := s.dur
	// Exactly one install in flight: absorb the previous one first (a
	// fast no-op in the steady state — CheckpointEvery ops of apply time
	// dwarf one image install).
	if err := d.ckpt.wait(); err != nil {
		return nil, err
	}
	// The old generation must be complete and durable before the switch:
	// setLog below retargets the syncer, so no commit covering the old
	// generation may still be pending then.
	if err := d.sync.drain(); err != nil {
		return nil, err
	}
	gen := d.gen + 1
	buf := bytes.NewBuffer(d.ckptBuf[:0])
	hdr := storeHeader(gen)
	buf.Write(hdr[:])
	if err := s.eng.WriteCheckpoint(buf); err != nil {
		return nil, err
	}
	d.ckptBuf = buf.Bytes()
	lg, err := wal.Create(walPath(d.dir, gen), wal.SyncNone)
	if err != nil {
		return nil, err
	}
	// The new generation's directory entry must be durable before any op
	// logged to it is acked — and before the capture may install, since
	// recovery discovers the capture boundary by this file's existence.
	if err := syncDir(d.dir); err != nil {
		lg.Close()
		return nil, err
	}
	oldLog := d.log
	d.log = lg
	d.sync.setLog(lg)
	d.gen = gen
	// Counted at capture: this is when the boundary lands in the history,
	// whether or not the install has hit the disk yet.
	s.checkpoints.Add(1)
	d.ckpt.start(installReq{data: d.ckptBuf, gen: gen, oldLog: oldLog, done: make(chan error, 1)})
	img := d.ckptBuf[storeHdrSize:]
	if keep {
		d.ckptBuf = nil
	}
	return img, nil
}

// installCheckpoint is the background half of a periodic checkpoint:
// close the superseded log, install the captured image atomically, and
// drop WAL generations the install made redundant. Runs on the installer
// goroutine; errors are latched by the caller.
func (s *Service) installCheckpoint(req installReq) error {
	// The old generation gets no further appends (the writer switched
	// before handing us the request) and was drained durable; closing it
	// first frees the descriptor whatever happens below. Its file stays
	// until the install succeeds — recovery still needs it otherwise.
	if err := req.oldLog.Close(); err != nil {
		return err
	}
	if testSkipInstall.Load() {
		return nil
	}
	if err := InstallFile(s.dur.dir, checkpointName, req.data); err != nil {
		return err
	}
	removeStaleWALs(s.dur.dir, req.gen, req.gen)
	return nil
}

// finalCheckpoint writes Close's checkpoint straight to the store and
// closes and deletes the log it supersedes. It starts no new WAL
// generation: the checkpoint alone carries the whole state, so recovery
// replays nothing. Called from Close with the writer exited and the
// pipeline drained and stopped.
func (s *Service) finalCheckpoint() error {
	gen := s.dur.gen + 1
	if err := writeCheckpointFile(s.dur.dir, gen, s.eng); err != nil {
		return err
	}
	s.checkpoints.Add(1)
	// Drop the reference before closing so an error below never leaves a
	// closed log behind for Close to re-close.
	lg := s.dur.log
	s.dur.log = nil
	if err := lg.Close(); err != nil {
		return err
	}
	removeStaleWALs(s.dur.dir, gen, gen)
	return nil
}
