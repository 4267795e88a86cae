// Package wal implements the write-ahead log fronting the serving
// layer's in-memory engine: an append-only file of length-prefixed,
// CRC-checked records, one record per applied engine batch, so a crash
// loses nothing that was flushed and recovery replays exactly the batch
// sequence the writer executed.
//
// File layout:
//
//	[8]  magic "DKCQWAL1"
//	then records, back to back:
//	[4]  payload length L (little-endian uint32)
//	[4]  CRC-32 (IEEE) of the payload
//	[L]  payload: [4] op count C, then C × ([1] insert flag, [4] u, [4] v),
//	     the op list of graph.AppendOps
//
// Replay tolerates a truncated or corrupted tail — the expected shape of
// a crash mid-append: decoding stops at the first record whose header is
// incomplete, whose payload is short, or whose CRC does not match, and
// the byte offset of the intact prefix is returned so the caller can
// truncate the tail and resume appending. Corruption *before* the tail
// cannot be distinguished from a torn tail by the log alone; the caller's
// checkpoint/replay protocol bounds how much a mid-file flip can silently
// drop to the ops after it, and those were never acked durable by a sync
// that their own record did not precede.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync/atomic"

	"repro/internal/graph"
)

// magic identifies a WAL file; the trailing digit is the format version.
var magic = [8]byte{'D', 'K', 'C', 'Q', 'W', 'A', 'L', '1'}

const (
	// HeaderSize is the fixed file header length; a log shorter than this
	// has no intact prefix and must be recreated rather than resumed.
	HeaderSize = 8
	recHdrSize = 8 // payload length + CRC

	// maxRecordPayload bounds a single record so a corrupted length prefix
	// cannot demand an absurd allocation or swallow the rest of the file.
	maxRecordPayload = 1 << 28
)

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy int

const (
	// SyncEveryBatch fsyncs after every append: each acked batch survives
	// a machine crash. The default, and the slowest.
	SyncEveryBatch SyncPolicy = iota
	// SyncNone never fsyncs on append; the OS flushes at its leisure.
	// Explicit Sync calls (the serving layer issues one per Flush and on
	// Close) still force the data down, so "flushed implies durable"
	// holds under both policies — SyncNone only weakens un-flushed ops.
	SyncNone
)

// File is the file-like handle a Log appends to — the subset of *os.File
// the log needs. Production logs always sit on real files; tests swap in
// wrappers through WrapFile to inject write/fsync faults and observe
// synced offsets (see FaultFile).
type File interface {
	io.Writer
	Sync() error
	Close() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
}

// WrapFile, when non-nil, wraps every file Create and Resume open. It is
// a test seam for fault injection only — production code must leave it
// nil. Set it before any log is opened and restore it after; it is read
// without synchronization.
var WrapFile func(path string, f *os.File) File

func openedFile(path string, f *os.File) File {
	if WrapFile != nil {
		return WrapFile(path, f)
	}
	return f
}

// Log is an open write-ahead log positioned for appending.
//
// Concurrency: appends (AppendGroup) belong to a single owner —
// the serving layer's writer goroutine. Sync may be called by ONE other
// goroutine concurrently with appends; that is the group-commit split
// (the writer appends batch N+1 while a background syncer fsyncs batch
// N). An fsync only promises durability for bytes written before it
// started, which is exactly what the size/synced pair below tracks:
// bytes racing into the file during an fsync are covered only by the
// next one. Dirty/Synced/Size are safe from any goroutine.
type Log struct {
	f      File
	policy SyncPolicy
	size   atomic.Int64 // bytes appended (header + records)
	synced atomic.Int64 // bytes covered by a completed fsync
	syncs  atomic.Uint64
	buf    []byte
}

// Create creates (or truncates) a log at path, writes the header and
// syncs it, so even an immediately-crashed store leaves a replayable
// empty log behind.
func Create(path string, policy SyncPolicy) (*Log, error) {
	osf, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	f := openedFile(path, osf)
	if _, err := f.Write(magic[:]); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	l := &Log{f: f, policy: policy}
	l.size.Store(HeaderSize)
	l.synced.Store(HeaderSize)
	return l, nil
}

// Resume opens an existing log for appending after a replay reported
// valid intact bytes: the torn tail beyond valid is truncated away first,
// so later records never follow garbage. A valid below HeaderSize means
// not even the header survived — the file is recreated from scratch.
func Resume(path string, valid int64, policy SyncPolicy) (*Log, error) {
	if valid < HeaderSize {
		return Create(path, policy)
	}
	osf, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	f := openedFile(path, osf)
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	l := &Log{f: f, policy: policy}
	l.size.Store(valid)
	l.synced.Store(valid)
	return l, nil
}

// grow makes sure the scratch buffer can hold need more bytes without a
// mid-append reallocation: one exact-size grow instead of append's
// incremental doubling, and the grown buffer is reused by every later
// encode — the warm append path allocates nothing (pinned by
// TestAppendZeroAlloc).
func (l *Log) grow(need int) {
	if cap(l.buf)-len(l.buf) < need {
		nb := make([]byte, len(l.buf), len(l.buf)+need)
		copy(nb, l.buf)
		l.buf = nb
	}
}

// encode frames one batch as a record appended to the log's reusable
// scratch buffer, header and payload contiguous, and returns the
// extended buffer.
func (l *Log) encode(b []byte, ops []graph.Op) []byte {
	mark := len(b)
	b = binary.LittleEndian.AppendUint32(b, uint32(graph.OpsSize(len(ops))))
	b = append(b, 0, 0, 0, 0) // CRC placeholder
	b = graph.AppendOps(b, ops)
	binary.LittleEndian.PutUint32(b[mark+4:mark+8], crc32.ChecksumIEEE(b[mark+recHdrSize:]))
	return b
}

// AppendGroup writes one record per batch in a single vectored write:
// every record is framed into the shared scratch, headers and payloads
// back to back, and the whole group reaches the file in one syscall —
// the write-ahead cost of a multi-chunk drain cycle is one write instead
// of one per chunk. Under SyncEveryBatch the group is synced once, which
// is the degenerate (inline) form of group commit. It returns the number
// of bytes appended. An error means none of the group's batches may be
// applied and leaves the log unusable for further appends (the file may
// hold a torn record, which replay tolerates); callers should fail-stop.
func (l *Log) AppendGroup(batches [][]graph.Op) (int, error) {
	need := 0
	for _, ops := range batches {
		payload := graph.OpsSize(len(ops))
		if payload > maxRecordPayload {
			return 0, fmt.Errorf("wal: batch of %d ops exceeds the record bound", len(ops))
		}
		need += recHdrSize + payload
	}
	l.grow(need)
	b := l.buf[:0]
	for _, ops := range batches {
		b = l.encode(b, ops)
	}
	return l.append(b)
}

// append writes an already-framed record group and applies the sync
// policy. b aliases l.buf.
func (l *Log) append(b []byte) (int, error) {
	l.buf = b
	if len(b) == 0 {
		return 0, nil
	}
	if _, err := l.f.Write(b); err != nil {
		return 0, err
	}
	l.size.Add(int64(len(b)))
	if l.policy == SyncEveryBatch {
		if err := l.Sync(); err != nil {
			return 0, err
		}
	}
	return len(b), nil
}

// Sync forces appended records to stable storage. A no-op when nothing
// was appended since the last completed sync. Safe to call from one
// goroutine concurrently with the appender (see the Log doc): bytes
// appended after the fsync starts are not counted as synced and ride the
// next call.
func (l *Log) Sync() error {
	appended := l.size.Load()
	if appended == l.synced.Load() {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.synced.Store(appended)
	l.syncs.Add(1)
	return nil
}

// Close syncs and closes the log.
func (l *Log) Close() error {
	serr := l.Sync()
	cerr := l.f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// Size returns the current file size in bytes (header + appended records).
func (l *Log) Size() int64 { return l.size.Load() }

// Synced returns the byte offset covered by the last completed fsync:
// everything below it survives a machine crash.
func (l *Log) Synced() int64 { return l.synced.Load() }

// Dirty reports whether bytes appended since the last completed fsync
// exist — whether a Sync would actually issue an fsync.
func (l *Log) Dirty() bool { return l.size.Load() != l.synced.Load() }

// Syncs returns the number of completed fsyncs the log has issued.
func (l *Log) Syncs() uint64 { return l.syncs.Load() }

// Replay reads the log at path and calls fn once per intact record, in
// append order, with the decoded batch. It returns the byte offset of the
// intact prefix: a torn or corrupted tail ends the replay without error,
// so the returned offset is what Resume should truncate to. A missing
// file surfaces as an fs.ErrNotExist error; an error from fn aborts the
// replay and is returned as is.
func Replay(path string, fn func(ops []graph.Op) error) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return decode(data, fn)
}

// decode is the pure replay core over an in-memory image (exercised
// directly by FuzzWALDecode). It returns the length of the intact prefix.
func decode(data []byte, fn func(ops []graph.Op) error) (int64, error) {
	if len(data) < HeaderSize || [8]byte(data[:HeaderSize]) != magic {
		return 0, nil
	}
	off := int64(HeaderSize)
	var ops []graph.Op
	for {
		rest := data[off:]
		if len(rest) < recHdrSize {
			return off, nil
		}
		payload := int64(binary.LittleEndian.Uint32(rest[0:4]))
		if payload > maxRecordPayload || int64(len(rest)) < recHdrSize+payload {
			return off, nil
		}
		body := rest[recHdrSize : recHdrSize+payload]
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(rest[4:8]) {
			return off, nil
		}
		// The writer only logs validated edge ops; a payload that does not
		// decode as such is corruption that happened to pass the CRC. Treat
		// it like a torn tail rather than handing garbage to the engine.
		var err error
		if ops, err = graph.DecodeOps(ops[:0], body); err != nil {
			return off, nil
		}
		if err = fn(ops); err != nil {
			return off, err
		}
		off += recHdrSize + payload
	}
}
