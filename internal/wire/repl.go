package wire

import (
	"encoding/binary"
	"fmt"

	"repro/internal/graph"
)

// Replication frames: the log-shipping protocol of internal/repl rides
// the same frame transport as the read protocol. A follower opens a
// connection with one FrameReqReplicate request (carrying the epoch and
// version it last applied); the primary answers with an optional
// checkpoint install followed by a continuous stream of batch frames.
// Every primary→follower frame carries the primary's epoch so a
// follower can fence off a deposed primary on any frame, not just the
// handshake.
//
// Payloads (little-endian, like everything else in this package):
//
//	replckpt:     [8] epoch, [8] version, then the opaque engine
//	              checkpoint bytes (dynamic.WriteCheckpoint output); the
//	              follower rebuilds its engine from them and is then
//	              positioned exactly at version
//	replbatch:    [8] epoch, [8] version (the version applying the batch
//	              produces), then the op list of graph.AppendOps, [4] op
//	              count C, C × ([1] insert flag, [4] u, [4] v) — the
//	              exact op sequence of one primary ApplyBatch call; the
//	              follower must apply it as one batch, not coalesce or
//	              split it
//	reqreplicate: [8] last epoch, [8] last applied version,
//	              [1] haveState flag (0 = fresh follower wanting a full
//	              install, 1 = resume from version if the primary still
//	              holds the suffix)
const (
	// FrameReplCheckpoint carries a full engine checkpoint install.
	FrameReplCheckpoint FrameType = 7
	// FrameReplBatch carries one shipped WAL batch.
	FrameReplBatch FrameType = 8
	// Type 9 stays unassigned: older primaries sent checkpoint markers
	// with it, and Decode must reject those as an unknown type.
	// FrameReqReplicate opens a replication stream (request direction).
	FrameReqReplicate FrameType = 21
)

// AppendReplCheckpointFrame appends a checkpoint-install frame. data is
// the opaque engine checkpoint the follower loads; version is the
// snapshot version the checkpoint is at.
func AppendReplCheckpointFrame(b []byte, epoch, version uint64, data []byte) []byte {
	b, mark := beginFrame(b, FrameReplCheckpoint)
	b = binary.LittleEndian.AppendUint64(b, epoch)
	b = binary.LittleEndian.AppendUint64(b, version)
	b = append(b, data...)
	return endFrame(b, mark)
}

// AppendReplBatchFrame appends one shipped batch; version is the
// snapshot version the primary's engine reached by applying it.
func AppendReplBatchFrame(b []byte, epoch, version uint64, ops []graph.Op) []byte {
	b, mark := beginFrame(b, FrameReplBatch)
	b = binary.LittleEndian.AppendUint64(b, epoch)
	b = binary.LittleEndian.AppendUint64(b, version)
	b = graph.AppendOps(b, ops)
	return endFrame(b, mark)
}

// AppendReplicateRequest appends the replication handshake request:
// the follower's last accepted epoch and applied version, and whether
// it holds state at that version (haveState=false forces a full
// checkpoint install).
func AppendReplicateRequest(b []byte, lastEpoch, lastVersion uint64, haveState bool) []byte {
	b, mark := beginFrame(b, FrameReqReplicate)
	b = binary.LittleEndian.AppendUint64(b, lastEpoch)
	b = binary.LittleEndian.AppendUint64(b, lastVersion)
	if haveState {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return endFrame(b, mark)
}

func (f *Frame) decodeReplCheckpoint(p []byte) error {
	if len(p) < 16 {
		return fmt.Errorf("wire: repl checkpoint payload of %d bytes below the fixed part", len(p))
	}
	f.Epoch = binary.LittleEndian.Uint64(p[0:8])
	f.Version = binary.LittleEndian.Uint64(p[8:16])
	// The checkpoint bytes are opaque here; dynamic.LoadCheckpoint does
	// its own validation. Copy them out so the frame outlives the buffer.
	f.Checkpoint = append([]byte(nil), p[16:]...)
	return nil
}

func (f *Frame) decodeReplBatch(p []byte) error {
	if len(p) < 16 {
		return fmt.Errorf("wire: repl batch payload of %d bytes below the fixed part", len(p))
	}
	f.Epoch = binary.LittleEndian.Uint64(p[0:8])
	f.Version = binary.LittleEndian.Uint64(p[8:16])
	// The primary only ships validated edge ops; DecodeOps holds shipped
	// batches to the WAL replay discipline, so corruption cannot reach an
	// engine (which panics on out-of-range ids by design).
	ops, err := graph.DecodeOps(nil, p[16:])
	if err != nil {
		return fmt.Errorf("wire: repl batch: %w", err)
	}
	f.ReplOps = ops
	return nil
}

func (f *Frame) decodeReplicateRequest(p []byte) error {
	if len(p) != 17 {
		return fmt.Errorf("wire: replicate request payload of %d bytes, want 17", len(p))
	}
	f.Epoch = binary.LittleEndian.Uint64(p[0:8])
	f.Version = binary.LittleEndian.Uint64(p[8:16])
	switch p[16] {
	case 0:
	case 1:
		f.HaveState = true
	default:
		return fmt.Errorf("wire: replicate request haveState flag is %d", p[16])
	}
	return nil
}
