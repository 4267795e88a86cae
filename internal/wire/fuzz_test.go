package wire

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzWireDecode hardens the frame decoder the same way FuzzWALDecode
// hardens the log replay: arbitrary bytes must never panic, a reported
// consumed length must lie inside the input, and re-encoding a decoded
// frame must reproduce the consumed bytes exactly (decode∘encode is the
// identity on everything Decode accepts).
func FuzzWireDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(magic[:])
	f.Add(AppendSnapshotFrame(nil, 42, 3, 10, 20, 2, [][]int32{{0, 1, 2}, {3, 4, 5}}, true))
	f.Add(AppendSnapshotFrame(nil, 43, 3, 10, 20, 2, nil, false))
	f.Add(AppendCliqueFrame(nil, 7, 5, 3, []int32{1, 5, 9}))
	f.Add(AppendCliqueFrame(nil, 8, 6, 4, nil))
	f.Add(AppendCliquesFrame(nil, 9, 3, [][]int32{{1, 2, 3}},
		[]Lookup{{Node: 1, Clique: 0}, {Node: 7, Clique: -1}}))
	f.Add(AppendStatsFrame(nil, 10, &Stats{Size: 1, Applied: 2, IndexBuildUS: 3, QueueDepth: 4}))
	f.Add(AppendErrorFrame(nil, 400, "bad node id"))
	f.Add(AppendDeltaFrame(nil, 4, 7, 3, 10, 20, 2,
		[]int32{5}, []int32{8, 9}, [][]int32{{0, 1, 2}, {3, 4, 5}}))
	f.Add(AppendDeltaFrame(nil, 0, 1, 3, 10, 20, 1, nil, []int32{0}, [][]int32{{0, 1, 2}}))
	// A valid frame followed by garbage: the consumed count must isolate it.
	f.Add(append(AppendErrorFrame(nil, 404, "x"), 0xde, 0xad, 0xbe, 0xef))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := Decode(data)
		if err != nil {
			if fr != nil || n != 0 {
				t.Fatalf("failed decode leaked frame=%v n=%d", fr, n)
			}
			if errors.Is(err, ErrShort) && len(data) >= HeaderSize+MaxPayload {
				t.Fatal("ErrShort on an input longer than any bounded frame")
			}
			return
		}
		if n < HeaderSize || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		var re []byte
		switch fr.Type {
		case FrameSnapshot:
			re = AppendSnapshotFrame(nil, fr.Version, fr.K, fr.Nodes, fr.Edges, fr.Size, fr.Cliques, fr.HasCliques)
		case FrameClique:
			re = AppendCliqueFrame(nil, fr.Version, fr.Node, fr.K, fr.Members)
		case FrameCliques:
			re = AppendCliquesFrame(nil, fr.Version, fr.K, fr.Cliques, fr.Lookups)
		case FrameStats:
			re = AppendStatsFrame(nil, fr.Version, fr.Stats)
		case FrameError:
			re = AppendErrorFrame(nil, fr.Status, fr.Message)
		case FrameDelta:
			re = AppendDeltaFrame(nil, fr.FromVersion, fr.Version, fr.K, fr.Nodes, fr.Edges,
				fr.Size, fr.RemovedIDs, fr.AddedIDs, fr.Cliques)
		case FrameReplCheckpoint:
			re = AppendReplCheckpointFrame(nil, fr.Epoch, fr.Version, fr.Checkpoint)
		case FrameReplBatch:
			re = AppendReplBatchFrame(nil, fr.Epoch, fr.Version, fr.ReplOps)
		default:
			t.Fatalf("decoded unknown frame type %d", fr.Type)
		}
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encoded frame differs from input (%d vs %d bytes)", len(re), n)
		}
	})
}

// FuzzRequestDecode holds the request-side decoder to the same bar as
// FuzzWireDecode: arbitrary bytes never panic, consumed lengths stay in
// bounds, decode∘encode is the identity on every accepted request —
// and a frame one decoder accepts the other must reject (the type
// ranges are disjoint by construction).
func FuzzRequestDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(magic[:])
	f.Add(AppendSnapshotRequest(nil, true, ""))
	f.Add(AppendSnapshotRequest(nil, false, ""))
	f.Add(AppendCliqueRequest(nil, 42, ""))
	f.Add(AppendCliquesRequest(nil, []int32{1, 2, 3}, ""))
	f.Add(AppendCliquesRequest(nil, nil, ""))
	f.Add(AppendStatsRequest(nil, ""))
	f.Add(AppendSubscribeRequest(nil, ""))
	// Tenant-suffixed variants of every request type.
	f.Add(AppendSnapshotRequest(nil, true, "alpha"))
	f.Add(AppendCliqueRequest(nil, 42, "t-1.x_y"))
	f.Add(AppendCliquesRequest(nil, []int32{1, 2}, "beta"))
	f.Add(AppendStatsRequest(nil, "default"))
	f.Add(AppendSubscribeRequest(nil, "feed"))
	// A response frame: DecodeRequest must reject it outright.
	f.Add(AppendErrorFrame(nil, 404, "x"))
	f.Add(append(AppendSubscribeRequest(nil, ""), 0xde, 0xad))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := DecodeRequest(data)
		if err != nil {
			if fr != nil || n != 0 {
				t.Fatalf("failed decode leaked frame=%v n=%d", fr, n)
			}
			if errors.Is(err, ErrShort) && len(data) >= HeaderSize+MaxPayload {
				t.Fatal("ErrShort on an input longer than any bounded frame")
			}
			return
		}
		if n < HeaderSize || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		var re []byte
		switch fr.Type {
		case FrameReqSnapshot:
			re = AppendSnapshotRequest(nil, fr.HasCliques, fr.Tenant)
		case FrameReqClique:
			re = AppendCliqueRequest(nil, fr.Node, fr.Tenant)
		case FrameReqCliques:
			re = AppendCliquesRequest(nil, fr.Queried, fr.Tenant)
		case FrameReqStats:
			re = AppendStatsRequest(nil, fr.Tenant)
		case FrameReqSubscribe:
			re = AppendSubscribeRequest(nil, fr.Tenant)
		case FrameReqReplicate:
			re = AppendReplicateRequest(nil, fr.Epoch, fr.Version, fr.HaveState)
		default:
			t.Fatalf("decoded unknown request type %d", fr.Type)
		}
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encoded request differs from input (%d vs %d bytes)", len(re), n)
		}
		// The two decoders partition the type space: a valid request is
		// never a valid response.
		if _, _, rerr := Decode(data); rerr == nil {
			t.Fatalf("Decode accepted a request frame of type %d", fr.Type)
		}
	})
}
