package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/graph"
)

func TestReplFrameRoundTrip(t *testing.T) {
	ops := []graph.Op{
		{Insert: true, U: 0, V: 1},
		{Insert: false, U: 7, V: 3},
		{Insert: true, U: 100000, V: 2},
	}
	ckpt := []byte("opaque checkpoint bytes")

	cases := []struct {
		name  string
		buf   []byte
		check func(t *testing.T, f *Frame)
	}{
		{
			name: "checkpoint",
			buf:  AppendReplCheckpointFrame(nil, 3, 42, ckpt),
			check: func(t *testing.T, f *Frame) {
				if f.Type != FrameReplCheckpoint || f.Epoch != 3 || f.Version != 42 {
					t.Fatalf("decoded header = %+v", f)
				}
				if !bytes.Equal(f.Checkpoint, ckpt) {
					t.Fatalf("checkpoint bytes = %q", f.Checkpoint)
				}
			},
		},
		{
			name: "checkpoint empty",
			buf:  AppendReplCheckpointFrame(nil, 1, 0, nil),
			check: func(t *testing.T, f *Frame) {
				if f.Type != FrameReplCheckpoint || len(f.Checkpoint) != 0 {
					t.Fatalf("decoded = %+v", f)
				}
			},
		},
		{
			name: "batch",
			buf:  AppendReplBatchFrame(nil, 2, 17, ops),
			check: func(t *testing.T, f *Frame) {
				if f.Type != FrameReplBatch || f.Epoch != 2 || f.Version != 17 {
					t.Fatalf("decoded header = %+v", f)
				}
				if !reflect.DeepEqual(f.ReplOps, ops) {
					t.Fatalf("ops = %v, want %v", f.ReplOps, ops)
				}
			},
		},
		{
			name: "batch empty",
			buf:  AppendReplBatchFrame(nil, 2, 18, nil),
			check: func(t *testing.T, f *Frame) {
				if f.Type != FrameReplBatch || len(f.ReplOps) != 0 {
					t.Fatalf("decoded = %+v", f)
				}
			},
		},
		{
			name: "canon",
			buf:  AppendReplCanonFrame(nil, 5, 99),
			check: func(t *testing.T, f *Frame) {
				if f.Type != FrameReplCanon || f.Epoch != 5 || f.Version != 99 {
					t.Fatalf("decoded = %+v", f)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, n, err := Decode(tc.buf)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if n != len(tc.buf) {
				t.Fatalf("consumed %d of %d bytes", n, len(tc.buf))
			}
			tc.check(t, f)
			// Repl frames are responses; the request decoder must reject them.
			if _, _, err := DecodeRequest(tc.buf); err == nil {
				t.Fatal("DecodeRequest accepted a repl stream frame")
			}
		})
	}
}

func TestReplicateRequestRoundTrip(t *testing.T) {
	for _, haveState := range []bool{false, true} {
		buf := AppendReplicateRequest(nil, 4, 1234, haveState)
		f, n, err := DecodeRequest(buf)
		if err != nil {
			t.Fatalf("DecodeRequest: %v", err)
		}
		if n != len(buf) {
			t.Fatalf("consumed %d of %d bytes", n, len(buf))
		}
		if f.Type != FrameReqReplicate || f.Epoch != 4 || f.Version != 1234 || f.HaveState != haveState {
			t.Fatalf("decoded = %+v", f)
		}
		if _, _, err := Decode(buf); err == nil {
			t.Fatal("Decode accepted a replicate request")
		}
	}
}

func TestReplBatchDecodeRejectsInvalidOps(t *testing.T) {
	bad := [][]graph.Op{
		{{Insert: true, U: 3, V: 3}},  // self-loop
		{{Insert: true, U: -1, V: 2}}, // negative id
		{{Insert: true, U: 2, V: -5}},
	}
	for _, ops := range bad {
		buf := AppendReplBatchFrame(nil, 1, 1, ops)
		if _, _, err := Decode(buf); err == nil {
			t.Fatalf("Decode accepted batch with invalid op %v", ops[0])
		}
	}
	// A flag byte other than 0/1 must be rejected too; corrupt the first
	// op's flag in a valid frame and fix up the CRC by re-framing.
	buf := AppendReplBatchFrame(nil, 1, 1, []graph.Op{{Insert: true, U: 1, V: 2}})
	payload := append([]byte(nil), buf[HeaderSize:]...)
	payload[20] = 2 // after the epoch, the version and the op count
	reframed, mark := beginFrame(nil, FrameReplBatch)
	reframed = append(reframed, payload...)
	reframed = endFrame(reframed, mark)
	if _, _, err := Decode(reframed); err == nil {
		t.Fatal("Decode accepted batch with flag byte 2")
	}
}

// FuzzReplDecode holds the replication frame decoders to the wire
// package's bar: arbitrary bytes never panic either decoder, consumed
// lengths stay in bounds, and decode∘encode is the identity on every
// accepted repl frame. The generic assertions duplicate FuzzWireDecode/
// FuzzRequestDecode on purpose — this target's corpus steers the fuzzer
// at the repl payload layouts specifically.
func FuzzReplDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(magic[:])
	f.Add(AppendReplCheckpointFrame(nil, 1, 7, []byte("ckpt")))
	f.Add(AppendReplCheckpointFrame(nil, 2, 0, nil))
	f.Add(AppendReplBatchFrame(nil, 1, 8, []graph.Op{{Insert: true, U: 0, V: 1}, {U: 2, V: 3}}))
	f.Add(AppendReplBatchFrame(nil, 1, 9, nil))
	f.Add(AppendReplCanonFrame(nil, 1, 10))
	f.Add(AppendReplicateRequest(nil, 1, 11, true))
	f.Add(AppendReplicateRequest(nil, 0, 0, false))
	// A repl stream frame followed by garbage: consumed must isolate it.
	f.Add(append(AppendReplCanonFrame(nil, 3, 4), 0xde, 0xad, 0xbe, 0xef))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := Decode(data)
		if err == nil {
			if n < HeaderSize || n > len(data) {
				t.Fatalf("Decode consumed %d of %d bytes", n, len(data))
			}
			var re []byte
			switch fr.Type {
			case FrameReplCheckpoint:
				re = AppendReplCheckpointFrame(nil, fr.Epoch, fr.Version, fr.Checkpoint)
			case FrameReplBatch:
				re = AppendReplBatchFrame(nil, fr.Epoch, fr.Version, fr.ReplOps)
				for _, op := range fr.ReplOps {
					if op.U < 0 || op.V < 0 || op.U == op.V {
						t.Fatalf("decoded batch leaked invalid op %+v", op)
					}
				}
			case FrameReplCanon:
				re = AppendReplCanonFrame(nil, fr.Epoch, fr.Version)
			}
			if re != nil && !bytes.Equal(re, data[:n]) {
				t.Fatalf("re-encoded repl frame differs from input (%d vs %d bytes)", len(re), n)
			}
		} else {
			if fr != nil || n != 0 {
				t.Fatalf("failed Decode leaked frame=%v n=%d", fr, n)
			}
			if errors.Is(err, ErrShort) && len(data) >= HeaderSize+MaxPayload {
				t.Fatal("ErrShort on an input longer than any bounded frame")
			}
		}

		rq, rn, rerr := DecodeRequest(data)
		if rerr != nil {
			if rq != nil || rn != 0 {
				t.Fatalf("failed DecodeRequest leaked frame=%v n=%d", rq, rn)
			}
			return
		}
		if rn < HeaderSize || rn > len(data) {
			t.Fatalf("DecodeRequest consumed %d of %d bytes", rn, len(data))
		}
		if err == nil {
			t.Fatalf("both decoders accepted a frame of type %d/%d", fr.Type, rq.Type)
		}
		if rq.Type == FrameReqReplicate {
			re := AppendReplicateRequest(nil, rq.Epoch, rq.Version, rq.HaveState)
			if !bytes.Equal(re, data[:rn]) {
				t.Fatalf("re-encoded replicate request differs from input (%d vs %d bytes)", len(re), rn)
			}
		}
	})
}
