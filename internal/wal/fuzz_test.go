package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"repro/internal/graph"
)

// FuzzWALDecode hardens the replay decoder: arbitrary bytes must never
// panic, the reported intact prefix must lie inside the input, and
// re-encoding the decoded batches must reproduce that prefix exactly
// (decode and encode are inverses on the intact region).
func FuzzWALDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(magic[:])
	// One well-formed record as a seed.
	seed := append([]byte(nil), magic[:]...)
	payload := binary.LittleEndian.AppendUint32(nil, 1)
	payload = append(payload, 1)
	payload = binary.LittleEndian.AppendUint32(payload, 3)
	payload = binary.LittleEndian.AppendUint32(payload, 9)
	seed = binary.LittleEndian.AppendUint32(seed, uint32(len(payload)))
	seed = binary.LittleEndian.AppendUint32(seed, crc32.ChecksumIEEE(payload))
	seed = append(seed, payload...)
	f.Add(seed)
	f.Add(append(seed[:len(seed)-3:len(seed)-3], 0xff, 0x01, 0x02))

	f.Fuzz(func(t *testing.T, data []byte) {
		var batches [][]graph.Op
		valid, err := decode(data, func(ops []graph.Op) error {
			batches = append(batches, append([]graph.Op(nil), ops...))
			return nil
		})
		if err != nil {
			t.Fatalf("fn never errors, decode returned %v", err)
		}
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d outside input of %d bytes", valid, len(data))
		}
		if valid == 0 {
			if len(batches) != 0 {
				t.Fatal("batches decoded from an invalid header")
			}
			return
		}
		if valid < HeaderSize {
			t.Fatalf("non-zero valid prefix %d below header size", valid)
		}
		for _, ops := range batches {
			for _, op := range ops {
				if op.U < 0 || op.V < 0 || op.U == op.V {
					t.Fatalf("decoded invalid op %+v", op)
				}
			}
		}
		// Round-trip: appending the decoded batches to a fresh log must
		// reproduce the intact prefix byte for byte.
		l := &Log{policy: SyncNone}
		img := append([]byte(nil), magic[:]...)
		for _, ops := range batches {
			b := l.encode(l.buf[:0], ops)
			l.buf = b
			img = append(img, b...)
		}
		if !bytes.Equal(img, data[:valid]) {
			t.Fatalf("re-encoded prefix differs from input prefix (%d vs %d bytes)", len(img), valid)
		}
	})
}
