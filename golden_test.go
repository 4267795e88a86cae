package dkclique

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/wal"
	"repro/internal/wire"
)

// The golden tests pin the bytes of the records the serving stack writes
// to disk and to the network. Round-trip tests cannot: a change made
// consistently to an encoder and its decoder passes them while breaking
// every file and peer written before it.

func TestWALRecordGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := wal.Create(path, wal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	ops := []Update{{Insert: true, U: 1, V: 2}, {U: 70000, V: 3}, {Insert: true, U: 0x7fffffff, V: 0}}
	if _, err := l.AppendGroup([][]Update{ops}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const want = "444b435157414c31" + // magic "DKCQWAL1"
		"1f000000" + "88b36ac9" + // payload length 31, CRC-32
		"03000000" + // op count
		"01" + "01000000" + "02000000" +
		"00" + "70110100" + "03000000" +
		"01" + "ffffff7f" + "00000000"
	if got := hex.EncodeToString(data); got != want {
		t.Fatalf("WAL bytes\n got %s\nwant %s", got, want)
	}
	var replayed []Update
	if _, err := wal.Replay(path, func(batch []Update) error {
		replayed = append(replayed, batch...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(replayed, ops) {
		t.Fatalf("replayed %v, want %v", replayed, ops)
	}
}

func TestReplBatchFrameGolden(t *testing.T) {
	const golden = "444b5731" + "08000000" + "2f000000" + "9dd1bc82" + // magic, type 8, length 47, CRC-32
		"0300000000000000" + "0807060504030201" + // epoch 3, version
		"03000000" + // op count
		"01" + "05000000" + "09000000" +
		"00" + "78563412" + "01000000" +
		"01" + "00010000" + "00000100"
	data, err := hex.DecodeString(golden)
	if err != nil {
		t.Fatal(err)
	}
	f, n, err := wire.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(data) || f.Type != wire.FrameReplBatch || f.Epoch != 3 || f.Version != 0x0102030405060708 {
		t.Fatalf("decoded %d of %d bytes: type %d epoch %d version %#x", n, len(data), f.Type, f.Epoch, f.Version)
	}
	want := []Update{{Insert: true, U: 5, V: 9}, {U: 0x12345678, V: 1}, {Insert: true, U: 256, V: 65536}}
	if len(f.ReplOps) != len(want) {
		t.Fatalf("decoded %d ops, want %d", len(f.ReplOps), len(want))
	}
	for i, op := range f.ReplOps {
		if op.Insert != want[i].Insert || op.U != want[i].U || op.V != want[i].V {
			t.Fatalf("op %d decoded as %+v, want %+v", i, op, want[i])
		}
	}
	if re := wire.AppendReplBatchFrame(nil, f.Epoch, f.Version, f.ReplOps); !bytes.Equal(re, data) {
		t.Fatalf("re-encoded frame\n got %x\nwant %s", re, golden)
	}
}

// TestStatsFrameGolden pins the bytes of a stats frame of the 21
// counters dkserver serves, in respcache's table order, counter i (from
// 1) holding the 8-byte little-endian value 0x0i0i. Which counters a
// server sends is pinned by respcache's TestCounterTable, so a new
// counter leaves this frame as it is.
func TestStatsFrameGolden(t *testing.T) {
	names := []string{
		"size", "nodes", "edges",
		"enqueued", "applied", "changed", "batches", "flushes",
		"recovered", "checkpoints", "wal_batches", "wal_bytes",
		"insertions", "deletions", "swaps", "index_build_us",
		"queue_depth", "snapshot_age",
		"wal_syncs", "group_commit_ops", "checkpoint_stall_ns",
	}
	st := make(wire.Stats, len(names))
	for i, name := range names {
		st[i] = wire.Counter{Name: name, Value: uint64(i+1) * 0x0101}
	}
	want := "444b5731" + "04000000" + "8a010000" + "90a21be7" + // magic, type 4, length 394, CRC-32
		"2a00000000000000" + "1500" // version 42, 21 counters
	for i, name := range names {
		want += hex.EncodeToString(append([]byte{byte(len(name))}, name...)) +
			hex.EncodeToString([]byte{byte(i + 1), byte(i + 1), 0, 0, 0, 0, 0, 0})
	}
	data := wire.AppendStatsFrame(nil, 42, st)
	if got := hex.EncodeToString(data); got != want {
		t.Fatalf("stats frame\n got %s\nwant %s", got, want)
	}
	f, n, err := wire.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(data) || f.Type != wire.FrameStats || f.Version != 42 || !slices.Equal(f.Stats, st) {
		t.Fatalf("decoded %d of %d bytes: type %d version %d stats %+v", n, len(data), f.Type, f.Version, f.Stats)
	}
}
