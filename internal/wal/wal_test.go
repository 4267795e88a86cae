package wal

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/graph"
)

func randOps(rng *rand.Rand, n int) []graph.Op {
	ops := make([]graph.Op, n)
	for i := range ops {
		u := int32(rng.Intn(1000))
		v := int32(rng.Intn(1000))
		if u == v {
			v = (v + 1) % 1000
		}
		ops[i] = graph.Op{Insert: rng.Intn(2) == 0, U: u, V: v}
	}
	return ops
}

func replayAll(t *testing.T, path string) ([][]graph.Op, int64) {
	t.Helper()
	var got [][]graph.Op
	valid, err := Replay(path, func(ops []graph.Op) error {
		got = append(got, append([]graph.Op(nil), ops...))
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got, valid
}

func TestAppendReplayRoundTrip(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncEveryBatch, SyncNone} {
		path := filepath.Join(t.TempDir(), "wal.log")
		l, err := Create(path, policy)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(policy) + 1))
		var want [][]graph.Op
		for i := 0; i < 20; i++ {
			ops := randOps(rng, 1+rng.Intn(50))
			if _, err := l.AppendGroup([][]graph.Op{ops}); err != nil {
				t.Fatal(err)
			}
			want = append(want, ops)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		got, valid := replayAll(t, path)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("policy %d: replay mismatch: got %d batches, want %d", policy, len(got), len(want))
		}
		if fi, _ := os.Stat(path); fi.Size() != valid || valid != l.Size() {
			t.Fatalf("valid prefix %d != file size %d / log size %d", valid, fi.Size(), l.Size())
		}
	}
}

func TestEmptyBatchRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Create(path, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendGroup([][]graph.Op{nil}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := replayAll(t, path)
	if len(got) != 1 || len(got[0]) != 0 {
		t.Fatalf("empty batch round-trip = %v", got)
	}
}

// TestTruncatedTail cuts the file at every possible byte length and checks
// that replay always recovers a record-aligned prefix without error.
func TestTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	l, err := Create(path, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var want [][]graph.Op
	var bounds []int64 // cumulative intact sizes after each record
	size := int64(HeaderSize)
	for i := 0; i < 8; i++ {
		ops := randOps(rng, 1+rng.Intn(10))
		n, err := l.AppendGroup([][]graph.Op{ops})
		if err != nil {
			t.Fatal(err)
		}
		size += int64(n)
		want = append(want, ops)
		bounds = append(bounds, size)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(full); cut++ {
		cutPath := filepath.Join(dir, "cut.log")
		if err := os.WriteFile(cutPath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, valid := replayAll(t, cutPath)
		// The replayed prefix must be the longest whole-record prefix that
		// fits in cut bytes.
		wantN := 0
		wantValid := int64(0)
		if cut >= HeaderSize {
			wantValid = HeaderSize
			for i, b := range bounds {
				if int64(cut) >= b {
					wantN = i + 1
					wantValid = b
				}
			}
		}
		if len(got) != wantN || valid != wantValid {
			t.Fatalf("cut %d: got %d batches (valid %d), want %d (valid %d)",
				cut, len(got), valid, wantN, wantValid)
		}
		if wantN > 0 && !reflect.DeepEqual(got, want[:wantN]) {
			t.Fatalf("cut %d: prefix content mismatch", cut)
		}
	}
}

// TestCorruptedRecord flips a byte inside an early record: replay must
// stop at the corrupted record, not skip over it.
func TestCorruptedRecord(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	l, err := Create(path, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	first := randOps(rng, 5)
	l.AppendGroup([][]graph.Op{first})
	afterFirst := l.Size()
	l.AppendGroup([][]graph.Op{randOps(rng, 5)})
	l.AppendGroup([][]graph.Op{randOps(rng, 5)})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	data[afterFirst+recHdrSize+2] ^= 0xff // inside the second record's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, valid := replayAll(t, path)
	if len(got) != 1 || !reflect.DeepEqual(got[0], first) || valid != afterFirst {
		t.Fatalf("corruption not contained: %d batches, valid %d (want 1, %d)", len(got), valid, afterFirst)
	}
}

// TestResumeAfterTear replays a torn log, resumes at the intact prefix,
// appends more, and checks the final file replays old + new batches.
func TestResumeAfterTear(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	l, err := Create(path, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	a, b := randOps(rng, 4), randOps(rng, 4)
	l.AppendGroup([][]graph.Op{a})
	l.AppendGroup([][]graph.Op{b})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear off half of the second record.
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	_, valid := replayAll(t, path)
	l, err = Resume(path, valid, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	c := randOps(rng, 4)
	if _, err := l.AppendGroup([][]graph.Op{c}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := replayAll(t, path)
	want := [][]graph.Op{a, c}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resume mismatch: got %v want %v", got, want)
	}
}

// TestResumeHeaderlessFile recreates a log whose header did not survive.
func TestResumeHeaderlessFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	valid, err := Replay(path, func([]graph.Op) error { return nil })
	if err != nil || valid != 0 {
		t.Fatalf("junk replay = %d, %v", valid, err)
	}
	l, err := Resume(path, valid, SyncEveryBatch)
	if err != nil {
		t.Fatal(err)
	}
	ops := []graph.Op{{Insert: true, U: 1, V: 2}}
	if _, err := l.AppendGroup([][]graph.Op{ops}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := replayAll(t, path)
	if len(got) != 1 || !reflect.DeepEqual(got[0], ops) {
		t.Fatalf("recreated log replay = %v", got)
	}
}

func TestReplayMissingFile(t *testing.T) {
	_, err := Replay(filepath.Join(t.TempDir(), "absent.log"), func([]graph.Op) error { return nil })
	if !os.IsNotExist(err) {
		t.Fatalf("want fs.ErrNotExist, got %v", err)
	}
}

// TestAppendZeroAlloc pins the warm append path at zero allocations:
// after the scratch buffer has grown to the record size once, neither a
// one-batch nor a three-batch AppendGroup may allocate. This is
// load-bearing for the serve writer loop, which appends on the hot path
// of every batch.
func TestAppendZeroAlloc(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(filepath.Join(dir, "wal.log"), SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rng := rand.New(rand.NewSource(7))
	ops := randOps(rng, 256)
	one := [][]graph.Op{ops}
	group := [][]graph.Op{ops[:100], ops[100:200], ops[200:]}
	// Warm: grow the scratch to its steady-state size.
	if _, err := l.AppendGroup(one); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendGroup(group); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, err := l.AppendGroup(one); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("warm one-batch AppendGroup allocates %.1f times per run, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, err := l.AppendGroup(group); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("warm AppendGroup allocates %.1f times per run, want 0", n)
	}
}
