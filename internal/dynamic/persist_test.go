package dynamic

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// The engine's image as a save file: the checkpoint WriteCheckpoint
// writes and LoadCheckpoint reads.

func TestSaveLoadRoundTrip(t *testing.T) {
	g := randomGraph(40, 0.25, 600)
	e, err := New(g, 3, lpResult(t, g, 3))
	if err != nil {
		t.Fatal(err)
	}
	// Mutate a little so the image differs from the pristine build.
	rng := rand.New(rand.NewSource(601))
	for i := 0; i < 60; i++ {
		u, v := int32(rng.Intn(40)), int32(rng.Intn(40))
		if u == v {
			continue
		}
		if rng.Float64() < 0.5 {
			e.InsertEdge(u, v)
		} else {
			e.DeleteEdge(u, v)
		}
	}
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	e2, err := LoadCheckpoint(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Same topology, same S under the same clique ids, the same version,
	// the same candidate index (it is a function of graph + S), and a
	// healthy engine.
	if e2.Graph().M() != e.Graph().M() || e2.Graph().N() != e.Graph().N() {
		t.Fatal("graph mismatch after load")
	}
	if !reflect.DeepEqual(e2.Result(), e.Result()) {
		t.Fatalf("S mismatch after load: %v vs %v", e2.Result(), e.Result())
	}
	if v1, v2 := e.Snapshot().Version(), e2.Snapshot().Version(); v1 != v2 {
		t.Fatalf("version %d after load, saved at %d", v2, v1)
	}
	if e2.NumCandidates() != e.NumCandidates() {
		t.Fatalf("candidate index mismatch: %d vs %d", e2.NumCandidates(), e.NumCandidates())
	}
	if err := e2.Verify(); err != nil {
		t.Fatal(err)
	}
	// The restored engine keeps working.
	e2.DeleteEdge(0, 1)
	e2.InsertEdge(0, 1)
	if err := e2.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"short",
		"NOTMAGIC________________",
		string(checkpointMagic[:]) + "truncated-header",
		// The snapshot format an earlier Save wrote: k = 3, no nodes, no
		// edges, no cliques.
		"DKCQSNP1" + "\x03" + strings.Repeat("\x00", 31),
	}
	for _, in := range cases {
		if _, err := LoadCheckpoint(strings.NewReader(in), 0); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

func TestLoadRejectsCorruptHeader(t *testing.T) {
	g := randomGraph(10, 0.3, 602)
	e, err := New(g, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Corrupt k to 1 (offset 8: first int64 after magic).
	raw[8] = 1
	if _, err := LoadCheckpoint(bytes.NewReader(raw), 0); err == nil {
		t.Fatal("corrupt k accepted")
	}
}

func TestSaveDeterministic(t *testing.T) {
	g := randomGraph(25, 0.3, 603)
	e, err := New(g, 3, lpResult(t, g, 3))
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := e.WriteCheckpoint(&a); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteCheckpoint(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("WriteCheckpoint is not deterministic")
	}
}

// FuzzLoadCheckpoint holds the image loader to two properties on any
// input: it never panics, and an image it accepts gives an engine whose
// every invariant holds. The images arrive from the store directory and
// from a primary's install frame, so neither can be trusted.
func FuzzLoadCheckpoint(f *testing.F) {
	g := randomGraph(12, 0.5, 604)
	e, err := New(g, 3, nil)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		f.Fatal(err)
	}
	img := buf.Bytes()
	f.Add(img)
	f.Add(img[:len(img)/2])
	// The oversized headers of TestCheckpointRejectsOversizedHeader: k,
	// next clique id and |S| that cannot fit the graph or an int32. The
	// last one empties S, and completing it would wrap the clique ids.
	n := int64(g.N())
	for _, h := range []struct{ k, next, ns int64 }{
		{1 << 62, n, 4}, {1 << 62, n, 0}, {n + 1, n, 0}, {3, n, n/3 + 1},
		{3, 1 << 32, int64(e.Size())}, {3, math.MaxInt32, 0},
	} {
		bad := bytes.Clone(img)
		binary.LittleEndian.PutUint64(bad[8:], uint64(h.k))
		binary.LittleEndian.PutUint64(bad[24:], uint64(h.next))
		binary.LittleEndian.PutUint64(bad[32:], uint64(h.ns))
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := LoadCheckpoint(bytes.NewReader(data), 1)
		if err != nil {
			return
		}
		if err := e.Verify(); err != nil {
			t.Fatalf("accepted image fails Verify: %v", err)
		}
	})
}
