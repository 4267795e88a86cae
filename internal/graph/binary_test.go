package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"strings"
	"testing"
)

// writeBinaryRef is the binary.Write encoder WriteBinary replaced; the
// appending encoder must reproduce its bytes exactly.
func writeBinaryRef(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, int64(g.N())); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.offsets); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.adj); err != nil {
		return err
	}
	return bw.Flush()
}

// TestWriteBinaryMatchesReference compares WriteBinary with the
// binary.Write reference on graphs from empty to arrays many write
// buffers long.
func TestWriteBinaryMatchesReference(t *testing.T) {
	graphs := []*Graph{NewBuilder(0).MustBuild(), NewBuilder(7).MustBuild()}
	for seed := int64(0); seed < 3; seed++ {
		graphs = append(graphs, randomGraph(40, 0.3, 810+seed), randomGraph(900, 0.04, 820+seed))
	}
	for i, g := range graphs {
		var got, want bytes.Buffer
		if err := WriteBinary(&got, g); err != nil {
			t.Fatal(err)
		}
		if err := writeBinaryRef(&want, g); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("graph %d (n=%d, m=%d): encoding differs from the reference", i, g.N(), g.M())
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := randomGraph(50, 0.2, 800+seed)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if g2.N() != g.N() || g2.M() != g.M() {
			t.Fatalf("size mismatch: %d/%d vs %d/%d", g2.N(), g2.M(), g.N(), g.M())
		}
		g.Edges(func(u, v int32) bool {
			if !g2.HasEdge(u, v) {
				t.Fatalf("edge (%d,%d) lost", u, v)
			}
			return true
		})
	}
}

func TestBinaryEmptyGraph(t *testing.T) {
	g := NewBuilder(0).MustBuild()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != 0 || g2.M() != 0 {
		t.Fatal("empty round trip failed")
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	for _, in := range []string{"", "short", "NOT-THE-MAGIC-AT-ALL....."} {
		if _, err := ReadBinary(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

func TestBinaryRejectsCorruption(t *testing.T) {
	g := randomGraph(20, 0.3, 900)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Corrupt a byte inside the adjacency area (symmetry/sort check should
	// catch most flips). Offset: 8 magic + 8 n + (n+1)*8 offsets + a bit.
	idx := 8 + 8 + (g.N()+1)*8 + 5
	for delta := byte(1); delta < 4; delta++ {
		mut := append([]byte(nil), raw...)
		mut[idx] += delta
		if _, err := ReadBinary(bytes.NewReader(mut)); err == nil {
			// Some flips can produce another valid graph only if they keep
			// sortedness AND symmetry — flag the first survivor for review.
			g2, _ := ReadBinary(bytes.NewReader(mut))
			same := g2.N() == g.N() && g2.M() == g.M()
			if same {
				continue // a benign coincidence is acceptable
			}
			t.Fatalf("corrupted stream (delta %d) accepted", delta)
		}
	}
	// Truncation must fail.
	if _, err := ReadBinary(bytes.NewReader(raw[:len(raw)/2])); err == nil {
		t.Fatal("truncated stream accepted")
	}
}

// TestBinaryShortStreamAllocatesLittle: a header is only a claim. A
// 16-byte stream claiming 2^24 nodes must fail at the cost of what it
// holds, not allocate the 128 MB of offsets it claims.
func TestBinaryShortStreamAllocatesLittle(t *testing.T) {
	hdr := binary.LittleEndian.AppendUint64(bytes.Clone(binaryMagic[:]), 1<<24)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadBinary(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("header without a body accepted")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Fatalf("a 16-byte stream allocated %d bytes", alloc)
	}
}
