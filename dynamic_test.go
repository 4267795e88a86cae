package dkclique

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// TestDynamicSaveLoad: Save writes the engine's checkpoint image, and
// LoadDynamic restores the same maintainer from it, clique ids, order
// and snapshot version included.
func TestDynamicSaveLoad(t *testing.T) {
	g, err := Generate(CommunitySocial(600, 6, 0.3, 600, 11))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Find(g, Options{K: 3, Algorithm: LP})
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := NewDynamic(g, 3, res.Cliques)
	if err != nil {
		t.Fatal(err)
	}
	ops := 0
	g.Edges(func(u, v int32) bool {
		dyn.DeleteEdge(u, v)
		ops++
		return ops < 50
	})
	var buf bytes.Buffer
	if err := dyn.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDynamic(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.Result(), dyn.Result()) {
		t.Fatal("Result differs after a Save/LoadDynamic round trip")
	}
	if v, want := loaded.ResultSnapshot().Version(), dyn.ResultSnapshot().Version(); v != want {
		t.Fatalf("loaded snapshot version %d, saved at %d", v, want)
	}
	if err := loaded.e.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := Verify(loaded.Snapshot(), 3, loaded.Result()); err != nil {
		t.Fatal(err)
	}
}

// TestLoadDynamicRejectsSnapshotFormat: the DKCQSNP1 snapshot format an
// earlier Save wrote is rejected by its magic. This 40-byte header
// (k = 2^62, no nodes, no edges, |S| = 4) made that format's loader
// panic sizing a clique by k.
func TestLoadDynamicRejectsSnapshotFormat(t *testing.T) {
	hdr := []byte("DKCQSNP1")
	for _, v := range []uint64{1 << 62, 0, 0, 4} {
		hdr = binary.LittleEndian.AppendUint64(hdr, v)
	}
	if _, err := LoadDynamic(bytes.NewReader(hdr)); err == nil {
		t.Fatal("a DKCQSNP1 header loaded")
	}
}
