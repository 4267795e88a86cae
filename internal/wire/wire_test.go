package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"
)

func TestSnapshotRoundTrip(t *testing.T) {
	cliques := [][]int32{{0, 3, 9}, {1, 4, 5}, {2, 7, 8}}
	b := AppendSnapshotFrame(nil, 42, 3, 10, 20, len(cliques), cliques, true)
	f, n, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(b) {
		t.Fatalf("consumed %d of %d bytes", n, len(b))
	}
	if f.Type != FrameSnapshot || f.Version != 42 || f.K != 3 || f.Nodes != 10 ||
		f.Edges != 20 || f.Size != 3 || !f.HasCliques {
		t.Fatalf("frame = %+v", f)
	}
	if !reflect.DeepEqual(f.Cliques, cliques) {
		t.Fatalf("cliques = %v, want %v", f.Cliques, cliques)
	}

	lean := AppendSnapshotFrame(nil, 43, 3, 10, 20, len(cliques), nil, false)
	f, _, err = Decode(lean)
	if err != nil {
		t.Fatal(err)
	}
	if f.HasCliques || f.Cliques != nil || f.Size != 3 {
		t.Fatalf("lean frame = %+v", f)
	}
	if len(lean) >= len(b) {
		t.Fatalf("lean frame (%d bytes) not smaller than full (%d)", len(lean), len(b))
	}
}

func TestCliqueRoundTrip(t *testing.T) {
	b := AppendCliqueFrame(nil, 7, 5, 3, []int32{1, 5, 9})
	f, _, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != FrameClique || f.Version != 7 || f.Node != 5 || f.K != 3 || !f.Covered {
		t.Fatalf("frame = %+v", f)
	}
	if !reflect.DeepEqual(f.Members, []int32{1, 5, 9}) {
		t.Fatalf("members = %v", f.Members)
	}

	b = AppendCliqueFrame(nil, 8, 6, 3, nil)
	f, _, err = Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if f.Covered || f.Members != nil {
		t.Fatalf("uncovered frame = %+v", f)
	}
}

func TestCliquesRoundTrip(t *testing.T) {
	cliques := [][]int32{{1, 2, 3}, {4, 5, 6}}
	lookups := []Lookup{{Node: 1, Clique: 0}, {Node: 2, Clique: 0}, {Node: 5, Clique: 1}, {Node: 9, Clique: -1}}
	b := AppendCliquesFrame(nil, 99, 3, cliques, lookups)
	f, _, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != FrameCliques || f.Version != 99 || f.K != 3 {
		t.Fatalf("frame = %+v", f)
	}
	if !reflect.DeepEqual(f.Cliques, cliques) || !reflect.DeepEqual(f.Lookups, lookups) {
		t.Fatalf("decoded %v / %v", f.Cliques, f.Lookups)
	}
}

func TestStatsRoundTrip(t *testing.T) {
	st := Stats{{Name: "size", Value: 1}, {Name: "queue_depth", Value: 0},
		{Name: "checkpoint_stall_ns", Value: 1<<63 + 5}, {Name: strings.Repeat("n", MaxCounterName), Value: 7}}
	b := AppendStatsFrame(nil, 123, st)
	f, _, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != FrameStats || f.Version != 123 || !reflect.DeepEqual(f.Stats, st) {
		t.Fatalf("frame = %+v, stats = %+v", f, f.Stats)
	}
	if v, ok := f.Stats.Get("checkpoint_stall_ns"); !ok || v != 1<<63+5 {
		t.Fatalf("Get(checkpoint_stall_ns) = %d, %v", v, ok)
	}
	if _, ok := f.Stats.Get("absent"); ok {
		t.Fatal("Get found a counter the block does not carry")
	}
}

// TestStatsDecodeRejects drives the stats decoder through each
// malformed payload: shorter than its fixed part, a name of length 0 or
// past MaxCounterName, a value cut short, and bytes after the last
// counter.
func TestStatsDecodeRejects(t *testing.T) {
	// frame wraps a hand-built payload in a valid header.
	frame := func(payload []byte) []byte {
		b, mark := beginFrame(nil, FrameStats)
		return endFrame(append(b, payload...), mark)
	}
	fixed := func(count uint16) []byte {
		p := binary.LittleEndian.AppendUint64(nil, 9)
		return binary.LittleEndian.AppendUint16(p, count)
	}
	counter := func(name string) []byte {
		p := append([]byte{byte(len(name))}, name...)
		return binary.LittleEndian.AppendUint64(p, 42)
	}
	if _, _, err := Decode(frame(append(fixed(1), counter("ok")...))); err != nil {
		t.Fatalf("well-formed payload: %v", err)
	}
	for name, payload := range map[string][]byte{
		"short fixed part": fixed(0)[:9],
		"empty name":       append(fixed(1), counter("")...),
		"name of 65 bytes": append(fixed(1), counter(strings.Repeat("x", MaxCounterName+1))...),
		"truncated value":  append(fixed(1), counter("ok")[:7]...),
		"missing counter":  append(fixed(2), counter("ok")...),
		"trailing bytes":   append(append(fixed(1), counter("ok")...), 0),
	} {
		if _, _, err := Decode(frame(payload)); err == nil || errors.Is(err, ErrShort) {
			t.Errorf("%s: decode returned %v, want a permanent error", name, err)
		}
	}
}

func TestErrorRoundTrip(t *testing.T) {
	b := AppendErrorFrame(nil, 400, "bad node id")
	f, _, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != FrameError || f.Status != 400 || f.Message != "bad node id" {
		t.Fatalf("frame = %+v", f)
	}
}

// TestBackToBackFrames checks that consumed-byte accounting lets a
// caller decode a concatenated stream.
func TestBackToBackFrames(t *testing.T) {
	b := AppendCliqueFrame(nil, 1, 0, 3, []int32{0, 1, 2})
	b = AppendErrorFrame(b, 404, "nope")
	f1, n1, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	f2, n2, err := Decode(b[n1:])
	if err != nil {
		t.Fatal(err)
	}
	if f1.Type != FrameClique || f2.Type != FrameError || n1+n2 != len(b) {
		t.Fatalf("frames %v / %v, %d+%d of %d bytes", f1.Type, f2.Type, n1, n2, len(b))
	}
}

// TestDecodeRejects drives the decoder through the malformed-input
// space: truncations, flipped bits, bad flags and lying lengths must
// error (or report ErrShort), never panic, never mis-decode.
func TestDecodeRejects(t *testing.T) {
	valid := AppendCliqueFrame(nil, 7, 5, 3, []int32{1, 5, 9})

	// Every truncation of a valid frame is ErrShort or a clean error.
	for i := 0; i < len(valid); i++ {
		if _, _, err := Decode(valid[:i]); err == nil {
			t.Fatalf("truncation to %d bytes decoded", i)
		}
	}

	// A flipped payload byte fails the CRC.
	flip := bytes.Clone(valid)
	flip[len(flip)-1] ^= 1
	if _, _, err := Decode(flip); !errors.Is(err, ErrBadCRC) {
		t.Fatalf("flipped payload byte: %v", err)
	}

	// Bad magic.
	bad := bytes.Clone(valid)
	bad[0] = 'X'
	if _, _, err := Decode(bad); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: %v", err)
	}

	// Nonzero reserved byte.
	res := bytes.Clone(valid)
	res[6] = 1
	if _, _, err := Decode(res); err == nil || errors.Is(err, ErrShort) {
		t.Fatalf("nonzero reserved: %v", err)
	}

	// Unknown frame type (CRC re-stamped so only the type is wrong).
	unk := bytes.Clone(valid)
	unk[4] = 99
	if _, _, err := Decode(unk); err == nil {
		t.Fatal("unknown type decoded")
	}

	// A covered flag of 2 with a correct CRC.
	cov := bytes.Clone(valid)
	cov[HeaderSize+16] = 2
	restamp(cov)
	if _, _, err := Decode(cov); err == nil {
		t.Fatal("covered=2 decoded")
	}

	// A batched lookup pointing past the clique list.
	oob := AppendCliquesFrame(nil, 1, 3, [][]int32{{0, 1, 2}}, []Lookup{{Node: 0, Clique: 1}})
	if _, _, err := Decode(oob); err == nil {
		t.Fatal("out-of-range clique index decoded")
	}

	// A hostile length prefix must be bounded before allocation.
	huge := bytes.Clone(valid)
	binary.LittleEndian.PutUint32(huge[8:12], 1<<30)
	if _, _, err := Decode(huge); err == nil || errors.Is(err, ErrShort) {
		t.Fatalf("oversized length prefix: %v", err)
	}
}

// restamp recomputes the payload CRC of a frame image after a test
// mutated the payload.
func restamp(b []byte) {
	binary.LittleEndian.PutUint32(b[12:16], crc32.ChecksumIEEE(b[HeaderSize:]))
}

// TestEncodeReusesBuffer pins the zero-allocation encode contract: with
// a warm buffer, appending a frame allocates nothing.
func TestEncodeReusesBuffer(t *testing.T) {
	cliques := [][]int32{{0, 1, 2}, {3, 4, 5}}
	buf := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(100, func() {
		b := AppendSnapshotFrame(buf[:0], 1, 3, 10, 20, len(cliques), cliques, true)
		b = AppendCliqueFrame(b[:0], 1, 0, 3, cliques[0])
		_ = AppendStatsFrame(b[:0], 1, Stats{})
	})
	if allocs != 0 {
		t.Fatalf("encode into a warm buffer allocates %.1f times per run", allocs)
	}
}

// TestDeltaRoundTrip pins the delta frame codec: removed ids, added
// (id, members) pairs, and the target-snapshot header all survive.
func TestDeltaRoundTrip(t *testing.T) {
	removed := []int32{3, 9}
	addedIDs := []int32{12, 15}
	added := [][]int32{{0, 1, 2}, {4, 5, 6}}
	b := AppendDeltaFrame(nil, 7, 11, 3, 100, 200, 5, removed, addedIDs, added)
	f, n, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(b) || f.Type != FrameDelta || f.FromVersion != 7 || f.Version != 11 ||
		f.K != 3 || f.Nodes != 100 || f.Edges != 200 || f.Size != 5 {
		t.Fatalf("frame = %+v (consumed %d of %d)", f, n, len(b))
	}
	if !reflect.DeepEqual(f.RemovedIDs, removed) || !reflect.DeepEqual(f.AddedIDs, addedIDs) ||
		!reflect.DeepEqual(f.Cliques, added) {
		t.Fatalf("decoded %v / %v / %v", f.RemovedIDs, f.AddedIDs, f.Cliques)
	}
	// An empty delta (version-only advance) round-trips too.
	e := AppendDeltaFrame(nil, 11, 12, 3, 100, 201, 5, nil, nil, nil)
	fe, _, err := Decode(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(fe.RemovedIDs) != 0 || len(fe.AddedIDs) != 0 || fe.Edges != 201 {
		t.Fatalf("empty delta = %+v", fe)
	}
}

// TestRequestRoundTrip pins the request codec and the decoder split:
// every request type round-trips through DecodeRequest, and neither
// decoder accepts the other side's frames.
func TestRequestRoundTrip(t *testing.T) {
	reqs := [][]byte{
		AppendSnapshotRequest(nil, true, ""),
		AppendSnapshotRequest(nil, false, ""),
		AppendCliqueRequest(nil, 42, ""),
		AppendCliquesRequest(nil, []int32{1, 2, 3}, ""),
		AppendStatsRequest(nil, ""),
		AppendSubscribeRequest(nil, ""),
	}
	for i, b := range reqs {
		f, n, err := DecodeRequest(b)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if n != len(b) {
			t.Fatalf("request %d consumed %d of %d bytes", i, n, len(b))
		}
		if _, _, err := Decode(b); err == nil {
			t.Fatalf("Decode accepted request type %d", f.Type)
		}
	}
	full, _, _ := DecodeRequest(reqs[0])
	lean, _, _ := DecodeRequest(reqs[1])
	if !full.HasCliques || lean.HasCliques {
		t.Fatalf("include flags: full=%v lean=%v", full.HasCliques, lean.HasCliques)
	}
	if f, _, _ := DecodeRequest(reqs[2]); f.Node != 42 {
		t.Fatalf("clique request node = %d", f.Node)
	}
	if f, _, _ := DecodeRequest(reqs[3]); !reflect.DeepEqual(f.Queried, []int32{1, 2, 3}) {
		t.Fatalf("batched request nodes = %v", f.Queried)
	}
	// Responses are not requests.
	if _, _, err := DecodeRequest(AppendErrorFrame(nil, 404, "x")); err == nil {
		t.Fatal("DecodeRequest accepted a response frame")
	}
}

// TestRequestTenantSuffix pins the version-gated tenant field: every
// request type round-trips its tenant name, the suffix-free encodings
// are byte-identical to the pre-multi-tenant frames (the gate), and
// malformed suffixes are rejected.
func TestRequestTenantSuffix(t *testing.T) {
	encode := map[string]func(tenant string) []byte{
		"snapshot":  func(tn string) []byte { return AppendSnapshotRequest(nil, true, tn) },
		"clique":    func(tn string) []byte { return AppendCliqueRequest(nil, 7, tn) },
		"cliques":   func(tn string) []byte { return AppendCliquesRequest(nil, []int32{1, 2}, tn) },
		"stats":     func(tn string) []byte { return AppendStatsRequest(nil, tn) },
		"subscribe": func(tn string) []byte { return AppendSubscribeRequest(nil, tn) },
	}
	for name, enc := range encode {
		for _, tenant := range []string{"", "alpha", "t-1.x_y", "a"} {
			b := enc(tenant)
			f, n, err := DecodeRequest(b)
			if err != nil {
				t.Fatalf("%s tenant %q: %v", name, tenant, err)
			}
			if n != len(b) || f.Tenant != tenant {
				t.Fatalf("%s tenant %q: decoded %q, consumed %d of %d", name, tenant, f.Tenant, n, len(b))
			}
		}
		// The empty-tenant frame is the old frame: re-adding a suffix must
		// be the only difference.
		if len(enc("")) >= len(enc("a")) {
			t.Fatalf("%s: tenant suffix did not extend the frame", name)
		}
	}
	// Malformed suffixes: bad charset, leading '-', truncated length.
	for _, bad := range []string{"UPPER", "-x", "a/b", "sp ace"} {
		if _, _, err := DecodeRequest(AppendStatsRequest(nil, bad)); err == nil {
			t.Fatalf("accepted tenant %q", bad)
		}
	}
	// A declared suffix longer than the payload remainder.
	b := AppendStatsRequest(nil, "ab")
	b[HeaderSize] = 9 // tlen says 9, only 2 name bytes follow
	b = endFrame(b, 0)
	if _, _, err := DecodeRequest(b); err == nil {
		t.Fatal("accepted truncated tenant suffix")
	}
}

// TestLargeEncodeAllocatesOnce pins the exact-size growth of the two
// frames that carry a whole clique set: encoding a multi-thousand-clique
// snapshot (or a subscription's base delta) into a nil buffer makes one
// allocation, and the bytes equal an encode into a buffer that was
// already large enough.
func TestLargeEncodeAllocatesOnce(t *testing.T) {
	const k, n = 4, 5000
	cliques := make([][]int32, n)
	ids := make([]int32, n)
	for i := range cliques {
		b := int32(k * i)
		cliques[i] = []int32{b, b + 1, b + 2, b + 3}
		ids[i] = int32(3 * i)
	}
	removed := []int32{1, 2, 4}
	encoders := []struct {
		name string
		enc  func([]byte) []byte
	}{
		{"snapshot", func(b []byte) []byte {
			return AppendSnapshotFrame(b, 9, k, k*n, 6*n, n, cliques, true)
		}},
		{"snapshot-lean", func(b []byte) []byte {
			return AppendSnapshotFrame(b, 9, k, k*n, 6*n, n, nil, false)
		}},
		{"delta", func(b []byte) []byte {
			return AppendDeltaFrame(b, 3, 9, k, k*n, 6*n, n, removed, ids, cliques)
		}},
	}
	for _, tc := range encoders {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.enc(nil)
			want := tc.enc(make([]byte, 0, len(got)+1024))
			if !bytes.Equal(got, want) {
				t.Fatal("nil-buffer encode differs from a pre-grown encode")
			}
			if _, used, err := Decode(got); err != nil || used != len(got) {
				t.Fatalf("decode: consumed %d of %d, err %v", used, len(got), err)
			}
			if allocs := testing.AllocsPerRun(20, func() { _ = tc.enc(nil) }); allocs != 1 {
				t.Fatalf("nil-buffer encode allocated %v times, want 1", allocs)
			}
		})
	}
}
