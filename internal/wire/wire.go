// Package wire implements the compact binary read protocol of the
// serving layer: framed, CRC-checked encodings of the snapshot, point
// clique lookups, batched multi-node lookups and the stats counters, in
// the same length-prefixed/CRC-32 idiom as internal/wal. The JSON API
// re-marshals reflective structs on every response; these frames are
// flat little-endian arrays that encode with appends into a caller-held
// buffer (zero allocations once the buffer is warm) and memcpy straight
// onto the wire, which is what makes the snapshot-version response cache
// of the HTTP layer an allocation-free memcpy per request.
//
// Frame layout:
//
//	[4]  magic "DKW1" (the digit is the protocol version)
//	[1]  frame type
//	[3]  reserved, must be zero
//	[4]  payload length L (little-endian uint32)
//	[4]  CRC-32 (IEEE) of the payload
//	[L]  payload, per-type layout below
//
// Payloads (all integers little-endian; node ids are int32 cast to
// uint32; every clique holds exactly k members, so member lists need no
// per-clique length):
//
//	snapshot: [8] version, [4] k, [4] nodes, [4] edges, [4] size,
//	          [1] hasCliques; if hasCliques: size × k × [4] members
//	clique:   [8] version, [4] node, [4] k, [1] covered;
//	          if covered: k × [4] members
//	cliques:  [8] version, [4] k, [4] ncliques, [4] nlookups,
//	          ncliques × k × [4] members,
//	          nlookups × ([4] node, [4] clique index or -1)
//	stats:    [8] version, 21 × [8] counters (see Stats.counters)
//	error:    [4] HTTP status, then the UTF-8 message
//	delta:    [8] fromVersion, [8] toVersion, [4] k, [4] nodes, [4] edges,
//	          [4] size, [4] nRemoved, [4] nAdded,
//	          nRemoved × [4] removed clique id,
//	          nAdded × ([4] clique id, k × [4] members)
//
// Request frames (see request.go) mirror the responses and share the
// header; DecodeRequest accepts only them, Decode only responses, so a
// confused peer is a protocol error rather than a misparse.
//
// The decoder never panics on hostile input: every length is bounds-
// checked against the payload before a byte is read, flag bytes must be
// exactly 0 or 1, reserved bytes must be zero, and batched clique
// indices must be -1 or in range — so decode∘encode is the identity on
// every frame Decode accepts (FuzzWireDecode pins both properties).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/graph"
)

// magic identifies a wire frame; the trailing digit is the protocol
// version.
var magic = [4]byte{'D', 'K', 'W', '1'}

const (
	// HeaderSize is the fixed frame header length (magic, type, reserved,
	// payload length, CRC).
	HeaderSize = 16

	// MaxPayload bounds a single frame so a corrupted or hostile length
	// prefix cannot demand an absurd allocation.
	MaxPayload = 1 << 28

	// ContentType is the MIME type of a binary frame stream; clients
	// request binary responses with "Accept: application/x-dkclique-frame"
	// and servers stamp it on frame responses.
	ContentType = "application/x-dkclique-frame"
)

// FrameType tags a frame's payload layout.
type FrameType byte

const (
	// FrameSnapshot carries the full (or member-less) result set.
	FrameSnapshot FrameType = 1
	// FrameClique carries one point lookup: the clique covering a node.
	FrameClique FrameType = 2
	// FrameCliques carries a batched lookup: many nodes resolved against
	// one snapshot, with shared cliques deduplicated.
	FrameCliques FrameType = 3
	// FrameStats carries the service and engine counters.
	FrameStats FrameType = 4
	// FrameError carries an HTTP status code and a message.
	FrameError FrameType = 5
	// FrameDelta carries the difference between two snapshots: the
	// cliques removed and added between fromVersion and toVersion, keyed
	// by their stable engine clique ids. Applying a delta stream to an
	// empty base reproduces the target snapshot exactly (see the payload
	// doc above and internal/framesrv for the streaming protocol).
	FrameDelta FrameType = 6
)

// Decode errors. ErrShort means the input ends before the frame does —
// the caller should read more bytes; everything else is malformed input.
var (
	ErrShort    = errors.New("wire: incomplete frame")
	ErrBadMagic = errors.New("wire: bad magic")
	ErrBadCRC   = errors.New("wire: payload CRC mismatch")
)

// Lookup is one entry of a batched-lookup frame: the queried node and
// the index of its clique in the frame's deduplicated clique list, or -1
// when the node is uncovered.
type Lookup struct {
	Node   int32
	Clique int32
}

// Stats is the counter block of a stats frame. IndexBuildUS is the
// engine's cumulative index-build time in microseconds; QueueDepth and
// SnapshotAge are instantaneous gauges (ops accepted but not yet applied,
// and versions published since S last changed); everything else mirrors
// the JSON /stats fields.
type Stats struct {
	Size, Nodes, Edges           uint64
	Enqueued, Applied, Changed   uint64
	Batches, Flushes             uint64
	Recovered, Checkpoints       uint64
	WALBatches, WALBytes         uint64
	Insertions, Deletions, Swaps uint64
	IndexBuildUS                 uint64
	QueueDepth, SnapshotAge      uint64
	// Write-path pipeline counters: completed WAL fsyncs, the ops those
	// fsyncs made durable (their ratio is the group-commit coalescing
	// factor), and cumulative writer stall on checkpoint rollovers.
	WALSyncs, GroupCommitOps uint64
	CheckpointStallNs        uint64
}

// statsFields is the number of 8-byte counters a stats payload carries
// after the version.
const statsFields = 21

// counters lists st's counters in frame order, the one list both the
// stats encoder and its decoder walk.
func (st *Stats) counters() [statsFields]*uint64 {
	return [statsFields]*uint64{
		&st.Size, &st.Nodes, &st.Edges,
		&st.Enqueued, &st.Applied, &st.Changed,
		&st.Batches, &st.Flushes,
		&st.Recovered, &st.Checkpoints,
		&st.WALBatches, &st.WALBytes,
		&st.Insertions, &st.Deletions, &st.Swaps,
		&st.IndexBuildUS,
		&st.QueueDepth, &st.SnapshotAge,
		&st.WALSyncs, &st.GroupCommitOps,
		&st.CheckpointStallNs,
	}
}

// Frame is one decoded frame. Only the fields of the decoded Type are
// meaningful; slices alias the input buffer's decoded copies and belong
// to the caller.
type Frame struct {
	Type    FrameType
	Version uint64

	// Tenant is the tenant a REQUEST frame targets ("" = the server's
	// default tenant). Carried as an optional, version-gated suffix on
	// the request payloads — see request.go; response frames never set
	// it.
	Tenant string

	// Snapshot fields.
	K          int
	Nodes      int
	Edges      int
	Size       int
	HasCliques bool
	// Cliques holds the member lists of a snapshot frame (when
	// HasCliques) or the deduplicated cliques of a batched frame.
	Cliques [][]int32

	// Point-lookup fields.
	Node    int32
	Covered bool
	Members []int32

	// Batched-lookup resolution, indices into Cliques.
	Lookups []Lookup

	// Delta frame fields: the version the delta starts from (Version is
	// the version it produces), the ids of the cliques removed, and the
	// ids of the cliques added — whose members are carried in Cliques,
	// parallel to AddedIDs.
	FromVersion uint64
	RemovedIDs  []int32
	AddedIDs    []int32

	// Queried holds the node ids of a batched-lookup request frame.
	Queried []int32

	// Stats frame counters.
	Stats *Stats

	// Error frame fields.
	Status  int
	Message string

	// Replication frame fields (see repl.go): the primary epoch stamped
	// on every stream frame, the opaque engine checkpoint bytes of an
	// install frame, the edge ops of a shipped batch, and the haveState
	// flag of a replicate request.
	Epoch      uint64
	Checkpoint []byte
	ReplOps    []graph.Op
	HaveState  bool
}

// grow returns b with room for n more bytes, reallocating at most once:
// to exactly n bytes when b has no capacity, and at least doubling it
// otherwise, so a caller appending many frames to one buffer still grows
// it geometrically. Unlike slices.Grow it makes one allocation in
// race-instrumented builds too.
func grow(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b
	}
	nb := make([]byte, len(b), max(len(b)+n, 2*cap(b)))
	copy(nb, b)
	return nb
}

// beginFrame appends a frame header with placeholder length and CRC,
// returning the offset endFrame needs to patch them.
func beginFrame(b []byte, t FrameType) ([]byte, int) {
	mark := len(b)
	b = append(b, magic[:]...)
	b = append(b, byte(t), 0, 0, 0)
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0)
	return b, mark
}

// endFrame patches the payload length and CRC of the frame opened at
// mark.
func endFrame(b []byte, mark int) []byte {
	payload := b[mark+HeaderSize:]
	binary.LittleEndian.PutUint32(b[mark+8:mark+12], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[mark+12:mark+16], crc32.ChecksumIEEE(payload))
	return b
}

// AppendSnapshotFrame appends a snapshot frame to b and returns the
// extended buffer. cliques is included only when include is set (the
// ?cliques=0 lean variant passes false); size should be the clique count
// either way. b grows once, to the frame's exact size (each clique has k
// members), so a nil b costs one allocation however large the snapshot.
func AppendSnapshotFrame(b []byte, version uint64, k, nodes, edges, size int, cliques [][]int32, include bool) []byte {
	payload := 8 + 4*4 + 1
	if include {
		payload += 4 * k * len(cliques)
	}
	b = grow(b, HeaderSize+payload)
	b, mark := beginFrame(b, FrameSnapshot)
	b = binary.LittleEndian.AppendUint64(b, version)
	b = binary.LittleEndian.AppendUint32(b, uint32(k))
	b = binary.LittleEndian.AppendUint32(b, uint32(nodes))
	b = binary.LittleEndian.AppendUint32(b, uint32(edges))
	b = binary.LittleEndian.AppendUint32(b, uint32(size))
	if include {
		b = append(b, 1)
		for _, c := range cliques {
			b = appendMembers(b, c)
		}
	} else {
		b = append(b, 0)
	}
	return endFrame(b, mark)
}

// AppendCliqueFrame appends a point-lookup frame: members nil means
// uncovered, otherwise it must hold exactly k ids.
func AppendCliqueFrame(b []byte, version uint64, node int32, k int, members []int32) []byte {
	b, mark := beginFrame(b, FrameClique)
	b = binary.LittleEndian.AppendUint64(b, version)
	b = binary.LittleEndian.AppendUint32(b, uint32(node))
	b = binary.LittleEndian.AppendUint32(b, uint32(k))
	if members != nil {
		b = append(b, 1)
		b = appendMembers(b, members)
	} else {
		b = append(b, 0)
	}
	return endFrame(b, mark)
}

// AppendCliquesFrame appends a batched-lookup frame: cliques is the
// deduplicated clique list (each of exactly k members), lookups resolves
// each queried node to an index in it or -1.
func AppendCliquesFrame(b []byte, version uint64, k int, cliques [][]int32, lookups []Lookup) []byte {
	b, mark := beginFrame(b, FrameCliques)
	b = binary.LittleEndian.AppendUint64(b, version)
	b = binary.LittleEndian.AppendUint32(b, uint32(k))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(cliques)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(lookups)))
	for _, c := range cliques {
		b = appendMembers(b, c)
	}
	for _, l := range lookups {
		b = binary.LittleEndian.AppendUint32(b, uint32(l.Node))
		b = binary.LittleEndian.AppendUint32(b, uint32(l.Clique))
	}
	return endFrame(b, mark)
}

// AppendStatsFrame appends a stats frame.
func AppendStatsFrame(b []byte, version uint64, st *Stats) []byte {
	b, mark := beginFrame(b, FrameStats)
	b = binary.LittleEndian.AppendUint64(b, version)
	for _, v := range st.counters() {
		b = binary.LittleEndian.AppendUint64(b, *v)
	}
	return endFrame(b, mark)
}

// AppendDeltaFrame appends a delta frame describing the S-change between
// the snapshots at fromVersion and toVersion: removed lists the ids of
// dissolved cliques, addedIDs/added (parallel, each clique exactly k
// members) the installed ones. k, nodes, edges and size describe the
// target snapshot, so a consumer tracking deltas always knows the full
// snapshot header. Like AppendSnapshotFrame it grows b once, to the
// frame's exact size: a subscription's first delta is the whole set.
func AppendDeltaFrame(b []byte, fromVersion, toVersion uint64, k, nodes, edges, size int,
	removed, addedIDs []int32, added [][]int32) []byte {
	b = grow(b, HeaderSize+2*8+6*4+4*len(removed)+4*(1+k)*len(addedIDs))
	b, mark := beginFrame(b, FrameDelta)
	b = binary.LittleEndian.AppendUint64(b, fromVersion)
	b = binary.LittleEndian.AppendUint64(b, toVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(k))
	b = binary.LittleEndian.AppendUint32(b, uint32(nodes))
	b = binary.LittleEndian.AppendUint32(b, uint32(edges))
	b = binary.LittleEndian.AppendUint32(b, uint32(size))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(removed)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(addedIDs)))
	b = appendMembers(b, removed)
	for i, id := range addedIDs {
		b = binary.LittleEndian.AppendUint32(b, uint32(id))
		b = appendMembers(b, added[i])
	}
	return endFrame(b, mark)
}

// AppendErrorFrame appends an error frame carrying an HTTP status code
// and a message.
func AppendErrorFrame(b []byte, status int, msg string) []byte {
	b, mark := beginFrame(b, FrameError)
	b = binary.LittleEndian.AppendUint32(b, uint32(status))
	b = append(b, msg...)
	return endFrame(b, mark)
}

func appendMembers(b []byte, members []int32) []byte {
	for _, u := range members {
		b = binary.LittleEndian.AppendUint32(b, uint32(u))
	}
	return b
}

// Decode parses the first frame of data and returns it together with
// the number of bytes it consumed, so back-to-back frames decode by
// re-slicing. It never panics: a frame cut short returns ErrShort (read
// more and retry), anything structurally invalid returns a permanent
// error. Decoded slices are fresh copies, independent of data.
func Decode(data []byte) (*Frame, int, error) {
	typ, payload, n, err := decodeHeader(data)
	if err != nil {
		return nil, 0, err
	}
	f := &Frame{Type: typ}
	switch typ {
	case FrameSnapshot:
		err = f.decodeSnapshot(payload)
	case FrameClique:
		err = f.decodeClique(payload)
	case FrameCliques:
		err = f.decodeCliques(payload)
	case FrameStats:
		err = f.decodeStats(payload)
	case FrameError:
		err = f.decodeError(payload)
	case FrameDelta:
		err = f.decodeDelta(payload)
	case FrameReplCheckpoint:
		err = f.decodeReplCheckpoint(payload)
	case FrameReplBatch:
		err = f.decodeReplBatch(payload)
	default:
		err = fmt.Errorf("wire: unknown frame type %d", typ)
	}
	if err != nil {
		return nil, 0, err
	}
	return f, n, nil
}

// decodeHeader validates the fixed frame header (magic, reserved bytes,
// bounded payload length, CRC) and returns the frame type, its payload
// and the total consumed length. Shared by Decode and DecodeRequest.
func decodeHeader(data []byte) (FrameType, []byte, int, error) {
	if len(data) < HeaderSize {
		return 0, nil, 0, ErrShort
	}
	if [4]byte(data[0:4]) != magic {
		return 0, nil, 0, ErrBadMagic
	}
	typ := FrameType(data[4])
	if data[5] != 0 || data[6] != 0 || data[7] != 0 {
		return 0, nil, 0, fmt.Errorf("wire: nonzero reserved bytes")
	}
	plen := int64(binary.LittleEndian.Uint32(data[8:12]))
	if plen > MaxPayload {
		return 0, nil, 0, fmt.Errorf("wire: payload of %d bytes exceeds the frame bound", plen)
	}
	if int64(len(data)) < HeaderSize+plen {
		return 0, nil, 0, ErrShort
	}
	payload := data[HeaderSize : HeaderSize+plen]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[12:16]) {
		return 0, nil, 0, ErrBadCRC
	}
	return typ, payload, HeaderSize + int(plen), nil
}

func (f *Frame) decodeSnapshot(p []byte) error {
	if len(p) < 25 {
		return fmt.Errorf("wire: snapshot payload of %d bytes below the fixed part", len(p))
	}
	f.Version = binary.LittleEndian.Uint64(p[0:8])
	f.K = int(int32(binary.LittleEndian.Uint32(p[8:12])))
	f.Nodes = int(int32(binary.LittleEndian.Uint32(p[12:16])))
	f.Edges = int(int32(binary.LittleEndian.Uint32(p[16:20])))
	f.Size = int(int32(binary.LittleEndian.Uint32(p[20:24])))
	if f.K < 0 || f.Nodes < 0 || f.Edges < 0 || f.Size < 0 {
		return fmt.Errorf("wire: negative snapshot dimensions")
	}
	switch p[24] {
	case 0:
		if len(p) != 25 {
			return fmt.Errorf("wire: %d trailing bytes after a lean snapshot", len(p)-25)
		}
		return nil
	case 1:
		f.HasCliques = true
	default:
		return fmt.Errorf("wire: snapshot hasCliques flag is %d", p[24])
	}
	var err error
	f.Cliques, err = decodeCliqueList(p[25:], f.Size, f.K)
	return err
}

func (f *Frame) decodeClique(p []byte) error {
	if len(p) < 17 {
		return fmt.Errorf("wire: clique payload of %d bytes below the fixed part", len(p))
	}
	f.Version = binary.LittleEndian.Uint64(p[0:8])
	f.Node = int32(binary.LittleEndian.Uint32(p[8:12]))
	f.K = int(int32(binary.LittleEndian.Uint32(p[12:16])))
	if f.K < 0 {
		return fmt.Errorf("wire: negative k")
	}
	switch p[16] {
	case 0:
		if len(p) != 17 {
			return fmt.Errorf("wire: %d trailing bytes after an uncovered lookup", len(p)-17)
		}
		return nil
	case 1:
		f.Covered = true
	default:
		return fmt.Errorf("wire: clique covered flag is %d", p[16])
	}
	rest := p[17:]
	if int64(len(rest)) != 4*int64(f.K) {
		return fmt.Errorf("wire: %d member bytes for k=%d", len(rest), f.K)
	}
	f.Members = decodeIDs(rest, f.K)
	return nil
}

func (f *Frame) decodeCliques(p []byte) error {
	if len(p) < 20 {
		return fmt.Errorf("wire: batched payload of %d bytes below the fixed part", len(p))
	}
	f.Version = binary.LittleEndian.Uint64(p[0:8])
	f.K = int(int32(binary.LittleEndian.Uint32(p[8:12])))
	nc := int(int32(binary.LittleEndian.Uint32(p[12:16])))
	nl := int(int32(binary.LittleEndian.Uint32(p[16:20])))
	if f.K < 0 || nc < 0 || nl < 0 {
		return fmt.Errorf("wire: negative batched dimensions")
	}
	rest := p[20:]
	memberBytes := 4 * int64(nc) * int64(f.K)
	if int64(len(rest)) != memberBytes+8*int64(nl) {
		return fmt.Errorf("wire: batched payload of %d bytes for %d cliques × k=%d + %d lookups",
			len(rest), nc, f.K, nl)
	}
	var err error
	f.Cliques, err = decodeCliqueList(rest[:memberBytes], nc, f.K)
	if err != nil {
		return err
	}
	f.Lookups = make([]Lookup, nl)
	for i := range f.Lookups {
		off := memberBytes + 8*int64(i)
		l := Lookup{
			Node:   int32(binary.LittleEndian.Uint32(rest[off : off+4])),
			Clique: int32(binary.LittleEndian.Uint32(rest[off+4 : off+8])),
		}
		if l.Clique < -1 || int(l.Clique) >= nc {
			return fmt.Errorf("wire: lookup %d points at clique %d of %d", i, l.Clique, nc)
		}
		f.Lookups[i] = l
	}
	return nil
}

func (f *Frame) decodeStats(p []byte) error {
	if len(p) != 8+8*statsFields {
		return fmt.Errorf("wire: stats payload of %d bytes, want %d", len(p), 8+8*statsFields)
	}
	f.Version = binary.LittleEndian.Uint64(p[0:8])
	f.Stats = new(Stats)
	for i, v := range f.Stats.counters() {
		*v = binary.LittleEndian.Uint64(p[8+8*i:])
	}
	return nil
}

func (f *Frame) decodeDelta(p []byte) error {
	if len(p) < 40 {
		return fmt.Errorf("wire: delta payload of %d bytes below the fixed part", len(p))
	}
	f.FromVersion = binary.LittleEndian.Uint64(p[0:8])
	f.Version = binary.LittleEndian.Uint64(p[8:16])
	f.K = int(int32(binary.LittleEndian.Uint32(p[16:20])))
	f.Nodes = int(int32(binary.LittleEndian.Uint32(p[20:24])))
	f.Edges = int(int32(binary.LittleEndian.Uint32(p[24:28])))
	f.Size = int(int32(binary.LittleEndian.Uint32(p[28:32])))
	nr := int(int32(binary.LittleEndian.Uint32(p[32:36])))
	na := int(int32(binary.LittleEndian.Uint32(p[36:40])))
	if f.K < 0 || f.Nodes < 0 || f.Edges < 0 || f.Size < 0 || nr < 0 || na < 0 {
		return fmt.Errorf("wire: negative delta dimensions")
	}
	rest := p[40:]
	remBytes := 4 * int64(nr)
	addBytes := int64(na) * (4 + 4*int64(f.K))
	if int64(len(rest)) != remBytes+addBytes {
		return fmt.Errorf("wire: delta payload of %d bytes for %d removed + %d added × k=%d",
			len(rest), nr, na, f.K)
	}
	f.RemovedIDs = decodeIDs(rest[:remBytes], nr)
	f.AddedIDs = make([]int32, na)
	f.Cliques = make([][]int32, na)
	// One flat allocation for all added members, as in decodeCliqueList.
	flat := make([]int32, na*f.K)
	for i := 0; i < na; i++ {
		off := remBytes + int64(i)*(4+4*int64(f.K))
		f.AddedIDs[i] = int32(binary.LittleEndian.Uint32(rest[off : off+4]))
		c := flat[i*f.K : (i+1)*f.K : (i+1)*f.K]
		for j := range c {
			c[j] = int32(binary.LittleEndian.Uint32(rest[off+4+4*int64(j):]))
		}
		f.Cliques[i] = c
	}
	return nil
}

func (f *Frame) decodeError(p []byte) error {
	if len(p) < 4 {
		return fmt.Errorf("wire: error payload of %d bytes below the fixed part", len(p))
	}
	f.Status = int(int32(binary.LittleEndian.Uint32(p[0:4])))
	if f.Status < 0 {
		return fmt.Errorf("wire: negative error status")
	}
	f.Message = string(p[4:])
	return nil
}

// decodeCliqueList decodes count cliques of k members each; p must hold
// exactly count*k ids (callers pre-check the byte count, this re-checks
// so it is safe standalone).
func decodeCliqueList(p []byte, count, k int) ([][]int32, error) {
	if int64(len(p)) != 4*int64(count)*int64(k) {
		return nil, fmt.Errorf("wire: %d member bytes for %d cliques × k=%d", len(p), count, k)
	}
	// One flat allocation for all members; the per-clique slices alias it.
	flat := decodeIDs(p, count*k)
	out := make([][]int32, count)
	for i := range out {
		out[i] = flat[i*k : (i+1)*k : (i+1)*k]
	}
	return out, nil
}

func decodeIDs(p []byte, n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(p[4*i:]))
	}
	return out
}
