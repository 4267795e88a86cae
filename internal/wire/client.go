package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"
)

// Client is a closed-loop/pipelined client for the raw TCP frame
// transport (internal/framesrv). The Send* methods append request frames
// to an outgoing buffer without touching the network; Flush writes the
// whole batch in one syscall; RecvRaw/Recv consume responses in request
// order. The closed-loop helpers (Snapshot, CliqueOf, Cliques, Stats)
// bundle send+flush+receive for one request at a time.
//
// The Raw receive path drains responses rather than decoding them —
// frame headers are parsed to find boundaries and payloads are
// discarded — so benchmarks measure the server, not the client's parser.
// Recv fully decodes, for tests, the subscribe stream and replication
// followers.
//
// Not safe for concurrent use; give each goroutine its own client.
type Client struct {
	conn    net.Conn
	br      *bufio.Reader
	out     []byte // accumulated request frames, written by Flush
	resp    []byte // decode scratch for Recv
	pending int    // requests flushed or buffered but not yet received
	timeout time.Duration
	tenant  string // tenant name stamped on every request ("" = default)
}

// DialTimeout bounds a client's connection attempt. A hung or
// blackholed address fails within this budget instead of inheriting the
// OS connect timeout (minutes).
const DialTimeout = 5 * time.Second

// Dial connects a client to a framesrv address, bounded by DialTimeout.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, DialTimeout)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	return &Client{conn: conn, br: bufio.NewReaderSize(conn, 64<<10)}
}

// Close hangs up.
func (c *Client) Close() error { return c.conn.Close() }

// SetIOTimeout sets the per-operation I/O deadline: every Flush bounds
// its write and every Recv/RecvRaw bounds its reads by d from the
// moment the call starts, so a hung server surfaces as a timeout error
// instead of blocking the client forever. d <= 0 (the default) disables
// deadlines — required for subscribe/replication streams, which block
// on reads for as long as the server has nothing to push.
func (c *Client) SetIOTimeout(d time.Duration) { c.timeout = d }

// armRead sets the read deadline for one receive operation.
func (c *Client) armRead() {
	if c.timeout > 0 {
		c.conn.SetReadDeadline(time.Now().Add(c.timeout))
	}
}

// Pending returns the number of requests sent (or buffered) whose
// responses have not been received yet.
func (c *Client) Pending() int { return c.pending }

// SetTenant targets every subsequent request at the named tenant of a
// multi-tenant server ("" reverts to the server's default tenant).
func (c *Client) SetTenant(name string) { c.tenant = name }

// SendSnapshot buffers a snapshot request; full selects the whole
// member list over the lean header-only variant.
func (c *Client) SendSnapshot(full bool) {
	c.out = AppendSnapshotRequest(c.out, full, c.tenant)
	c.pending++
}

// SendCliqueOf buffers a point-lookup request.
func (c *Client) SendCliqueOf(node int32) {
	c.out = AppendCliqueRequest(c.out, node, c.tenant)
	c.pending++
}

// SendCliques buffers a batched-lookup request.
func (c *Client) SendCliques(nodes []int32) {
	c.out = AppendCliquesRequest(c.out, nodes, c.tenant)
	c.pending++
}

// SendStats buffers a stats request.
func (c *Client) SendStats() {
	c.out = AppendStatsRequest(c.out, c.tenant)
	c.pending++
}

// Flush writes every buffered request in one syscall.
func (c *Client) Flush() error {
	if len(c.out) == 0 {
		return nil
	}
	if c.timeout > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(c.timeout))
	}
	_, err := c.conn.Write(c.out)
	c.out = c.out[:0]
	return err
}

// RecvRaw consumes the next response frame without decoding it: the
// header is parsed for the boundary, the payload discarded. It returns
// the frame type and total frame size. An error frame is decoded and
// returned as an error (the frame is consumed).
func (c *Client) RecvRaw() (FrameType, int, error) {
	typ, plen, err := c.readHeader()
	if err != nil {
		return 0, 0, err
	}
	if typ == FrameError {
		return typ, 0, c.readError(plen)
	}
	if err := discard(c.br, plen); err != nil {
		return 0, 0, err
	}
	c.pending--
	return typ, HeaderSize + plen, nil
}

// Recv consumes and fully decodes the next response frame. Error frames
// come back as an error, like RecvRaw.
func (c *Client) Recv() (*Frame, error) {
	_, plen, err := c.readHeader()
	if err != nil {
		return nil, err
	}
	c.growResp(plen)
	if _, err := io.ReadFull(c.br, c.resp[HeaderSize:]); err != nil {
		return nil, err
	}
	f, _, err := Decode(c.resp)
	if err != nil {
		return nil, err
	}
	c.pending--
	if f.Type == FrameError {
		return nil, fmt.Errorf("server error %d: %s", f.Status, f.Message)
	}
	return f, nil
}

// readHeader reads one frame header into the decode scratch and returns
// the frame type and payload length. It arms the per-operation read
// deadline, which the payload reads that follow it inherit.
func (c *Client) readHeader() (FrameType, int, error) {
	c.armRead()
	if cap(c.resp) < HeaderSize {
		c.resp = make([]byte, HeaderSize, 4096)
	}
	c.resp = c.resp[:HeaderSize]
	if _, err := io.ReadFull(c.br, c.resp); err != nil {
		return 0, 0, err
	}
	plen := int(binary.LittleEndian.Uint32(c.resp[8:12]))
	if plen > MaxPayload {
		return 0, 0, fmt.Errorf("frame payload of %d bytes exceeds the limit", plen)
	}
	return FrameType(c.resp[4]), plen, nil
}

// growResp widens the decode scratch to hold a full frame of plen
// payload bytes, preserving the header readHeader already filled.
func (c *Client) growResp(plen int) {
	need := HeaderSize + plen
	if cap(c.resp) < need {
		buf := make([]byte, need)
		copy(buf, c.resp[:HeaderSize])
		c.resp = buf
	}
	c.resp = c.resp[:need]
}

// readError decodes an error frame's payload into a Go error.
func (c *Client) readError(plen int) error {
	c.growResp(plen)
	if _, err := io.ReadFull(c.br, c.resp[HeaderSize:]); err != nil {
		return err
	}
	c.pending--
	f, _, err := Decode(c.resp)
	if err != nil {
		return err
	}
	return fmt.Errorf("server error %d: %s", f.Status, f.Message)
}

// discard drops n payload bytes from the read buffer.
func discard(br *bufio.Reader, n int) error {
	for n > 0 {
		d, err := br.Discard(n)
		n -= d
		if err != nil {
			return err
		}
	}
	return nil
}

// Snapshot fetches the point-in-time result set closed-loop and reports
// the frame size; full=false asks for the lean header-only variant.
func (c *Client) Snapshot(full bool) (int, error) {
	c.SendSnapshot(full)
	if err := c.Flush(); err != nil {
		return 0, err
	}
	_, n, err := c.RecvRaw()
	return n, err
}

// CliqueOf fetches the point lookup for one node closed-loop.
func (c *Client) CliqueOf(node int32) (int, error) {
	c.SendCliqueOf(node)
	if err := c.Flush(); err != nil {
		return 0, err
	}
	_, n, err := c.RecvRaw()
	return n, err
}

// Cliques fetches the batched lookup for nodes closed-loop.
func (c *Client) Cliques(nodes []int32) (int, error) {
	c.SendCliques(nodes)
	if err := c.Flush(); err != nil {
		return 0, err
	}
	_, n, err := c.RecvRaw()
	return n, err
}

// Stats fetches the counters closed-loop.
func (c *Client) Stats() (int, error) {
	c.SendStats()
	if err := c.Flush(); err != nil {
		return 0, err
	}
	_, n, err := c.RecvRaw()
	return n, err
}

// Subscribe switches the connection into the delta push stream. After
// it returns, Recv yields delta frames (feed them to a Replica) until
// the connection closes; sending anything else is a protocol error.
func (c *Client) Subscribe() error {
	c.out = AppendSubscribeRequest(c.out, c.tenant)
	return c.Flush()
}

// SendReplicate switches the connection into a replication stream (see
// internal/repl): the server answers with an optional checkpoint
// install followed by batch frames, which Recv yields until the
// connection closes. Like Subscribe, it must be the last request on the
// connection, and the stream blocks on reads indefinitely — leave the
// I/O timeout unset or the watchdog disconnects an idle primary.
func (c *Client) SendReplicate(lastEpoch, lastVersion uint64, haveState bool) error {
	c.out = AppendReplicateRequest(c.out, lastEpoch, lastVersion, haveState)
	return c.Flush()
}

// Replica is the client-side materialization of a delta stream: apply
// every delta frame in order (starting from the zero Replica) and the
// replica holds exactly the server's clique set at the delta's target
// version — SnapshotFrame re-encodes it byte-identically to the
// server's own full binary snapshot body of that version.
type Replica struct {
	version uint64
	k       int
	n, m    int
	size    int
	ids     []int32
	cliques [][]int32
}

// Version returns the snapshot version the replica currently mirrors.
func (r *Replica) Version() uint64 { return r.version }

// Size returns the number of cliques the replica currently holds.
func (r *Replica) Size() int { return r.size }

// Cliques returns the replica's clique list in the server's canonical
// (ascending clique id) order. Shared storage — do not modify.
func (r *Replica) Cliques() [][]int32 { return r.cliques }

// Apply advances the replica by one delta frame. The delta must start
// exactly at the replica's version (the stream guarantees this); any
// mismatch, unsorted id list, unknown removed id or duplicate added id
// is an error and leaves the replica unchanged.
//
// RemovedIDs, AddedIDs and the replica's own id list are all sorted, so
// one linear three-way merge rebuilds the state in O(size) regardless of
// delta churn — no per-id splicing (which would go quadratic on the big
// base delta a fresh subscription starts with).
func (r *Replica) Apply(f *Frame) error {
	if f.Type != FrameDelta {
		return fmt.Errorf("replica: frame type %d is not a delta", f.Type)
	}
	if f.FromVersion != r.version {
		return fmt.Errorf("replica: delta from version %d onto replica at %d", f.FromVersion, r.version)
	}
	if !strictlyAscending(f.RemovedIDs) || !strictlyAscending(f.AddedIDs) {
		return fmt.Errorf("replica: delta ids not strictly ascending")
	}
	hint := len(r.ids) + len(f.AddedIDs) - len(f.RemovedIDs)
	if hint < 0 {
		return fmt.Errorf("replica: delta removes %d cliques, replica holds %d", len(f.RemovedIDs), len(r.ids))
	}
	ids := make([]int32, 0, hint)
	cliques := make([][]int32, 0, hint)
	ri, ai := 0, 0
	for i, id := range r.ids {
		if ri < len(f.RemovedIDs) && f.RemovedIDs[ri] == id {
			ri++
			continue
		}
		for ai < len(f.AddedIDs) && f.AddedIDs[ai] < id {
			ids = append(ids, f.AddedIDs[ai])
			cliques = append(cliques, f.Cliques[ai])
			ai++
		}
		if ai < len(f.AddedIDs) && f.AddedIDs[ai] == id {
			return fmt.Errorf("replica: delta adds duplicate clique id %d", id)
		}
		ids = append(ids, id)
		cliques = append(cliques, r.cliques[i])
	}
	if ri < len(f.RemovedIDs) {
		return fmt.Errorf("replica: delta removes unknown clique id %d", f.RemovedIDs[ri])
	}
	for ; ai < len(f.AddedIDs); ai++ {
		ids = append(ids, f.AddedIDs[ai])
		cliques = append(cliques, f.Cliques[ai])
	}
	if len(cliques) != f.Size {
		return fmt.Errorf("replica: %d cliques after delta, frame says %d", len(cliques), f.Size)
	}
	r.ids, r.cliques = ids, cliques
	r.version, r.k, r.n, r.m, r.size = f.Version, f.K, f.Nodes, f.Edges, f.Size
	return nil
}

// strictlyAscending reports whether ids is sorted with no duplicates —
// the canonical order delta frames carry and the merge above relies on.
func strictlyAscending(ids []int32) bool {
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			return false
		}
	}
	return true
}

// SnapshotFrame appends the full binary snapshot frame for the
// replica's current state — byte-identical to the server's cached
// /snapshot body of the same version.
func (r *Replica) SnapshotFrame(b []byte) []byte {
	return AppendSnapshotFrame(b, r.version, r.k, r.n, r.m, r.size, r.cliques, true)
}
