package framesrv

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultconn"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/respcache"
	"repro/internal/serve"
	"repro/internal/wire"
	"repro/internal/workload"
)

func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	return gen.CommunitySocial(600, 8, 0.3, 1200, 42)
}

func newTestService(t testing.TB, g *graph.Graph) *serve.Service {
	t.Helper()
	res, err := core.Find(g, core.Options{K: 3, Algorithm: core.LP})
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(g, 3, res.Cliques, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// newTestServer starts a frame server on a loopback listener and
// returns its address plus the underlying service.
func newTestServer(t testing.TB, opt Options) (string, *serve.Service, *Server) {
	t.Helper()
	g := testGraph(t)
	s := newTestService(t, g)
	return startServer(t, s, opt), s, nil
}

func startServer(t testing.TB, s *serve.Service, opt Options) string {
	t.Helper()
	srv := New(s, opt)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-done; err != ErrServerClosed {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	})
	return ln.Addr().String()
}

func dial(t testing.TB, addr string) *wire.Client {
	t.Helper()
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestRequests checks each request type against the snapshot directly.
func TestRequests(t *testing.T) {
	addr, s, _ := newTestServer(t, Options{})
	snap := s.Snapshot()
	c := dial(t, addr)

	t.Run("snapshot", func(t *testing.T) {
		c.SendSnapshot(true)
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		f, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != wire.FrameSnapshot || !f.HasCliques {
			t.Fatalf("type %d hasCliques %v", f.Type, f.HasCliques)
		}
		if f.Version != snap.Version() || f.Size != snap.Size() || len(f.Cliques) != snap.Size() {
			t.Fatalf("version %d size %d (%d cliques), snapshot %d/%d",
				f.Version, f.Size, len(f.Cliques), snap.Version(), snap.Size())
		}
		// The lean variant drops the members but keeps the header.
		c.SendSnapshot(false)
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		if f, err = c.Recv(); err != nil {
			t.Fatal(err)
		}
		if f.HasCliques || f.Size != snap.Size() {
			t.Fatalf("lean frame: hasCliques %v size %d", f.HasCliques, f.Size)
		}
	})

	t.Run("snapshot-shares-http-cache", func(t *testing.T) {
		// The TCP body must be the same pre-encoded bytes respcache hands
		// the HTTP handler for this version.
		var cache respcache.Snapshot
		want := cache.Binary(snap, false)
		n, err := c.Snapshot(true)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(want) {
			t.Fatalf("TCP snapshot frame is %d bytes, direct encode %d", n, len(want))
		}
	})

	t.Run("clique", func(t *testing.T) {
		covered := snap.Cliques()[0][0]
		c.SendCliqueOf(covered)
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		f, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != wire.FrameClique || !f.Covered {
			t.Fatalf("type %d covered %v", f.Type, f.Covered)
		}
		if !bytes.Equal(int32Bytes(f.Members), int32Bytes(snap.CliqueOf(covered))) {
			t.Fatalf("members %v, want %v", f.Members, snap.CliqueOf(covered))
		}
		// An uncovered node answers covered=false, not an error.
		free := int32(-1)
		for u := int32(0); int(u) < snap.N(); u++ {
			if snap.CliqueOf(u) == nil {
				free = u
				break
			}
		}
		if free >= 0 {
			c.SendCliqueOf(free)
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			if f, err = c.Recv(); err != nil {
				t.Fatal(err)
			}
			if f.Covered {
				t.Fatalf("free node %d reported covered", free)
			}
		}
	})

	t.Run("cliques", func(t *testing.T) {
		a := snap.Cliques()[0]
		nodes := []int32{a[0], a[1], a[0]} // same clique three times -> deduplicated
		c.SendCliques(nodes)
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		f, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != wire.FrameCliques || len(f.Lookups) != 3 || len(f.Cliques) != 1 {
			t.Fatalf("type %d, %d lookups, %d cliques", f.Type, len(f.Lookups), len(f.Cliques))
		}
		for i, l := range f.Lookups {
			if l.Node != nodes[i] || l.Clique != 0 {
				t.Fatalf("lookup %d: %+v", i, l)
			}
		}
	})

	t.Run("stats", func(t *testing.T) {
		c.SendStats()
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		f, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != wire.FrameStats || f.Stats == nil {
			t.Fatalf("type %d stats %v", f.Type, f.Stats)
		}
		size, _ := f.Stats.Get("size")
		nodes, _ := f.Stats.Get("nodes")
		if size != uint64(snap.Size()) || nodes != uint64(snap.N()) {
			t.Fatalf("stats size %d nodes %d", size, nodes)
		}
	})

	t.Run("errors", func(t *testing.T) {
		c.SendCliqueOf(int32(snap.N()))
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Recv(); err == nil {
			t.Fatal("out-of-range lookup did not error")
		}
		c.SendCliques(nil)
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Recv(); err == nil {
			t.Fatal("empty batch did not error")
		}
		// Error frames keep the stream usable: a normal request after
		// them still answers.
		if _, err := c.Snapshot(false); err != nil {
			t.Fatal(err)
		}
	})
}

func int32Bytes(v []int32) []byte {
	b := make([]byte, 0, 4*len(v))
	for _, x := range v {
		b = append(b, byte(x), byte(x>>8), byte(x>>16), byte(x>>24))
	}
	return b
}

// TestPipelining pins the transport's reason to exist: many requests
// written in one batch come back as individual responses, in request
// order, after a single flush. The partial-writes variant pushes the
// same pipeline through a fault-injecting conn that fragments every
// write into tiny paced chunks, so the server's accumulation loop sees
// half-frames on most reads and must reassemble without reordering.
func TestPipelining(t *testing.T) {
	addr, s, _ := newTestServer(t, Options{})
	snap := s.Snapshot()

	run := func(t *testing.T, c *wire.Client) {
		const depth = 64
		nodes := make([]int32, depth)
		for i := range nodes {
			nodes[i] = int32(i % snap.N())
		}
		for _, u := range nodes {
			c.SendCliqueOf(u)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		for i, u := range nodes {
			f, err := c.Recv()
			if err != nil {
				t.Fatalf("response %d: %v", i, err)
			}
			if f.Node != u {
				t.Fatalf("response %d is for node %d, want %d (out of order?)", i, f.Node, u)
			}
		}
		if c.Pending() != 0 {
			t.Fatalf("%d responses unaccounted for", c.Pending())
		}
	}

	t.Run("clean", func(t *testing.T) {
		run(t, dial(t, addr))
	})

	t.Run("partial-writes", func(t *testing.T) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		fc := faultconn.Wrap(conn, faultconn.Options{Seed: 1, FragmentProb: 1})
		t.Cleanup(func() { fc.Close() })
		run(t, wire.NewClient(fc))
	})
}

// TestProtocolError checks that garbage (and response frames, which a
// client must never send) get one error frame and a hangup.
func TestProtocolError(t *testing.T) {
	addr, _, _ := newTestServer(t, Options{})

	for name, raw := range map[string][]byte{
		"garbage":        []byte("GET / HTTP/1.1\r\n\r\n"),
		"response-frame": wire.AppendErrorFrame(nil, 500, "client should not send this"),
	} {
		t.Run(name, func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(raw); err != nil {
				t.Fatal(err)
			}
			c := wire.NewClient(conn)
			if _, err := c.Recv(); err == nil {
				t.Fatal("protocol violation did not produce an error")
			}
			// The connection must be closed after the error frame.
			conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			var one [1]byte
			if _, err := conn.Read(one[:]); err == nil {
				t.Fatal("connection still open after protocol error")
			}
		})
	}
}

// TestOversizedRequestRejected pins the request-direction payload bound:
// a header announcing a payload beyond any legitimate request draws one
// error frame and a hangup before the payload is ever buffered, so a
// drip-feeding client cannot make the server hold hundreds of megabytes.
func TestOversizedRequestRejected(t *testing.T) {
	addr, _, _ := newTestServer(t, Options{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// A valid header claiming a 1MB batched lookup, payload never sent.
	hdr := make([]byte, wire.HeaderSize)
	copy(hdr, "DKW1")
	hdr[4] = byte(wire.FrameReqCliques)
	binary.LittleEndian.PutUint32(hdr[8:12], 1<<20)
	if _, err := conn.Write(hdr); err != nil {
		t.Fatal(err)
	}

	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	c := wire.NewClient(conn)
	if _, err := c.Recv(); err == nil {
		t.Fatal("oversized request header did not draw an error")
	}
	var one [1]byte
	if _, err := conn.Read(one[:]); err == nil {
		t.Fatal("connection still open after an oversized request")
	}
}

// TestSubscribeEndsWhenServiceCloses pins the stream's behaviour over a
// closed Service: the subscriber's connection must end promptly instead
// of hanging on (or spinning against) a publication that can never come.
func TestSubscribeEndsWhenServiceCloses(t *testing.T) {
	g := testGraph(t)
	s := newTestService(t, g)
	addr := startServer(t, s, Options{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := wire.NewClient(conn)
	if err := c.Subscribe(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recv(); err != nil {
		t.Fatal(err) // the base delta
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		_, err := c.Recv()
		if err == nil {
			continue // a final delta may still be streamed
		}
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatal("subscribe stream still alive 5s after the service closed")
		}
		return
	}
}

// TestDeltaStream is the acceptance criterion of the subscribe mode:
// snapshots reconstructed by applying the delta stream to an empty
// replica are byte-identical to the server's own full binary snapshot
// bodies of the same versions.
func TestDeltaStream(t *testing.T) {
	addr, s, _ := newTestServer(t, Options{})

	sub := dial(t, addr)
	if err := sub.Subscribe(); err != nil {
		t.Fatal(err)
	}
	var rep wire.Replica
	// advance applies deltas until the replica reaches version v.
	advance := func(v uint64) {
		t.Helper()
		for rep.Version() < v {
			f, err := sub.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if err := rep.Apply(f); err != nil {
				t.Fatal(err)
			}
		}
		if rep.Version() != v {
			t.Fatalf("replica at version %d, want %d", rep.Version(), v)
		}
	}

	fetch := dial(t, addr)
	check := func() {
		t.Helper()
		fetch.SendSnapshot(true)
		if err := fetch.Flush(); err != nil {
			t.Fatal(err)
		}
		f, err := fetch.Recv()
		if err != nil {
			t.Fatal(err)
		}
		want := wire.AppendSnapshotFrame(nil, f.Version, f.K, f.Nodes, f.Edges, f.Size, f.Cliques, true)
		advance(f.Version)
		if got := rep.SnapshotFrame(nil); !bytes.Equal(got, want) {
			t.Fatalf("version %d: reconstructed snapshot differs from fetched one (%d vs %d bytes)",
				f.Version, len(got), len(want))
		}
	}

	// First delta: the whole current snapshot from the empty base.
	check()

	// Drive random updates (flushed one batch at a time so the stream
	// has stable versions to land on) and re-check after each.
	rng := rand.New(rand.NewSource(7))
	n := int32(s.Snapshot().N())
	ctx := context.Background()
	for i := 0; i < 30; i++ {
		ops := make([]workload.Op, 1+rng.Intn(4))
		for j := range ops {
			u, v := rng.Int31n(n), rng.Int31n(n)
			for u == v {
				v = rng.Int31n(n)
			}
			ops[j] = workload.Op{Insert: rng.Intn(3) > 0, U: u, V: v}
		}
		if err := s.Enqueue(ctx, ops...); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		check()
	}
}

// TestSubscribeRejectsFurtherFrames pins the protocol: a frame after
// subscribe ends the stream.
func TestSubscribeRejectsFurtherFrames(t *testing.T) {
	addr, _, _ := newTestServer(t, Options{})
	c := dial(t, addr)
	if err := c.Subscribe(); err != nil {
		t.Fatal(err)
	}
	// First delta arrives.
	if _, err := c.Recv(); err != nil {
		t.Fatal(err)
	}
	c.SendStats()
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// The server hangs up (possibly after an error frame): the stream
	// must end rather than answer.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("stream still alive after a post-subscribe frame")
		}
		if _, err := c.Recv(); err != nil {
			return
		}
	}
}

// TestGracefulShutdown proves in-flight pipelined requests drain: a
// batch written before Shutdown is fully answered before the connection
// closes, and the listener stops accepting.
func TestGracefulShutdown(t *testing.T) {
	g := testGraph(t)
	s := newTestService(t, g)
	srv := New(s, Options{DrainGrace: 300 * time.Millisecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	c := dial(t, ln.Addr().String())
	// One round trip first, so the server has accepted the connection
	// before Shutdown closes the listener: a connection still in the
	// kernel's accept queue at that point is reset, not drained.
	c.SendCliqueOf(0)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recv(); err != nil {
		t.Fatal(err)
	}
	const depth = 50
	for i := 0; i < depth; i++ {
		c.SendCliqueOf(int32(i))
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	shut := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shut <- srv.Shutdown(ctx)
	}()

	for i := 0; i < depth; i++ {
		if _, err := c.Recv(); err != nil {
			t.Fatalf("response %d lost during shutdown: %v", i, err)
		}
	}
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-done; err != ErrServerClosed {
		t.Fatalf("Serve returned %v", err)
	}
	// The listener is gone.
	if conn, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		conn.Close()
		t.Fatal("listener still accepting after Shutdown")
	}
	// Serve on a closed server refuses.
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(ln2); err != ErrServerClosed {
		t.Fatalf("Serve after Shutdown returned %v", err)
	}
}

// TestConcurrentPipelines is the -race hammer: concurrent pipelined
// readers (and one subscriber) against a live writer, asserting
// per-connection response-version monotonicity throughout.
func TestConcurrentPipelines(t *testing.T) {
	addr, s, _ := newTestServer(t, Options{})
	n := int32(s.Snapshot().N())

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		rng := rand.New(rand.NewSource(42))
		ctx := context.Background()
		for {
			select {
			case <-stop:
				return
			default:
			}
			u, v := rng.Int31n(n), rng.Int31n(n)
			if u == v {
				continue
			}
			if err := s.Enqueue(ctx, workload.Op{Insert: rng.Intn(3) > 0, U: u, V: v}); err != nil {
				return
			}
		}
	}()

	var readers sync.WaitGroup
	errs := make(chan error, 8)
	for r := 0; r < 6; r++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			c, err := wire.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(seed))
			var last uint64
			for iter := 0; iter < 60; iter++ {
				depth := 1 + rng.Intn(16)
				for i := 0; i < depth; i++ {
					switch rng.Intn(4) {
					case 0:
						c.SendSnapshot(false)
					case 1:
						c.SendCliqueOf(rng.Int31n(n))
					case 2:
						c.SendCliques([]int32{rng.Int31n(n), rng.Int31n(n)})
					default:
						c.SendStats()
					}
				}
				if err := c.Flush(); err != nil {
					errs <- err
					return
				}
				for i := 0; i < depth; i++ {
					f, err := c.Recv()
					if err != nil {
						errs <- err
						return
					}
					if f.Version < last {
						errs <- fmt.Errorf("version went backwards: %d after %d", f.Version, last)
						return
					}
					last = f.Version
				}
			}
		}(int64(r))
	}

	// One subscriber replica rides along, checking the stream stays
	// applicable while the writer churns.
	readers.Add(1)
	go func() {
		defer readers.Done()
		c, err := wire.Dial(addr)
		if err != nil {
			errs <- err
			return
		}
		defer c.Close()
		if err := c.Subscribe(); err != nil {
			errs <- err
			return
		}
		var rep wire.Replica
		for i := 0; i < 40; i++ {
			f, err := c.Recv()
			if err != nil {
				errs <- err
				return
			}
			if err := rep.Apply(f); err != nil {
				errs <- err
				return
			}
		}
	}()

	readers.Wait()
	close(stop)
	writer.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
