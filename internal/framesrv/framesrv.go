// Package framesrv is the raw TCP front end over a serving-layer
// Service: persistent connections speaking the length-prefixed binary
// frames of internal/wire natively, with none of the HTTP machinery
// (request parsing, header maps, chunking) between a reader and the
// pre-encoded bytes.
//
// Each connection runs a pipelined request/response loop: the server
// decodes every complete request frame the last read delivered, writes
// all the responses into one buffered writer and flushes once per
// readable batch — so a client that keeps n requests in flight pays the
// syscall and wakeup cost once per batch, not once per request.
// Responses come back in request order, each answered against the
// latest published snapshot at its turn (hence per-connection response
// versions are monotone). Snapshot bodies are served from the same
// respcache.Snapshot cache the HTTP handler mounts, so both transports
// answer a given version with the same pre-encoded bytes.
//
// A subscribe request flips the connection into a push stream: the
// server sends delta frames (cliques removed/added between consecutive
// published snapshots) starting from the empty base, so the first delta
// carries the whole current snapshot. Applying the deltas in order
// reproduces every streamed version's clique set exactly; bursts of
// publications coalesce naturally into one delta spanning them.
package framesrv

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/dynamic"
	"repro/internal/respcache"
	"repro/internal/serve"
	"repro/internal/wire"
)

// Service is the serving surface the frame server runs over. Both
// *serve.Service and the public dkclique.Service satisfy it.
type Service interface {
	// Snapshot returns the latest published result snapshot.
	Snapshot() *dynamic.Snapshot
	// Stats returns the service activity counters.
	Stats() serve.Stats
	// K returns the clique size.
	K() int
	// Published returns the channel closed at the next snapshot publish.
	Published() <-chan struct{}
}

// TenantHandle is one resolved, pinned tenant: the read surface a
// request is answered against plus the tenant's private response-body
// cache. Release must be called when the request (or, for subscribe,
// the stream) is done — it unpins the tenant for idle eviction.
// *manager.Handle satisfies this.
type TenantHandle interface {
	Service
	Cache() *respcache.Snapshot
	Release()
}

// TenantResolver resolves the tenant name of a request frame to a
// pinned handle. name is never empty — the server substitutes its
// default tenant name for frames without a tenant suffix before
// resolving. Errors are answered as error frames: a *StatusError
// chooses the status, anything else answers 404 (the common failure is
// an unknown tenant).
type TenantResolver interface {
	AcquireTenant(name string) (TenantHandle, error)
}

// StatusError carries the HTTP-equivalent status a resolver failure
// should answer with.
type StatusError struct {
	Code int
	Err  error
}

func (e *StatusError) Error() string { return e.Err.Error() }
func (e *StatusError) Unwrap() error { return e.Err }

// ReplHandler serves the primary side of a replication stream on a
// connection whose last request was a replicate frame (repl.Primary
// implements it). The handler owns the connection until it returns;
// done is the server's shutdown signal.
type ReplHandler interface {
	ServeReplication(conn net.Conn, bw *bufio.Writer, req *wire.Frame, done <-chan struct{})
}

// Options tunes a Server; the zero value picks the dkserver defaults.
type Options struct {
	// MaxOps caps the node ids per batched lookup request. Default 8192,
	// matching the HTTP handler.
	MaxOps int
	// Cache is the shared snapshot-body cache; pass the same instance to
	// httpapi.Options.Cache and both transports answer a version from
	// one set of pre-encoded bytes. Nil gets a private instance.
	Cache *respcache.Snapshot
	// DrainGrace is how long Shutdown keeps serving already-connected
	// clients: each connection's next read deadline is set DrainGrace
	// into the future, so requests written before (or racing with) the
	// shutdown are still read and answered. Default 250ms.
	DrainGrace time.Duration
	// Repl, when non-nil, enables replication streams: a replicate
	// request hands the connection to this handler. Nil answers such
	// requests with an error frame. Replication streams are never
	// tenant-routed — they serve the default tenant's service.
	Repl ReplHandler
	// Tenants, when non-nil, enables multi-tenant serving: every request
	// frame is resolved through it — frames without a tenant suffix
	// resolve as the tenant named "default" (manager.DefaultTenant) —
	// and answered against the returned handle's service and cache. Nil
	// keeps the single-tenant behaviour: the constructor's service
	// answers everything and a tenant-suffixed frame gets a 404 error
	// frame.
	Tenants TenantResolver
}

// defaultTenant is the name substituted for requests without a tenant
// suffix when Options.Tenants is set.
const defaultTenant = "default"

func (o Options) withDefaults() Options {
	if o.MaxOps <= 0 {
		o.MaxOps = 8192
	}
	if o.DrainGrace <= 0 {
		o.DrainGrace = 250 * time.Millisecond
	}
	return o
}

// ErrServerClosed is returned by Serve after Shutdown.
var ErrServerClosed = errors.New("framesrv: server closed")

// connBuf sizes the per-connection read chunk and write buffer: large
// enough that a deep pipeline of small requests is one syscall each
// way, small enough to be irrelevant per connection.
const connBuf = 32 << 10

// Server serves wire frames over raw TCP connections.
type Server struct {
	svc   Service
	opt   Options
	cache *respcache.Snapshot

	mu     sync.Mutex
	lns    map[net.Listener]struct{}
	conns  map[net.Conn]struct{}
	closed bool
	done   chan struct{} // closed by Shutdown; wakes subscribe streams
	wg     sync.WaitGroup
}

// New builds a frame server over a running service. Call Serve with one
// or more listeners to start answering.
func New(svc Service, opt Options) *Server {
	opt = opt.withDefaults()
	cache := opt.Cache
	if cache == nil {
		cache = new(respcache.Snapshot)
	}
	return &Server{
		svc:   svc,
		opt:   opt,
		cache: cache,
		lns:   make(map[net.Listener]struct{}),
		conns: make(map[net.Conn]struct{}),
		done:  make(chan struct{}),
	}
}

// Serve accepts connections on ln until Shutdown, running each in its
// own goroutine. It returns ErrServerClosed after a Shutdown, or the
// first non-transient Accept error.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.lns, ln)
		s.mu.Unlock()
		ln.Close()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return ErrServerClosed
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// Shutdown stops the server gracefully: listeners close immediately,
// every open connection gets DrainGrace to have its already-written
// requests read and answered (subscribe streams get a final delta
// flush), and Shutdown returns once all connection goroutines finish.
// If ctx expires first the remaining connections are force-closed and
// the context error is returned. Idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.done)
	}
	for ln := range s.lns {
		ln.Close()
	}
	deadline := time.Now().Add(s.opt.DrainGrace)
	for c := range s.conns {
		c.SetReadDeadline(deadline)
	}
	s.mu.Unlock()

	waited := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(waited)
	}()
	select {
	case <-waited:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-waited
		return ctx.Err()
	}
}

func (s *Server) removeConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// serveConn is the pipelined request/response loop of one connection.
// Every read appends to the accumulation buffer; every complete request
// frame in it is answered into the buffered writer; one flush ends the
// batch. A half-received frame just waits for the next read.
func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.removeConn(conn)
		s.wg.Done()
	}()
	bw := bufio.NewWriterSize(conn, connBuf)
	chunk := make([]byte, connBuf)
	// The largest legitimate request payload is a maximal batched lookup
	// (count + MaxOps node ids + the longest tenant suffix); a header
	// claiming more is hostile or corrupt, and rejecting it before the
	// payload is buffered caps what a drip-feeding client can make this
	// connection hold (the wire-level MaxPayload bound is 256MB — far too
	// lax for the request direction).
	maxReqPayload := 4 + 4*s.opt.MaxOps + 1 + wire.MaxTenantLen
	var (
		buf     []byte // unconsumed request bytes
		scratch []byte // encode scratch for uncached response bodies
	)
	for {
		n, err := conn.Read(chunk)
		if n > 0 {
			buf = append(buf, chunk[:n]...)
			consumed := 0
			for consumed < len(buf) {
				f, m, derr := wire.DecodeRequest(buf[consumed:])
				if derr != nil {
					if errors.Is(derr, wire.ErrShort) {
						// Half a frame: if the header is already in and
						// announces an over-bound payload, refuse now rather
						// than buffer it; otherwise the next read completes
						// the frame. (A complete over-bound frame cannot slip
						// through here: per-type decode checks and the MaxOps
						// batch cap reject anything this precheck would.)
						rest := buf[consumed:]
						if len(rest) >= wire.HeaderSize {
							if plen := binary.LittleEndian.Uint32(rest[8:12]); int64(plen) > int64(maxReqPayload) {
								scratch = wire.AppendErrorFrame(scratch[:0], http.StatusBadRequest,
									fmt.Sprintf("request payload of %d bytes exceeds the %d limit", plen, maxReqPayload))
								bw.Write(scratch)
								bw.Flush()
								return
							}
						}
						break
					}
					// Anything structurally invalid is a protocol error:
					// answer once, then hang up — the stream cannot be
					// resynchronized.
					scratch = wire.AppendErrorFrame(scratch[:0], http.StatusBadRequest, derr.Error())
					bw.Write(scratch)
					bw.Flush()
					return
				}
				consumed += m
				if f.Type == wire.FrameReqSubscribe || f.Type == wire.FrameReqReplicate {
					// Both flip the connection into a push stream, so either
					// must be the last frame on it.
					if consumed != len(buf) {
						scratch = wire.AppendErrorFrame(scratch[:0], http.StatusBadRequest,
							"frames after a stream request")
						bw.Write(scratch)
						bw.Flush()
						return
					}
					if f.Type == wire.FrameReqReplicate {
						if s.opt.Repl == nil {
							scratch = wire.AppendErrorFrame(scratch[:0], http.StatusNotImplemented,
								"replication not enabled on this server")
							bw.Write(scratch)
							bw.Flush()
							return
						}
						if bw.Flush() != nil {
							return
						}
						s.opt.Repl.ServeReplication(conn, bw, f, s.done)
						return
					}
					svc, _, release, rerr := s.resolve(f)
					if rerr != nil {
						scratch = wire.AppendErrorFrame(scratch[:0], statusOf(rerr), rerr.Error())
						bw.Write(scratch)
						bw.Flush()
						return
					}
					// The handle pins the tenant for the stream's whole
					// lifetime — eviction must not close the engine under a
					// live subscriber.
					defer release()
					if bw.Flush() != nil {
						return
					}
					s.streamDeltas(conn, bw, svc)
					return
				}
				scratch = s.respond(bw, f, scratch)
			}
			buf = append(buf[:0], buf[consumed:]...)
			if bw.Flush() != nil {
				return
			}
		}
		if err != nil {
			// EOF, reset, or the drain deadline Shutdown set: everything
			// fully received has been answered and flushed; hang up.
			return
		}
	}
}

// resolve pins the service and cache a request frame is answered
// against. Without a resolver the constructor's service answers
// suffix-free frames and a tenant-suffixed frame fails; with one, every
// frame resolves through it (suffix-free frames as the default tenant).
// The returned release unpins the tenant and is non-nil iff err is nil.
func (s *Server) resolve(f *wire.Frame) (Service, *respcache.Snapshot, func(), error) {
	if s.opt.Tenants == nil {
		if f.Tenant != "" {
			return nil, nil, nil, &StatusError{Code: http.StatusNotFound,
				Err: fmt.Errorf("unknown tenant %q: multi-tenant serving not enabled", f.Tenant)}
		}
		return s.svc, s.cache, func() {}, nil
	}
	name := f.Tenant
	if name == "" {
		name = defaultTenant
	}
	h, err := s.opt.Tenants.AcquireTenant(name)
	if err != nil {
		return nil, nil, nil, err
	}
	return h, h.Cache(), h.Release, nil
}

// statusOf maps a resolver error to its error-frame status.
func statusOf(err error) int {
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code
	}
	return http.StatusNotFound
}

// respond answers one request frame into bw, reusing scratch for bodies
// that are not served from the per-tenant cache. Each request resolves
// its tenant and then the latest snapshot at its turn, so response
// versions are monotone within a connection per tenant.
func (s *Server) respond(bw *bufio.Writer, f *wire.Frame, scratch []byte) []byte {
	svc, cache, release, err := s.resolve(f)
	if err != nil {
		scratch = wire.AppendErrorFrame(scratch[:0], statusOf(err), err.Error())
		bw.Write(scratch)
		return scratch
	}
	defer release()
	snap := svc.Snapshot()
	switch f.Type {
	case wire.FrameReqSnapshot:
		bw.Write(cache.Binary(snap, !f.HasCliques))
		return scratch
	case wire.FrameReqClique:
		if c, err := respcache.Clique(snap, f.Node); err != nil {
			scratch = wire.AppendErrorFrame(scratch[:0], http.StatusBadRequest, err.Error())
		} else {
			scratch = wire.AppendCliqueFrame(scratch[:0], snap.Version(), f.Node, snap.K(), c)
		}
	case wire.FrameReqCliques:
		scratch = s.batched(scratch[:0], snap, f.Queried)
	case wire.FrameReqStats:
		scratch = respcache.AppendStatsFrame(scratch[:0], snap, svc.Stats())
	}
	bw.Write(scratch)
	return scratch
}

// batched answers a batched lookup: the batch bounds here, the
// resolution in respcache.Cliques, which the HTTP /cliques handler
// shares.
func (s *Server) batched(b []byte, snap *dynamic.Snapshot, queried []int32) []byte {
	if len(queried) == 0 {
		return wire.AppendErrorFrame(b, http.StatusBadRequest, "empty batch")
	}
	if len(queried) > s.opt.MaxOps {
		return wire.AppendErrorFrame(b, http.StatusBadRequest,
			fmt.Sprintf("more than %d nodes in one batch", s.opt.MaxOps))
	}
	cliques, lookups, err := respcache.Cliques(snap, queried)
	if err != nil {
		return wire.AppendErrorFrame(b, http.StatusBadRequest, err.Error())
	}
	return wire.AppendCliquesFrame(b, snap.Version(), snap.K(), cliques, lookups)
}

// streamDeltas is the push mode a subscribe request switches the
// connection into: one delta frame per observed publication (bursts
// coalesce into one delta spanning them), starting from the empty base
// so the first frame carries the whole current snapshot. The stream
// ends when the client hangs up, sends anything further (a protocol
// error), or the server shuts down.
func (s *Server) streamDeltas(conn net.Conn, bw *bufio.Writer, svc Service) {
	// The serving loop stopped reading; a watchdog takes over the read
	// side so a hangup (or a stray frame) ends the stream promptly.
	conn.SetReadDeadline(time.Time{})
	gone := make(chan struct{})
	go func() {
		var one [1]byte
		conn.Read(one[:])
		close(gone)
	}()
	var (
		last    *dynamic.Snapshot
		fired   <-chan struct{}
		scratch []byte
	)
	for {
		// Grab the notification channel BEFORE loading the snapshot: a
		// publish racing between the two closes the channel already held,
		// so no publication is ever missed.
		ch := svc.Published()
		if ch == fired {
			// A live publisher replaces the channel on every publish, so
			// getting back the one that already fired means the service's
			// writer has exited: stream whatever is pending below, then end
			// instead of spinning on a permanently-closed channel.
			ch = nil
		}
		snap := svc.Snapshot()
		if last == nil || snap.Version() > last.Version() {
			d := snap.DiffFrom(last)
			var from uint64
			if last != nil {
				from = last.Version()
			}
			scratch = wire.AppendDeltaFrame(scratch[:0], from, snap.Version(), snap.K(),
				snap.N(), snap.M(), snap.Size(), d.RemovedIDs, d.AddedIDs, d.Added)
			if _, err := bw.Write(scratch); err != nil {
				return
			}
			if bw.Flush() != nil {
				return
			}
			last = snap
		}
		if ch == nil {
			return // publisher exited; final state has been streamed
		}
		select {
		case <-ch:
			fired = ch
		case <-gone:
			return
		case <-s.done:
			return
		}
	}
}
