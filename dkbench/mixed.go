package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/httpapi"
	"repro/internal/serve"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/internal/workload"
)

// The mixed workload's open-loop rates, per second, and request shapes.
// Reads total 5,000/s: 95% lookups (point and 16-node batched) and 5%
// full snapshots. The run is bounded by request counts: rate × --seconds
// of each. At 100 updates of 16 ops a second the write ops of a run stay
// far below the primary's 65,536-op history limit and the default
// checkpoint interval, so every run does the same background work.
const (
	lookupRate   = 4750
	snapshotRate = 250
	updateRate   = 100
	updateOps    = 16
	batchNodes   = 16
)

type readKind uint8

const (
	readPoint readKind = iota
	readBatch
	readSnapshot
)

var readNames = [...]string{"frame.clique", "frame.cliques", "frame.snapshot"}

// readReq is one scheduled read.
type readReq struct {
	kind  readKind
	nodes []int32 // one node for a point lookup
}

// readStream is the open-loop schedule of one frame connection.
type readStream struct {
	reads []readReq
	due   []time.Duration
}

// mixedInputs is everything a mixed phase sends, generated from the seed
// before any timing.
type mixedInputs struct {
	lookups, snapshots readStream
	updates            [][]workload.Op
	bodies             [][]byte
	updDue             []time.Duration
}

func genMixed(seed int64, seconds int, nodes int, ops []workload.Op) *mixedInputs {
	rng := rand.New(rand.NewSource(seed + 5))
	in := &mixedInputs{}
	in.lookups.reads = make([]readReq, lookupRate*seconds)
	for i := range in.lookups.reads {
		if rng.Intn(95) < 80 {
			in.lookups.reads[i] = readReq{kind: readPoint, nodes: []int32{int32(rng.Intn(nodes))}}
			continue
		}
		ns := make([]int32, batchNodes)
		for j := range ns {
			ns[j] = int32(rng.Intn(nodes))
		}
		in.lookups.reads[i] = readReq{kind: readBatch, nodes: ns}
	}
	in.lookups.due = poissonSchedule(rng, lookupRate, len(in.lookups.reads))
	in.snapshots.reads = make([]readReq, snapshotRate*seconds)
	for i := range in.snapshots.reads {
		in.snapshots.reads[i] = readReq{kind: readSnapshot}
	}
	in.snapshots.due = poissonSchedule(rng, snapshotRate, len(in.snapshots.reads))
	in.updates = chunk(ops, updateOps)
	in.updDue = poissonSchedule(rng, updateRate, len(in.updates))
	for _, batch := range in.updates {
		in.bodies = append(in.bodies, updateBody(batch, true))
	}
	return in
}

// updateBody is the JSON body of a POST /update carrying batch.
func updateBody(batch []workload.Op, flush bool) []byte {
	req := httpapi.UpdateRequest{Flush: flush}
	for _, op := range batch {
		req.Ops = append(req.Ops, struct {
			Insert bool  `json:"insert"`
			U      int32 `json:"u"`
			V      int32 `json:"v"`
		}{op.Insert, op.U, op.V})
	}
	body, _ := json.Marshal(req) // plain structs always marshal
	return body
}

// half returns the inputs' first or second half, the second re-timed to
// start at zero.
func (in *mixedInputs) half(second bool) *mixedInputs {
	cut := func(n int) (int, int) {
		if second {
			return n / 2, n
		}
		return 0, n / 2
	}
	shift := func(d []time.Duration) []time.Duration {
		out := make([]time.Duration, len(d))
		for i, v := range d {
			out[i] = v - d[0]
		}
		return out
	}
	stream := func(s readStream) readStream {
		lo, hi := cut(len(s.reads))
		return readStream{s.reads[lo:hi], shift(s.due[lo:hi])}
	}
	lo, hi := cut(len(in.updates))
	return &mixedInputs{stream(in.lookups), stream(in.snapshots), in.updates[lo:hi], in.bodies[lo:hi], shift(in.updDue[lo:hi])}
}

// runMixed is the served steady state: players read their team while
// friendships change. Three connections carry open-loop Poisson traffic:
// pipelined lookups as TCP frames (point and 16-node batched), pipelined
// full binary snapshots on a second frame connection, and POST /update
// requests of 16 ops with flush over a keep-alive HTTP connection. A
// request is one read or one update. Snapshots ride their own connection
// because on a shared one every lookup queued behind a snapshot that
// missed the response cache waits for its encode.
func runMixed(ctx context.Context, b *bench) (*replayInput, error) {
	g := servingGraph(b.seed)
	in := genMixed(b.seed, b.seconds, g.N(), writeOps(g, updateRate*b.seconds*updateOps, b.seed+1))

	var initial [][]int32
	setupN := 0
	build := func() (*stack, error) {
		g := servingGraph(b.seed)
		init, err := solveLP(g, b.workers)
		if err != nil {
			return nil, err
		}
		initial = init
		setupN++
		// dkserver's defaults: fsync per batch, default checkpoint interval.
		opt := serve.Options{Workers: b.workers, Fsync: wal.SyncEveryBatch}
		return mountStack(ctx, filepath.Join(b.dir, fmt.Sprintf("root%d", setupN)), g, init, opt)
	}
	st, setup, err := repeatSetup(setupRepeats, build, func(s *stack) { s.close() })
	if err != nil {
		return nil, err
	}
	b.setE2E("setup_s", "s", setup)

	first := in
	if b.traced {
		first = in.half(false)
	}
	res := b.mixedPhase(st, first, nil)
	b.setE2E("cpu_us_per_req", "us", us(res.cpu.Seconds())/float64(max(res.completed, 1)))
	b.reportLatency(&res.lookups.lat)
	b.setDiag("mixed.snapshot_p50_us", "us", us(res.snaps.lat.pct(50)))
	b.setDiag("mixed.ack_p50_ms", "ms", ms(res.acks.pct(50)))
	b.setDiag("mixed.ack_p90_ms", "ms", ms(res.acks.pct(90)))
	b.setDiag("gen.late_p99_ms", "ms", ms(percentile(res.lookups.late, 99)))
	b.setDiag("gen.due_p50_us", "us", us(percentile(res.lookups.fromDue, 50)))
	b.setDiag("respcache.hit_ratio", "ratio", 1-float64(len(res.snaps.versions))/float64(max(len(res.snaps.lat.ok), 1)))
	if b.traced {
		trs := [3]*tracer{newTracer(b.origin), newTracer(b.origin), newTracer(b.origin)}
		tres := b.mixedPhase(st, in.half(true), &trs)
		for _, tr := range trs {
			b.spans = append(b.spans, tr.spans...)
		}
		b.traceOverhead(&res.lookups.lat, &tres.lookups.lat)
	}

	snap := st.h.Snapshot()
	b.check(snap.Validate() == nil, "final snapshot invalid: %v", snap.Validate())
	b.setE2E("cliques", "count", float64(snap.Size()))
	b.setE2E("heap_mb", "MB", liveHeapMB())
	if err := st.close(); err != nil {
		return nil, err
	}

	var lookups []int32
	for _, r := range in.lookups.reads {
		if len(lookups) >= 2000 {
			break
		}
		lookups = append(lookups, r.nodes...)
	}
	return &replayInput{solve: g, serving: g, initial: initial, batches: in.updates[:min(256, len(in.updates))], lookups: lookups}, nil
}

// mixedResult is what one mixed phase measured.
type mixedResult struct {
	lookups, snaps *streamResult
	acks           latencies
	completed      int
	cpu            time.Duration
}

// mixedPhase sends one set of inputs against the stack and waits for
// every answer. Each request is timed under the timing rule (see pace);
// failures — error frames, decode errors, timeouts, non-202 answers —
// count against the attempts, never retried. trs, when non-nil, holds one
// tracer per connection.
func (b *bench) mixedPhase(st *stack, in *mixedInputs, trs *[3]*tracer) *mixedResult {
	if trs == nil {
		trs = &[3]*tracer{}
	}
	res := &mixedResult{}
	cpu0 := cpuTime()
	start := time.Now()
	clk := wallClock{start}
	off := start.Sub(b.origin)
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		res.lookups = b.readLoop(st.frameAddr, in.lookups, clk, off, trs[0])
	}()
	go func() {
		defer wg.Done()
		res.snaps = b.readLoop(st.frameAddr, in.snapshots, clk, off, trs[1])
	}()
	go func() {
		defer wg.Done()
		b.updateLoop(st.httpAddr, in, clk, off, trs[2], &res.acks)
	}()
	wg.Wait()
	res.cpu = cpuTime() - cpu0
	res.completed = len(res.lookups.lat.ok) + len(res.snaps.lat.ok) + len(res.acks.ok)
	for _, l := range []*latencies{&res.lookups.lat, &res.snaps.lat, &res.acks} {
		b.count(l.attempted(), l.failed)
	}
	return res
}

// sent is a read the sender wrote, handed to the receiver in order.
type sent struct {
	i           int
	origin, due time.Duration
}

// received is an answer the receiver read, with the time it arrived.
type received struct {
	sent
	frame []byte
	at    time.Duration
	err   error
}

// streamResult is what one frame connection measured.
type streamResult struct {
	lat      latencies
	fromDue  []float64 // answers timed from the raw due time (the timer floor)
	late     []float64 // sender lateness per request
	versions map[uint64]bool
}

// readLoop pipelines one read stream over its own frame connection: a
// sender paces and writes requests, a receiver reads and timestamps the
// answers in order, and readLoop itself decodes and checks them. Decoding
// off the receiver keeps a slow decode (a full snapshot) from delaying the
// timestamps of the answers queued behind it.
func (b *bench) readLoop(addr string, s readStream, clk wallClock, off time.Duration, tr *tracer) *streamResult {
	res := &streamResult{versions: map[uint64]bool{}}
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		b.check(false, "dial frame server: %v", err)
		for range s.reads {
			res.lat.fail()
		}
		return res
	}
	defer conn.Close()
	// Buffered for every read, so the sender never waits on the receiver.
	queue := make(chan sent, len(s.reads))
	go func() {
		defer close(queue)
		var buf []byte
		pace(s.due, clk, func(i int, origin, late time.Duration) bool {
			switch r := s.reads[i]; r.kind {
			case readPoint:
				buf = wire.AppendCliqueRequest(buf, r.nodes[0], "")
			case readBatch:
				buf = wire.AppendCliquesRequest(buf, r.nodes, "")
			default:
				buf = wire.AppendSnapshotRequest(buf, true, "")
			}
			res.late = append(res.late, late.Seconds())
			queue <- sent{i, origin, s.due[i]}
			// Requests already due leave in one write, the way a
			// pipelining client batches what it has.
			if i+1 < len(s.due) && s.due[i+1] <= clk.Now() {
				return true
			}
			conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
			_, err := conn.Write(buf)
			buf = buf[:0]
			return err == nil
		})
	}()
	// got hands answers to the checker and free returns their buffers;
	// 256 answers is ample slack for decode bursts at the offered rate.
	got := make(chan received, 256)
	free := make(chan []byte, 256)
	go func() {
		defer close(got)
		br := bufio.NewReaderSize(conn, 64<<10)
		var err error
		for q := range queue {
			if err != nil {
				got <- received{sent: q, err: err}
				continue
			}
			var frame []byte
			select {
			case frame = <-free:
			default:
			}
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			frame, err = readFrame(br, frame)
			got <- received{q, frame, clk.Now(), err}
		}
	}()
	for a := range got {
		r := s.reads[a.i]
		err := a.err
		var f *wire.Frame
		if err == nil {
			if f, _, err = wire.Decode(a.frame); err == nil {
				err = checkRead(r, f)
			}
		}
		if err != nil {
			b.check(false, "read %d: %v", a.i, err)
			res.lat.fail()
			continue
		}
		tr.add(readNames[r.kind], 0, int64(a.i), off+a.origin, off+a.at)
		res.lat.add((a.at - a.origin).Seconds())
		res.fromDue = append(res.fromDue, (a.at - a.due).Seconds())
		if r.kind == readSnapshot {
			res.versions[f.Version] = true
		}
		select {
		case free <- a.frame:
		default:
		}
	}
	// Reads the sender never wrote, after a failed write, failed too.
	for range len(s.reads) - res.lat.attempted() {
		res.lat.fail()
	}
	// The sender appends to res.late; it has exited once queue is closed,
	// which the receiver saw before closing got.
	return res
}

// readFrame reads one whole frame into buf.
func readFrame(br *bufio.Reader, buf []byte) ([]byte, error) {
	buf = slices.Grow(buf[:0], wire.HeaderSize)[:wire.HeaderSize]
	if _, err := io.ReadFull(br, buf); err != nil {
		return buf, err
	}
	plen := int(binary.LittleEndian.Uint32(buf[8:12]))
	if plen > wire.MaxPayload {
		return buf, fmt.Errorf("frame payload of %d bytes", plen)
	}
	buf = slices.Grow(buf, plen)[:wire.HeaderSize+plen]
	_, err := io.ReadFull(br, buf[wire.HeaderSize:])
	return buf, err
}

// checkRead verifies one decoded answer against its request: the frame
// type matches, and every lookup answer holds its node or reports it
// uncovered.
func checkRead(r readReq, f *wire.Frame) error {
	if f.Type == wire.FrameError {
		return fmt.Errorf("error frame %d: %s", f.Status, f.Message)
	}
	switch r.kind {
	case readPoint:
		if f.Type != wire.FrameClique || f.Node != r.nodes[0] {
			return fmt.Errorf("point lookup of %d answered type %d node %d", r.nodes[0], f.Type, f.Node)
		}
		if f.Covered && (len(f.Members) != k || !slices.Contains(f.Members, f.Node)) {
			return fmt.Errorf("clique %v of node %d does not hold it", f.Members, f.Node)
		}
	case readBatch:
		if f.Type != wire.FrameCliques || len(f.Lookups) == 0 {
			return fmt.Errorf("batched lookup answered type %d with %d lookups", f.Type, len(f.Lookups))
		}
		for _, l := range f.Lookups {
			if !slices.Contains(r.nodes, l.Node) {
				return fmt.Errorf("batched lookup answered unrequested node %d", l.Node)
			}
			if l.Clique >= 0 && (int(l.Clique) >= len(f.Cliques) || !slices.Contains(f.Cliques[l.Clique], l.Node)) {
				return fmt.Errorf("batched clique %d of node %d does not hold it", l.Clique, l.Node)
			}
		}
	default:
		if f.Type != wire.FrameSnapshot || !f.HasCliques || len(f.Cliques) != f.Size {
			return fmt.Errorf("snapshot answered type %d with %d of %d cliques", f.Type, len(f.Cliques), f.Size)
		}
	}
	return nil
}

// updateLoop sends the scheduled updates over one keep-alive HTTP
// connection; each must answer 202 with its ops enqueued and flushed.
func (b *bench) updateLoop(addr string, in *mixedInputs, clk wallClock, off time.Duration, tr *tracer, acks *latencies) {
	tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	defer tp.CloseIdleConnections()
	client := &http.Client{Transport: tp, Timeout: 30 * time.Second}
	url := "http://" + addr + "/update"
	pace(in.updDue, clk, func(i int, origin, _ time.Duration) bool {
		err := postUpdate(client, url, in.bodies[i], len(in.updates[i]))
		now := clk.Now()
		if err != nil {
			b.check(false, "update %d: %v", i, err)
			acks.fail()
			return true
		}
		tr.add("http.update", 0, int64(i), off+origin, off+now)
		acks.add((now - origin).Seconds())
		return true
	})
}

func postUpdate(client *http.Client, url string, body []byte, ops int) error {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var ur httpapi.UpdateResponse
	if err := json.Unmarshal(data, &ur); err != nil {
		return err
	}
	if ur.Enqueued != ops || !ur.Flushed {
		return errors.New("update not fully enqueued and flushed")
	}
	return nil
}
