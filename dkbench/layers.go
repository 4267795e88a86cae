package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/kclique"
	"repro/internal/manager"
	"repro/internal/respcache"
	"repro/internal/serve"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/internal/workload"
)

// replay is the layer replay of a traced run. Some layers cannot be timed
// from outside mid-request (the writer's append and apply, the server's
// cache and encode), so each recorded input is fed through the layer's
// public function on a twin instance, one timed call per input. Every
// workload reports the same per-layer metrics: the solve layers are timed
// on the workload's solve graph, the rest on its serving graph with its
// recorded batches and lookups.
func (b *bench) replay(ctx context.Context, in *replayInput) error {
	// The first 256 recorded batches are enough for stable per-call
	// timings and keep the replay short next to the measured phase.
	in.batches = in.batches[:min(len(in.batches), 256)]
	if len(in.lookups) == 0 {
		rng := rand.New(rand.NewSource(b.seed + 3))
		for range 2000 {
			in.lookups = append(in.lookups, int32(rng.Intn(in.serving.N())))
		}
	}
	b.replaySolve(in.solve)
	eng, err := b.replayEngine(in)
	if err != nil {
		return err
	}
	if err := b.replayWAL(in.batches); err != nil {
		return err
	}
	return b.replayStack(ctx, in, eng)
}

// replaySolve times the outside-callable steps of core.Find: the listing
// order and orientation (graph), the k-clique count (kclique), and the
// rest of Find (core: score ordering, heap initialisation, selection).
func (b *bench) replaySolve(g *graph.Graph) {
	var orient, count, find []float64
	var total uint64
	for range 3 {
		t := time.Now()
		dag := graph.Orient(g, graph.ListingOrdering(g))
		orient = append(orient, time.Since(t).Seconds())
		t = time.Now()
		total, _ = kclique.Count(dag, k, b.workers)
		count = append(count, time.Since(t).Seconds())
		t = time.Now()
		_, err := core.Find(g, core.Options{K: k, Algorithm: core.LP, Workers: b.workers})
		find = append(find, time.Since(t).Seconds())
		b.check(err == nil, "replay Find: %v", err)
	}
	b.setLayer("graph.orient_s", "s", median(orient))
	b.setLayer("kclique.count_s", "s", median(count))
	b.setLayer("kclique.kcliques", "count", float64(total))
	b.setLayer("core.select_s", "s", median(find)-median(orient)-median(count))
}

// replayEngine builds a twin engine and applies every recorded batch to
// it, then times a checkpoint capture, index canonicalization and a
// checkpoint load.
func (b *bench) replayEngine(in *replayInput) (*dynamic.Engine, error) {
	t := time.Now()
	eng, err := dynamic.NewWorkers(in.serving, k, in.initial, b.workers)
	if err != nil {
		return nil, err
	}
	b.setLayer("dynamic.index_build_s", "s", time.Since(t).Seconds())
	s0 := eng.Stats()
	var apply []float64
	changed, ops := 0, 0
	for _, batch := range in.batches {
		t := time.Now()
		changed += eng.ApplyBatch(batch)
		apply = append(apply, time.Since(t).Seconds())
		ops += len(batch)
	}
	s1 := eng.Stats()
	b.check(eng.Verify() == nil, "twin engine invariants: %v", eng.Verify())
	b.setLayer("dynamic.apply_ms", "ms", ms(percentile(apply, 50)))
	b.setLayer("dynamic.apply_p90_ms", "ms", ms(percentile(apply, 90)))
	b.setLayer("dynamic.changed_ratio", "ratio", float64(changed)/float64(ops))
	churn := s1.CandidatesCreated - s0.CandidatesCreated + s1.CandidatesDropped - s0.CandidatesDropped
	b.setLayer("dynamic.cand_churn_per_op", "count", float64(churn)/float64(ops))
	b.setLayer("dynamic.swaps_per_kop", "count", 1000*float64(s1.Swaps-s0.Swaps)/float64(ops))

	var capture, load []float64
	var image bytes.Buffer
	for range 3 {
		image.Reset()
		t := time.Now()
		if err := eng.WriteCheckpoint(&image); err != nil {
			return nil, err
		}
		capture = append(capture, time.Since(t).Seconds())
	}
	t = time.Now()
	eng.CanonicalizeIndex()
	b.setLayer("dynamic.canon_ms", "ms", ms(time.Since(t).Seconds()))
	for range 3 {
		t := time.Now()
		loaded, err := dynamic.LoadCheckpoint(bytes.NewReader(image.Bytes()), b.workers)
		load = append(load, time.Since(t).Seconds())
		if err != nil {
			return nil, err
		}
		b.check(loaded.Size() == eng.Size(), "loaded checkpoint holds %d cliques, the engine %d", loaded.Size(), eng.Size())
	}
	b.setLayer("dynamic.capture_ms", "ms", ms(median(capture)))
	b.setLayer("dynamic.load_s", "s", median(load))
	return eng, nil
}

// replayWAL appends and syncs every recorded batch into a twin log on the
// store's filesystem, then replays the log (decode only).
func (b *bench) replayWAL(batches [][]workload.Op) error {
	path := filepath.Join(b.dir, "twin.wal")
	lg, err := wal.Create(path, wal.SyncNone)
	if err != nil {
		return err
	}
	var appendS, syncS []float64
	ops := 0
	for _, batch := range batches {
		t := time.Now()
		if _, err := lg.AppendGroup([][]workload.Op{batch}); err != nil {
			lg.Close()
			return err
		}
		appendS = append(appendS, time.Since(t).Seconds())
		t = time.Now()
		if err := lg.Sync(); err != nil {
			lg.Close()
			return err
		}
		syncS = append(syncS, time.Since(t).Seconds())
		ops += len(batch)
	}
	size := lg.Size()
	if err := lg.Close(); err != nil {
		return err
	}
	replayed := 0
	t := time.Now()
	_, err = wal.Replay(path, func(batch []workload.Op) error {
		replayed += len(batch)
		return nil
	})
	if err != nil {
		return err
	}
	b.setLayer("wal.replay_s", "s", time.Since(t).Seconds())
	b.check(replayed == ops, "twin log replayed %d of %d ops", replayed, ops)
	b.setLayer("wal.append_us", "us", us(percentile(appendS, 50)))
	b.setLayer("wal.sync_ms", "ms", ms(percentile(syncS, 50)))
	b.setLayer("wal.bytes_per_op", "B", float64(size)/float64(ops))
	return nil
}

// replayStack mounts the multi-tenant stack on the serving graph and
// times the serving layers: Enqueue/Flush of every recorded batch, the
// snapshot read path, tenant resolution, encoders, the response cache, an
// HTTP update, an idle frame round trip, and a follower catch-up.
func (b *bench) replayStack(ctx context.Context, in *replayInput, twin *dynamic.Engine) error {
	ops := 0
	for _, batch := range in.batches {
		ops += len(batch)
	}
	// A checkpoint interval of a quarter of the replayed ops makes every
	// workload's replay cross the same number of checkpoints.
	opt := serve.Options{Workers: b.workers, Fsync: wal.SyncEveryBatch, CheckpointEvery: max(ops/4, 1)}
	st, err := mountStack(ctx, filepath.Join(b.dir, "replay"), in.serving, in.initial, opt)
	if err != nil {
		return err
	}
	tr := newTracer(b.origin)
	var enq, flush []float64
	for i, batch := range in.batches {
		root := tr.begin("replay.batch", 0, int64(i))
		id := tr.begin("serve.Enqueue", root, int64(i))
		t := time.Now()
		err := st.h.Enqueue(ctx, batch...)
		enq = append(enq, time.Since(t).Seconds())
		tr.end(id)
		if err == nil {
			id = tr.begin("serve.Flush", root, int64(i))
			t = time.Now()
			err = st.h.Flush(ctx)
			flush = append(flush, time.Since(t).Seconds())
			tr.end(id)
		}
		tr.end(root)
		b.check(err == nil, "replay batch %d: %v", i, err)
	}
	b.spans = append(b.spans, tr.spans...)
	self := selfTimes(tr.spans)
	var rootSelf []float64
	for _, s := range tr.spans {
		if s.Name == "replay.batch" {
			rootSelf = append(rootSelf, self[s.ID].Seconds())
		}
	}
	b.setDiag("replay.batch_self_us", "us", us(percentile(rootSelf, 50)))
	stats := st.h.Stats()
	snap := st.h.Snapshot()
	b.check(snap.Size() == twin.Size(), "served state (%d cliques) diverges from the twin engine (%d)", snap.Size(), twin.Size())
	flushMs := ms(percentile(flush, 50))
	b.setLayer("serve.enqueue_us", "us", us(percentile(enq, 50)))
	b.setLayer("serve.flush_ms", "ms", flushMs)
	b.setLayer("serve.writer_other_ms", "ms", flushMs-b.layer["dynamic.apply_ms"].Value-b.layer["wal.sync_ms"].Value-b.layer["wal.append_us"].Value/1e3)
	b.setLayer("serve.ops_per_fsync", "ops", float64(stats.GroupCommitOps)/float64(max(stats.WALSyncs, 1)))
	b.setLayer("serve.ckpt_stall_ms", "ms", float64(stats.CheckpointStallNs)/1e6/float64(max(stats.Checkpoints, 1)))
	b.setLayer("serve.checkpoints", "count", float64(stats.Checkpoints))

	const passes = 20
	t := time.Now()
	for range passes {
		for _, u := range in.lookups {
			_ = snap.CliqueOf(u)
		}
	}
	cliqueOf := time.Since(t).Seconds() / float64(passes*len(in.lookups))
	b.setLayer("serve.cliqueof_ns", "ns", ns(cliqueOf))

	const acquires = 20000
	t = time.Now()
	for range acquires {
		h, err := st.mgr.Acquire(manager.DefaultTenant)
		if err != nil {
			b.check(false, "acquire: %v", err)
			break
		}
		h.Release()
	}
	acquire := time.Since(t).Seconds() / acquires
	b.setLayer("manager.acquire_ns", "ns", ns(acquire))

	var enc []float64
	var buf []byte
	for range 5 {
		t := time.Now()
		buf = wire.AppendSnapshotFrame(buf[:0], snap.Version(), snap.K(), snap.N(), snap.M(), snap.Size(), snap.Cliques(), true)
		enc = append(enc, time.Since(t).Seconds())
	}
	b.setLayer("wire.snapshot_encode_us", "us", us(median(enc)))
	members := make([][]int32, len(in.lookups))
	for i, u := range in.lookups {
		members[i] = snap.CliqueOf(u)
	}
	t = time.Now()
	for range passes {
		for i, u := range in.lookups {
			buf = wire.AppendCliqueFrame(buf[:0], snap.Version(), u, k, members[i])
		}
	}
	lookupEnc := time.Since(t).Seconds() / float64(passes*len(in.lookups))
	b.setLayer("wire.lookup_encode_ns", "ns", ns(lookupEnc))

	cache := new(respcache.Snapshot)
	cache.Binary(snap, false)
	const hits = 20000
	t = time.Now()
	for range hits {
		cache.Binary(snap, false)
	}
	b.setLayer("respcache.hit_ns", "ns", ns(time.Since(t).Seconds()/hits))

	if err := b.replayHTTP(ctx, st, in.batches); err != nil {
		st.close()
		return err
	}
	rtt, err := frameRTT(st.frameAddr, in.lookups)
	if err != nil {
		st.close()
		return err
	}
	b.setLayer("framesrv.rtt_us", "us", us(rtt))
	b.setLayer("framesrv.transport_us", "us", us(rtt-acquire-cliqueOf-lookupEnc))

	want := st.h.Snapshot()
	f, stop, install, total, err := followerCatchUp(ctx, st.frameAddr, want.Version(), b.workers)
	if err != nil {
		b.check(false, "replay follower: %v", err)
	} else {
		b.check(bytes.Equal(frameOf(f.Service().Snapshot()), frameOf(want)), "replay follower frame differs from the primary's")
		stop()
		b.setLayer("repl.install_s", "s", install.Seconds())
		b.setLayer("repl.suffix_s", "s", (total - install).Seconds())
	}
	return st.close()
}

// replayHTTP posts 16-op updates (flush off) straight into the HTTP
// handler, one timed ServeHTTP call each, then flushes them.
func (b *bench) replayHTTP(ctx context.Context, st *stack, batches [][]workload.Op) error {
	var ops []workload.Op
	for _, batch := range batches {
		ops = append(ops, batch...)
	}
	var took []float64
	for i, batch := range chunk(ops[:min(len(ops), 64*updateOps)], updateOps) {
		req := httptest.NewRequest(http.MethodPost, "/update", bytes.NewReader(updateBody(batch, false)))
		rec := httptest.NewRecorder()
		t := time.Now()
		st.api.ServeHTTP(rec, req)
		took = append(took, time.Since(t).Seconds())
		b.check(rec.Code == http.StatusAccepted, "replay update %d answered %d", i, rec.Code)
	}
	b.setLayer("httpapi.update_us", "us", us(percentile(took, 50)))
	return st.h.Flush(ctx)
}

// frameRTT returns the median round trip of closed-loop single lookups
// over an idle frame connection.
func frameRTT(addr string, lookups []int32) (float64, error) {
	c, err := workload.DialFrame(addr)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	c.SetIOTimeout(10 * time.Second)
	var rtt []float64
	for _, u := range lookups {
		t := time.Now()
		if _, err := c.CliqueOf(u); err != nil {
			return 0, fmt.Errorf("frame lookup of %d: %w", u, err)
		}
		rtt = append(rtt, time.Since(t).Seconds())
	}
	return percentile(rtt, 50), nil
}
