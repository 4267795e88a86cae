package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
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

func newTestServer(t testing.TB, opt Options) (*httptest.Server, *serve.Service, *graph.Graph) {
	t.Helper()
	g := testGraph(t)
	s := newTestService(t, g)
	srv := httptest.NewServer(New(s, opt))
	t.Cleanup(srv.Close)
	return srv, s, g
}

func get(t *testing.T, srv *httptest.Server, path string, binary bool) (int, string, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, srv.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if binary {
		req.Header.Set("Accept", wire.ContentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), body
}

func getFrame(t *testing.T, srv *httptest.Server, path string) (*wire.Frame, int) {
	t.Helper()
	code, ct, body := get(t, srv, path, true)
	if ct != wire.ContentType {
		t.Fatalf("GET %s content type %q", path, ct)
	}
	f, n, err := wire.Decode(body)
	if err != nil {
		t.Fatalf("GET %s: decode: %v", path, err)
	}
	if n != len(body) {
		t.Fatalf("GET %s: frame consumed %d of %d body bytes", path, n, len(body))
	}
	return f, code
}

func flushUpdate(t *testing.T, srv *httptest.Server, insert bool, u, v int32) UpdateResponse {
	t.Helper()
	body := fmt.Sprintf(`{"ops":[{"insert":%v,"u":%d,"v":%d}],"flush":true}`, insert, u, v)
	resp, err := http.Post(srv.URL+"/update", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out UpdateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("update status %d", resp.StatusCode)
	}
	return out
}

// TestBinarySnapshot checks the binary /snapshot against the engine's
// own snapshot, full and lean.
func TestBinarySnapshot(t *testing.T) {
	srv, s, _ := newTestServer(t, Options{})
	snap := s.Snapshot()

	f, code := getFrame(t, srv, "/snapshot")
	if code != http.StatusOK || f.Type != wire.FrameSnapshot {
		t.Fatalf("status %d type %d", code, f.Type)
	}
	if f.Version != snap.Version() || f.K != 3 || f.Nodes != snap.N() ||
		f.Edges != snap.M() || f.Size != snap.Size() || !f.HasCliques {
		t.Fatalf("frame = %+v", f)
	}
	want := snap.Cliques()
	if len(f.Cliques) != len(want) {
		t.Fatalf("%d cliques, want %d", len(f.Cliques), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if f.Cliques[i][j] != want[i][j] {
				t.Fatalf("clique %d differs: %v vs %v", i, f.Cliques[i], want[i])
			}
		}
	}

	lean, _ := getFrame(t, srv, "/snapshot?cliques=0")
	if lean.HasCliques || lean.Cliques != nil || lean.Size != snap.Size() {
		t.Fatalf("lean frame = %+v", lean)
	}
}

// TestBinaryClique checks the binary point lookup, covered and not,
// plus the out-of-range rejection in both representations.
func TestBinaryClique(t *testing.T) {
	srv, s, g := newTestServer(t, Options{})
	snap := s.Snapshot()
	covered := snap.Cliques()[0][0]

	f, code := getFrame(t, srv, fmt.Sprintf("/clique/%d", covered))
	if code != http.StatusOK || f.Type != wire.FrameClique || !f.Covered {
		t.Fatalf("status %d frame %+v", code, f)
	}
	want := snap.CliqueOf(covered)
	if len(f.Members) != len(want) {
		t.Fatalf("members %v, want %v", f.Members, want)
	}
	for i := range want {
		if f.Members[i] != want[i] {
			t.Fatalf("members %v, want %v", f.Members, want)
		}
	}

	free := int32(-1)
	for u := int32(0); int(u) < g.N(); u++ {
		if snap.CliqueOf(u) == nil {
			free = u
			break
		}
	}
	if free >= 0 {
		f, _ := getFrame(t, srv, fmt.Sprintf("/clique/%d", free))
		if f.Covered || f.Members != nil {
			t.Fatalf("free node frame = %+v", f)
		}
	}

	// Out of range: 400 as JSON and as an error frame.
	code, _, _ = get(t, srv, fmt.Sprintf("/clique/%d", g.N()), false)
	if code != http.StatusBadRequest {
		t.Fatalf("out-of-range JSON status %d", code)
	}
	ef, code := getFrame(t, srv, fmt.Sprintf("/clique/%d", g.N()))
	if code != http.StatusBadRequest || ef.Type != wire.FrameError || ef.Status != http.StatusBadRequest {
		t.Fatalf("out-of-range frame status %d, %+v", code, ef)
	}
	code, _, _ = get(t, srv, "/clique/-3", false)
	if code != http.StatusBadRequest {
		t.Fatalf("negative id status %d", code)
	}
}

// TestBatchedCliques exercises the batched lookup: one consistent
// version, clique deduplication, mixed covered/uncovered nodes, JSON
// and binary agreement, and the input guards.
func TestBatchedCliques(t *testing.T) {
	srv, s, g := newTestServer(t, Options{MaxOps: 8})
	snap := s.Snapshot()
	c0 := snap.Cliques()[0]
	free := int32(-1)
	for u := int32(0); int(u) < g.N(); u++ {
		if snap.CliqueOf(u) == nil {
			free = u
			break
		}
	}
	if free < 0 {
		t.Skip("no free node in the test graph")
	}

	// All three members of one clique plus a free node: the response must
	// carry the clique exactly once.
	path := fmt.Sprintf("/cliques?nodes=%d,%d,%d,%d", c0[0], c0[1], c0[2], free)
	code, _, body := get(t, srv, path, false)
	if code != http.StatusOK {
		t.Fatalf("batched status %d", code)
	}
	var jr CliquesResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	if jr.Version != snap.Version() || jr.K != 3 {
		t.Fatalf("batched response = %+v", jr)
	}
	if len(jr.Cliques) != 1 {
		t.Fatalf("expected 1 deduplicated clique, got %d", len(jr.Cliques))
	}
	if len(jr.Results) != 4 {
		t.Fatalf("expected 4 results, got %d", len(jr.Results))
	}
	for i := 0; i < 3; i++ {
		if jr.Results[i].Clique != 0 || jr.Results[i].Node != c0[i] {
			t.Fatalf("result %d = %+v", i, jr.Results[i])
		}
	}
	if jr.Results[3].Clique != -1 {
		t.Fatalf("free node resolved to clique %d", jr.Results[3].Clique)
	}

	// The binary frame answers identically.
	f, _ := getFrame(t, srv, path)
	if f.Type != wire.FrameCliques || f.Version != jr.Version ||
		len(f.Cliques) != 1 || len(f.Lookups) != 4 {
		t.Fatalf("binary frame = %+v", f)
	}
	for i, l := range f.Lookups {
		if l.Node != jr.Results[i].Node || l.Clique != jr.Results[i].Clique {
			t.Fatalf("lookup %d = %+v, JSON %+v", i, l, jr.Results[i])
		}
	}

	// Guards: missing parameter, junk ids, out-of-range ids, oversized
	// batches.
	for _, p := range []string{
		"/cliques",
		"/cliques?nodes=",
		"/cliques?nodes=1,x",
		"/cliques?nodes=1,,2",
		fmt.Sprintf("/cliques?nodes=%d", g.N()),
		"/cliques?nodes=-1",
		"/cliques?nodes=0,1,2,3,4,5,6,7,8", // 9 > MaxOps=8
	} {
		if code, _, _ := get(t, srv, p, false); code != http.StatusBadRequest {
			t.Fatalf("GET %s status %d, want 400", p, code)
		}
	}
}

// TestBinaryStats checks the stats frame against the JSON counters.
func TestBinaryStats(t *testing.T) {
	srv, s, _ := newTestServer(t, Options{})
	c := s.Snapshot().Cliques()[0]
	flushUpdate(t, srv, false, c[0], c[1])

	code, _, body := get(t, srv, "/stats", false)
	if code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	var js map[string]uint64
	if err := json.Unmarshal(body, &js); err != nil {
		t.Fatal(err)
	}
	f, _ := getFrame(t, srv, "/stats")
	if f.Type != wire.FrameStats {
		t.Fatalf("frame type %d", f.Type)
	}
	for _, name := range []string{"applied", "deletions", "size", "nodes"} {
		if v, ok := f.Stats.Get(name); !ok || v != js[name] {
			t.Fatalf("binary %s = %d (present %v), JSON %d", name, v, ok, js[name])
		}
	}
	if js["applied"] != 1 || js["deletions"] != 1 {
		t.Fatalf("stats = %v", js)
	}
}

// TestSnapshotCacheTracksVersion is the cache-correctness suite: the
// cached /snapshot body must change exactly when the snapshot version
// changes — identical bytes while the version holds, new bytes with the
// new version the moment a flushed write publishes.
func TestSnapshotCacheTracksVersion(t *testing.T) {
	srv, s, _ := newTestServer(t, Options{})

	variants := []struct {
		name   string
		path   string
		binary bool
	}{
		{"json-full", "/snapshot", false},
		{"json-lean", "/snapshot?cliques=0", false},
		{"bin-full", "/snapshot", true},
		{"bin-lean", "/snapshot?cliques=0", true},
	}
	fetch := func(v struct {
		name   string
		path   string
		binary bool
	}) []byte {
		_, _, body := get(t, srv, v.path, v.binary)
		return body
	}

	before := make([][]byte, len(variants))
	for i, v := range variants {
		b1 := fetch(v)
		b2 := fetch(v)
		if !bytes.Equal(b1, b2) {
			t.Fatalf("%s: two reads at one version differ", v.name)
		}
		before[i] = b1
	}

	// A flushed S-changing write bumps the version; every variant must
	// serve a fresh body carrying it.
	c := s.Snapshot().Cliques()[0]
	out := flushUpdate(t, srv, false, c[0], c[1])
	if out.Version != s.Snapshot().Version() {
		t.Fatalf("flush answered version %d, snapshot at %d", out.Version, s.Snapshot().Version())
	}
	for i, v := range variants {
		after := fetch(v)
		if bytes.Equal(after, before[i]) {
			t.Fatalf("%s: body unchanged across a version bump", v.name)
		}
		var version uint64
		if v.binary {
			f, _, err := wire.Decode(after)
			if err != nil {
				t.Fatalf("%s: %v", v.name, err)
			}
			version = f.Version
		} else {
			var sr SnapshotResponse
			if err := json.Unmarshal(after, &sr); err != nil {
				t.Fatalf("%s: %v", v.name, err)
			}
			version = sr.Version
		}
		if version != out.Version {
			t.Fatalf("%s: cached body carries version %d, want %d", v.name, version, out.Version)
		}
	}
}

// TestSnapshotCacheHammer is the -race correctness hammer: concurrent
// readers pulling cached /snapshot bodies in both representations while
// writers burst flushed updates. Every response must parse, carry a
// monotonically non-decreasing version per reader, and stay internally
// consistent (size == clique count).
func TestSnapshotCacheHammer(t *testing.T) {
	srv, s, g := newTestServer(t, Options{})
	edges := make([][2]int32, 0, g.M())
	g.Edges(func(u, v int32) bool {
		edges = append(edges, [2]int32{u, v})
		return true
	})

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	const writers, readers, rounds = 2, 6, 40
	errs := make(chan error, writers+readers)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < rounds && ctx.Err() == nil; i++ {
				e := edges[rng.Intn(len(edges))]
				op := workload.Op{Insert: rng.Intn(2) == 0, U: e[0], V: e[1]}
				if err := s.Enqueue(ctx, op); err != nil {
					return
				}
				if i%5 == 0 {
					if err := s.Flush(ctx); err != nil {
						return
					}
				}
			}
		}(int64(w + 1))
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(binary bool) {
			defer wg.Done()
			var last uint64
			for i := 0; i < rounds; i++ {
				code, _, body := get(t, srv, "/snapshot", binary)
				if code != http.StatusOK {
					errs <- fmt.Errorf("snapshot status %d", code)
					return
				}
				var version uint64
				var size, cliques int
				if binary {
					f, _, err := wire.Decode(body)
					if err != nil {
						errs <- err
						return
					}
					version, size, cliques = f.Version, f.Size, len(f.Cliques)
				} else {
					var sr SnapshotResponse
					if err := json.Unmarshal(body, &sr); err != nil {
						errs <- err
						return
					}
					version, size, cliques = sr.Version, sr.Size, len(sr.Cliques)
				}
				if version < last {
					errs <- fmt.Errorf("version went backwards: %d -> %d", last, version)
					return
				}
				last = version
				if cliques != size {
					errs <- fmt.Errorf("%d cliques for size %d", cliques, size)
					return
				}
			}
		}(r%2 == 0)
	}
	wg.Wait()
	cancel()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// TestHealthEndpoints pins the probe semantics: /healthz is always 200
// once the handler serves; /readyz tracks Options.Ready (nil func =
// always ready, error = 503 carrying the reason).
func TestHealthEndpoints(t *testing.T) {
	srv, _, _ := newTestServer(t, Options{})
	if code, _, _ := get(t, srv, "/healthz", false); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if code, _, _ := get(t, srv, "/readyz", false); code != http.StatusOK {
		t.Fatalf("readyz with nil Ready: status %d", code)
	}

	var mu sync.Mutex
	var ready error = errors.New("replication lag 2000 over bound 1024")
	g := testGraph(t)
	s := newTestService(t, g)
	probe := httptest.NewServer(New(s, Options{Ready: func() error {
		mu.Lock()
		defer mu.Unlock()
		return ready
	}}))
	t.Cleanup(probe.Close)

	code, _, body := get(t, probe, "/readyz", false)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while not ready: status %d", code)
	}
	if !strings.Contains(string(body), "replication lag") {
		t.Fatalf("readyz body %q does not carry the reason", body)
	}
	if code, _, _ := get(t, probe, "/healthz", false); code != http.StatusOK {
		t.Fatalf("healthz while not ready: status %d (liveness must not track readiness)", code)
	}

	mu.Lock()
	ready = nil
	mu.Unlock()
	if code, _, _ := get(t, probe, "/readyz", false); code != http.StatusOK {
		t.Fatalf("readyz after becoming ready: status %d", code)
	}
}

// TestUpdateOnFollower pins the write-rejection contract: POST /update
// against a follower-mode service maps serve.ErrNotPrimary to 403, so
// clients can tell "wrong node" apart from "service down" (503).
func TestUpdateOnFollower(t *testing.T) {
	g := testGraph(t)
	s := newTestService(t, g)
	_, img, err := s.Checkpoint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fol, err := serve.NewFollowerFromCheckpoint(bytes.NewReader(img), serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fol.Close() })
	srv := httptest.NewServer(New(fol, Options{}))
	t.Cleanup(srv.Close)

	resp, err := http.Post(srv.URL+"/update", "application/json",
		strings.NewReader(`{"ops":[{"insert":true,"u":1,"v":2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("update on follower: status %d body %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "not the primary") {
		t.Fatalf("update on follower: body %q does not name the refusal", body)
	}
	// Reads still work on a follower.
	if code, _, _ := get(t, srv, "/snapshot", false); code != http.StatusOK {
		t.Fatalf("follower snapshot status %d", code)
	}
}
