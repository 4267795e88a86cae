package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	dkclique "repro"
	"repro/internal/httpapi"
)

// testOptions mirrors the flag defaults, scaled down enough for the
// limit tests to trip them without multi-megabyte request bodies.
var testOptions = httpapi.Options{MaxOps: 64, MaxBody: 1 << 16}

func testHandler(t *testing.T) (http.Handler, *dkclique.Graph) {
	t.Helper()
	g, err := dkclique.Generate(dkclique.CommunitySocial(400, 8, 0.3, 800, 21))
	if err != nil {
		t.Fatal(err)
	}
	res, err := dkclique.Find(g, dkclique.Options{K: 3, Algorithm: dkclique.LP})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := dkclique.NewService(g, 3, res.Cliques, dkclique.ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return httpapi.New(svc, testOptions), g
}

func getJSON(t *testing.T, srv *httptest.Server, path string, out any) int {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp.StatusCode
}

func postUpdate(t *testing.T, srv *httptest.Server, body string) (httpapi.UpdateResponse, int) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/update", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out httpapi.UpdateResponse
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return out, resp.StatusCode
}

// TestEndpoints drives the JSON API end to end through the public
// dkclique.Service — the exact wiring the dkserver binary runs.
func TestEndpoints(t *testing.T) {
	h, g := testHandler(t)
	srv := httptest.NewServer(h)
	defer srv.Close()

	var snap httpapi.SnapshotResponse
	if code := getJSON(t, srv, "/snapshot", &snap); code != http.StatusOK {
		t.Fatalf("/snapshot status %d", code)
	}
	if snap.K != 3 || snap.Nodes != g.N() || snap.Edges != g.M() || snap.Size == 0 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if len(snap.Cliques) != snap.Size {
		t.Fatalf("cliques %d != size %d", len(snap.Cliques), snap.Size)
	}
	if err := dkclique.Verify(g, snap.K, snap.Cliques); err != nil {
		t.Fatalf("served set invalid: %v", err)
	}

	var lean httpapi.SnapshotResponse
	getJSON(t, srv, "/snapshot?cliques=0", &lean)
	if lean.Cliques != nil {
		t.Fatal("?cliques=0 must omit members")
	}

	covered := snap.Cliques[0][0]
	var cq httpapi.CliqueResponse
	if code := getJSON(t, srv, fmt.Sprintf("/clique/%d", covered), &cq); code != http.StatusOK {
		t.Fatalf("/clique status %d", code)
	}
	if !cq.Covered || len(cq.Clique) != 3 {
		t.Fatalf("clique response = %+v", cq)
	}
	var bad map[string]string
	if code := getJSON(t, srv, "/clique/xyz", &bad); code != http.StatusBadRequest {
		t.Fatalf("bad node id status %d", code)
	}
	// Out-of-range ids are client errors, not "covered": false.
	if code := getJSON(t, srv, fmt.Sprintf("/clique/%d", g.N()), &bad); code != http.StatusBadRequest {
		t.Fatalf("out-of-range node status %d", code)
	}
	if code := getJSON(t, srv, "/clique/-1", &bad); code != http.StatusBadRequest {
		t.Fatalf("negative node status %d", code)
	}

	// Batched lookup: one clique's members resolve to one shared entry.
	c0 := snap.Cliques[0]
	var batch httpapi.CliquesResponse
	path := fmt.Sprintf("/cliques?nodes=%d,%d,%d", c0[0], c0[1], c0[2])
	if code := getJSON(t, srv, path, &batch); code != http.StatusOK {
		t.Fatalf("/cliques status %d", code)
	}
	if len(batch.Cliques) != 1 || len(batch.Results) != 3 {
		t.Fatalf("batched response = %+v", batch)
	}

	// Delete one edge of the covered clique (flushed) and watch the
	// snapshot move.
	c := cq.Clique
	out, code := postUpdate(t, srv,
		fmt.Sprintf(`{"ops":[{"insert":false,"u":%d,"v":%d}],"flush":true}`, c[0], c[1]))
	if code != http.StatusAccepted || !out.Flushed {
		t.Fatalf("/update status %d, %+v", code, out)
	}
	if out.Version <= snap.Version {
		t.Fatalf("version did not advance: %d -> %d", snap.Version, out.Version)
	}

	var stats map[string]uint64
	if code := getJSON(t, srv, "/stats", &stats); code != http.StatusOK {
		t.Fatalf("/stats status %d", code)
	}
	if stats["applied"] != 1 || stats["deletions"] != 1 {
		t.Fatalf("stats = %v", stats)
	}

	// Invalid updates are rejected before they can reach the engine.
	if _, code := postUpdate(t, srv, `{"ops":[{"insert":true,"u":-1,"v":2}]}`); code != http.StatusBadRequest {
		t.Fatalf("negative id status %d", code)
	}
	if _, code := postUpdate(t, srv, fmt.Sprintf(`{"ops":[{"insert":true,"u":0,"v":%d}]}`, g.N())); code != http.StatusBadRequest {
		t.Fatalf("out-of-range id status %d", code)
	}
	if _, code := postUpdate(t, srv, `{"ops":[]}`); code != http.StatusBadRequest {
		t.Fatalf("empty ops status %d", code)
	}
	if _, code := postUpdate(t, srv, `{not json`); code != http.StatusBadRequest {
		t.Fatalf("bad json status %d", code)
	}
}

// TestUpdateLimits checks the hostile-payload guards: fractional ids,
// oversized op lists, and oversized bodies are all 400s, not engine food.
func TestUpdateLimits(t *testing.T) {
	h, _ := testHandler(t)
	srv := httptest.NewServer(h)
	defer srv.Close()

	if _, code := postUpdate(t, srv, `{"ops":[{"insert":true,"u":1.5,"v":2}]}`); code != http.StatusBadRequest {
		t.Fatalf("fractional id status %d", code)
	}
	if _, code := postUpdate(t, srv, `{"ops":[{"insert":true,"u":1e12,"v":2}]}`); code != http.StatusBadRequest {
		t.Fatalf("overflowing id status %d", code)
	}

	var many bytes.Buffer
	many.WriteString(`{"ops":[`)
	for i := 0; i <= testOptions.MaxOps; i++ {
		if i > 0 {
			many.WriteByte(',')
		}
		fmt.Fprintf(&many, `{"insert":true,"u":%d,"v":%d}`, i%50, (i+1)%50)
	}
	many.WriteString(`]}`)
	if _, code := postUpdate(t, srv, many.String()); code != http.StatusBadRequest {
		t.Fatalf("too-many-ops status %d", code)
	}

	huge := `{"ops":[{"insert":true,"u":1,"v":2}],"pad":"` +
		strings.Repeat("x", int(testOptions.MaxBody)) + `"}`
	if _, code := postUpdate(t, srv, huge); code != http.StatusBadRequest {
		t.Fatalf("oversized body status %d", code)
	}
}

// TestDurableShutdownRecover is the end-to-end acceptance path: a durable
// service takes flushed traffic over HTTP, shuts down gracefully, and a
// restarted server serves the byte-identical recovered state.
func TestDurableShutdownRecover(t *testing.T) {
	dir := t.TempDir()
	g, err := dkclique.Generate(dkclique.CommunitySocial(300, 8, 0.3, 700, 77))
	if err != nil {
		t.Fatal(err)
	}
	res, err := dkclique.Find(g, dkclique.Options{K: 3, Algorithm: dkclique.LP})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := dkclique.NewService(g, 3, res.Cliques, dkclique.ServiceOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(httpapi.New(svc, testOptions))

	var before httpapi.SnapshotResponse
	getJSON(t, srv, "/snapshot", &before)
	c := before.Cliques[0]
	// A flushed delete plus an unflushed insert: the graceful path must
	// keep both (Close drains the queue before the final checkpoint).
	if _, code := postUpdate(t, srv,
		fmt.Sprintf(`{"ops":[{"insert":false,"u":%d,"v":%d}],"flush":true}`, c[0], c[1])); code != http.StatusAccepted {
		t.Fatalf("update status %d", code)
	}
	if _, code := postUpdate(t, srv,
		fmt.Sprintf(`{"ops":[{"insert":true,"u":%d,"v":%d}]}`, c[0], c[1])); code != http.StatusAccepted {
		t.Fatalf("update status %d", code)
	}
	// Graceful shutdown: stop the listener, then Close (drain + final
	// checkpoint) — the same sequence main runs on SIGTERM.
	srv.Close()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	want := svc.Snapshot()

	re, err := dkclique.OpenService(dir, dkclique.ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	srv2 := httptest.NewServer(httpapi.New(re, testOptions))
	defer srv2.Close()

	var after httpapi.SnapshotResponse
	if code := getJSON(t, srv2, "/snapshot", &after); code != http.StatusOK {
		t.Fatalf("recovered /snapshot status %d", code)
	}
	if after.Version != want.Version() || after.Size != want.Size() ||
		after.Nodes != want.N() || after.Edges != want.M() {
		t.Fatalf("recovered header %+v != pre-shutdown (v=%d size=%d n=%d m=%d)",
			after, want.Version(), want.Size(), want.N(), want.M())
	}
	if len(after.Cliques) != len(want.Cliques()) {
		t.Fatalf("recovered %d cliques, want %d", len(after.Cliques), len(want.Cliques()))
	}
	for i, cl := range want.Cliques() {
		for j, u := range cl {
			if after.Cliques[i][j] != u {
				t.Fatalf("clique %d differs: %v vs %v", i, after.Cliques[i], cl)
			}
		}
	}
	// The delete was re-inserted before shutdown, so the recovered graph
	// equals the original and the served set must be valid on it.
	if err := dkclique.Verify(g, 3, after.Cliques); err != nil {
		t.Fatalf("recovered set invalid: %v", err)
	}
	// The recovered server stays writable.
	if _, code := postUpdate(t, srv2,
		fmt.Sprintf(`{"ops":[{"insert":false,"u":%d,"v":%d}],"flush":true}`, c[0], c[1])); code != http.StatusAccepted {
		t.Fatalf("post-recovery update status %d", code)
	}
}

// TestSnapshotUnderUpdateTraffic is the acceptance scenario: /snapshot
// keeps serving consistent results while concurrent /update traffic is
// applied.
func TestSnapshotUnderUpdateTraffic(t *testing.T) {
	h, g := testHandler(t)
	srv := httptest.NewServer(h)
	defer srv.Close()

	edges := make([][2]int32, 0, g.M())
	g.Edges(func(u, v int32) bool {
		edges = append(edges, [2]int32{u, v})
		return true
	})

	var wg sync.WaitGroup
	const writers, readers, rounds = 3, 4, 25
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < rounds; i++ {
				e := edges[rng.Intn(len(edges))]
				body := fmt.Sprintf(`{"ops":[{"insert":%v,"u":%d,"v":%d}]}`,
					rng.Intn(2) == 0, e[0], e[1])
				resp, err := http.Post(srv.URL+"/update", "application/json", bytes.NewBufferString(body))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					t.Errorf("update status %d", resp.StatusCode)
					return
				}
			}
		}(int64(w + 1))
	}
	readErrs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for i := 0; i < rounds; i++ {
				resp, err := http.Get(srv.URL + "/snapshot")
				if err != nil {
					readErrs <- err
					return
				}
				var snap httpapi.SnapshotResponse
				err = json.NewDecoder(resp.Body).Decode(&snap)
				resp.Body.Close()
				if err != nil {
					readErrs <- err
					return
				}
				if snap.Version < last {
					readErrs <- fmt.Errorf("version went backwards: %d -> %d", last, snap.Version)
					return
				}
				last = snap.Version
				if len(snap.Cliques) != snap.Size {
					readErrs <- fmt.Errorf("cliques %d != size %d", len(snap.Cliques), snap.Size)
					return
				}
				seen := map[int32]bool{}
				for _, c := range snap.Cliques {
					if len(c) != snap.K {
						readErrs <- fmt.Errorf("clique %v has wrong size", c)
						return
					}
					for _, u := range c {
						if seen[u] {
							readErrs <- fmt.Errorf("node %d in two cliques", u)
							return
						}
						seen[u] = true
					}
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-readErrs:
		t.Fatal(err)
	default:
	}
}
