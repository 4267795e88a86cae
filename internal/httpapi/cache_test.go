package httpapi

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// The bodyCache memoization unit tests moved to internal/respcache with
// the cache itself; what stays here are the handler-level pins that the
// cached paths are actually wired through it.

// nullResponseWriter discards the response without allocating, so the
// handler-level AllocsPerRun rows measure the handler, not the test.
type nullResponseWriter struct{ h http.Header }

func (w *nullResponseWriter) Header() http.Header         { return w.h }
func (w *nullResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullResponseWriter) WriteHeader(int)             {}

// TestReadHandlerAllocs bounds the per-request allocations of the hot
// read handlers, served straight through the mux. The cached /snapshot
// path must stay O(1) small (response headers, never the body); the
// uncached point lookups must stay bounded (pooled encoders — no
// per-request json.Encoder, no per-request buffer) regardless of how
// large the snapshot is.
func TestReadHandlerAllocs(t *testing.T) {
	g := testGraph(t)
	s := newTestService(t, g)
	h := New(s, Options{})
	covered := s.Snapshot().Cliques()[0][0]
	batch := make([]int32, 16)
	for i := range batch {
		batch[i] = int32(i * 37 % g.N())
	}
	batch16 := joinNodes(batch)

	rows := []struct {
		name   string
		path   string
		binary bool
		limit  float64
	}{
		// Header map writes (Content-Type, Content-Length slices + the
		// length string) cost a handful of small allocations; the body is
		// served from the cache and costs none.
		{"snapshot-json-cached", "/snapshot", false, 8},
		{"snapshot-bin-cached", "/snapshot", true, 8},
		{"clique-json", fmt.Sprintf("/clique/%d", covered), false, 16},
		{"clique-bin", fmt.Sprintf("/clique/%d", covered), true, 12},
		// The limits are the counts these handlers made before the
		// lookup resolver and the counter table moved into respcache,
		// which must not make a read allocate more.
		{"cliques16-json", "/cliques?nodes=" + batch16, false, 24},
		{"cliques16-bin", "/cliques?nodes=" + batch16, true, 22},
		{"stats-json", "/stats", false, 5},
		{"stats-bin", "/stats", true, 4},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodGet, row.path, nil)
			if row.binary {
				req.Header.Set("Accept", "application/x-dkclique-frame")
			}
			w := &nullResponseWriter{h: make(http.Header)}
			h.ServeHTTP(w, req) // warm caches and pools
			allocs := testing.AllocsPerRun(200, func() {
				clear(w.h)
				h.ServeHTTP(w, req)
			})
			if allocs > row.limit {
				t.Fatalf("%s allocates %.1f times per request, limit %.0f", row.name, allocs, row.limit)
			}
		})
	}
}

// TestPooledEncodersConcurrent shakes the sync.Pool paths under -race:
// concurrent requests across every pooled encode route must never share
// a live buffer.
func TestPooledEncodersConcurrent(t *testing.T) {
	srv, s, _ := newTestServer(t, Options{})
	covered := s.Snapshot().Cliques()[0][0]
	paths := []string{
		"/snapshot",
		fmt.Sprintf("/clique/%d", covered),
		fmt.Sprintf("/cliques?nodes=%d,%d", covered, (covered+1)%int32(s.Snapshot().N())),
		"/stats",
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				p := paths[(i+j)%len(paths)]
				code, _, body := get(t, srv, p, j%2 == 0)
				if code != http.StatusOK || len(body) == 0 {
					t.Errorf("GET %s: status %d, %d body bytes", p, code, len(body))
					return
				}
			}
		}(i)
	}
	wg.Wait()
}
