package httpapi

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/framesrv"
	"repro/internal/respcache"
	"repro/internal/wire"
)

// TestTransportsAgree mounts one quiescent service on both transports,
// sharing one snapshot cache as dkserver does, and requires the HTTP
// binary body of every read to equal the TCP response byte for byte:
// snapshots, point lookups, batched lookups and their errors, and stats.
// The JSON /stats object must carry exactly the frame's counters plus
// "version".
func TestTransportsAgree(t *testing.T) {
	const maxOps = 8
	g := testGraph(t)
	s := newTestService(t, g)
	cache := new(respcache.Snapshot)
	h := New(s, Options{MaxOps: maxOps, Cache: cache})
	fsrv := framesrv.New(s, framesrv.Options{MaxOps: maxOps, Cache: cache})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go fsrv.Serve(ln)
	t.Cleanup(func() { fsrv.Shutdown(context.Background()) })
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))

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
		t.Fatal("no free node in the test graph")
	}
	n := int32(g.N())
	overfull := make([]int32, maxOps+1)
	for i := range overfull {
		overfull[i] = int32(i)
	}
	for _, tc := range []struct {
		name  string
		path  string
		req   []byte
		frame wire.FrameType
	}{
		{"full snapshot", "/snapshot", wire.AppendSnapshotRequest(nil, true, ""), wire.FrameSnapshot},
		{"lean snapshot", "/snapshot?cliques=0", wire.AppendSnapshotRequest(nil, false, ""), wire.FrameSnapshot},
		{"covered node", fmt.Sprintf("/clique/%d", c0[0]), wire.AppendCliqueRequest(nil, c0[0], ""), wire.FrameClique},
		{"free node", fmt.Sprintf("/clique/%d", free), wire.AppendCliqueRequest(nil, free, ""), wire.FrameClique},
		{"node out of range", fmt.Sprintf("/clique/%d", n), wire.AppendCliqueRequest(nil, n, ""), wire.FrameError},
		{"batch", fmt.Sprintf("/cliques?nodes=%d,%d,%d,%d", c0[1], free, c0[0], c0[1]),
			wire.AppendCliquesRequest(nil, []int32{c0[1], free, c0[0], c0[1]}, ""), wire.FrameCliques},
		{"batch out of range", fmt.Sprintf("/cliques?nodes=%d,%d,%d", c0[0], free, n),
			wire.AppendCliquesRequest(nil, []int32{c0[0], free, n}, ""), wire.FrameError},
		{"batch over MaxOps", "/cliques?nodes=" + joinNodes(overfull),
			wire.AppendCliquesRequest(nil, overfull, ""), wire.FrameError},
		{"stats", "/stats", wire.AppendStatsRequest(nil, ""), wire.FrameStats},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := serveBinary(t, h, tc.path)
			if _, err := conn.Write(tc.req); err != nil {
				t.Fatal(err)
			}
			frame := readFrame(t, conn)
			if !bytes.Equal(body, frame) {
				t.Fatalf("HTTP body and TCP frame differ:\nHTTP %x\n TCP %x", body, frame)
			}
			f, _, err := wire.Decode(frame)
			if err != nil {
				t.Fatal(err)
			}
			if f.Type != tc.frame {
				t.Fatalf("frame type %d, want %d (%+v)", f.Type, tc.frame, f)
			}
		})
	}

	t.Run("stats JSON", func(t *testing.T) {
		f, _, err := wire.Decode(serveBinary(t, h, "/stats"))
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/stats", nil))
		var js map[string]uint64
		if err := json.Unmarshal(w.Body.Bytes(), &js); err != nil {
			t.Fatal(err)
		}
		want := map[string]uint64{"version": f.Version}
		for _, c := range f.Stats {
			want[c.Name] = c.Value
		}
		if len(js) != len(want) {
			t.Fatalf("JSON /stats has %d keys, the frame %d counters plus version", len(js), len(f.Stats))
		}
		for name, v := range want {
			if got, ok := js[name]; !ok || got != v {
				t.Errorf("JSON %q = %d (present %v), frame %d", name, got, ok, v)
			}
		}
	})
}

// serveBinary answers path through h with binary frames negotiated and
// returns the body.
func serveBinary(t *testing.T, h http.Handler, path string) []byte {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	req.Header.Set("Accept", wire.ContentType)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if ct := w.Header().Get("Content-Type"); ct != wire.ContentType {
		t.Fatalf("GET %s answered %q", path, ct)
	}
	return w.Body.Bytes()
}

// readFrame reads one whole response frame from conn.
func readFrame(t *testing.T, conn net.Conn) []byte {
	t.Helper()
	frame := make([]byte, wire.HeaderSize)
	if _, err := io.ReadFull(conn, frame); err != nil {
		t.Fatal(err)
	}
	plen := binary.LittleEndian.Uint32(frame[8:12])
	frame = append(frame, make([]byte, plen)...)
	if _, err := io.ReadFull(conn, frame[wire.HeaderSize:]); err != nil {
		t.Fatal(err)
	}
	return frame
}

func joinNodes(nodes []int32) string {
	var sb strings.Builder
	for i, u := range nodes {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprint(&sb, u)
	}
	return sb.String()
}
