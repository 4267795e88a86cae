package wire

import (
	"net"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestRecvLargeFrame pins the header-preserving buffer growth of Recv: a
// frame whose total size exceeds the initial 4096-byte decode scratch
// must decode intact. (Growing the scratch used to drop the already-read
// header, so every frame over 4KB failed with a bad-magic error.)
func TestRecvLargeFrame(t *testing.T) {
	const k, size = 3, 600 // 600 cliques × 12 bytes ≫ 4096
	cliques := make([][]int32, size)
	next := int32(0)
	for i := range cliques {
		c := make([]int32, k)
		for j := range c {
			c[j] = next
			next++
		}
		cliques[i] = c
	}
	raw := AppendSnapshotFrame(nil, 9, k, int(next), 0, size, cliques, true)
	if len(raw) <= 4096 {
		t.Fatalf("test frame is %d bytes, need > 4096", len(raw))
	}

	server, client := net.Pipe()
	defer server.Close()
	go server.Write(raw)

	c := NewClient(client)
	defer c.Close()
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != FrameSnapshot || f.Version != 9 || f.Size != size {
		t.Fatalf("decoded type %d version %d size %d", f.Type, f.Version, f.Size)
	}
	if !reflect.DeepEqual(f.Cliques, cliques) {
		t.Fatal("decoded cliques differ from the encoded ones")
	}
}

// deltaFrame round-trips a delta through the codec so Apply sees exactly
// what a subscription would deliver.
func deltaFrame(t *testing.T, from, to uint64, k, size int, removed, addedIDs []int32, added [][]int32) *Frame {
	t.Helper()
	raw := AppendDeltaFrame(nil, from, to, k, 0, 0, size, removed, addedIDs, added)
	f, _, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// baseReplica builds a replica holding cliques 2, 5 and 9 at version 1.
func baseReplica(t *testing.T) *Replica {
	t.Helper()
	var r Replica
	base := deltaFrame(t, 0, 1, 2, 3,
		nil, []int32{2, 5, 9}, [][]int32{{0, 1}, {2, 3}, {4, 5}})
	if err := r.Apply(base); err != nil {
		t.Fatal(err)
	}
	return &r
}

// TestReplicaApplyMerge checks the linear merge against interleaved
// removals and additions (added ids before, between and after kept ones).
func TestReplicaApplyMerge(t *testing.T) {
	r := baseReplica(t)
	d := deltaFrame(t, 1, 2, 2, 5,
		[]int32{5}, []int32{1, 7, 11}, [][]int32{{6, 7}, {8, 9}, {10, 11}})
	if err := r.Apply(d); err != nil {
		t.Fatal(err)
	}
	if r.Version() != 2 || r.Size() != 5 {
		t.Fatalf("version %d size %d after delta, want 2/5", r.Version(), r.Size())
	}
	wantIDs := []int32{1, 2, 7, 9, 11}
	wantCliques := [][]int32{{6, 7}, {0, 1}, {8, 9}, {4, 5}, {10, 11}}
	if !reflect.DeepEqual(r.ids, wantIDs) || !reflect.DeepEqual(r.Cliques(), wantCliques) {
		t.Fatalf("merged to ids %v cliques %v,\nwant %v / %v", r.ids, r.Cliques(), wantIDs, wantCliques)
	}
}

// TestReplicaApplyErrors checks that malformed deltas are rejected and
// leave the replica state untouched.
func TestReplicaApplyErrors(t *testing.T) {
	for name, tc := range map[string]struct {
		frame func(t *testing.T) *Frame
		want  string
	}{
		"version-mismatch": {
			frame: func(t *testing.T) *Frame {
				return deltaFrame(t, 7, 8, 2, 3, nil, nil, nil)
			},
			want: "delta from version",
		},
		"not-a-delta": {
			frame: func(t *testing.T) *Frame {
				raw := AppendSnapshotFrame(nil, 1, 2, 0, 0, 0, nil, false)
				f, _, err := Decode(raw)
				if err != nil {
					t.Fatal(err)
				}
				return f
			},
			want: "not a delta",
		},
		"unknown-removed": {
			frame: func(t *testing.T) *Frame {
				return deltaFrame(t, 1, 2, 2, 2, []int32{4}, nil, nil)
			},
			want: "unknown clique id 4",
		},
		"duplicate-added": {
			frame: func(t *testing.T) *Frame {
				return deltaFrame(t, 1, 2, 2, 4, nil, []int32{5}, [][]int32{{6, 7}})
			},
			want: "duplicate clique id 5",
		},
		"unsorted-removed": {
			frame: func(t *testing.T) *Frame {
				return deltaFrame(t, 1, 2, 2, 1, []int32{9, 5}, nil, nil)
			},
			want: "strictly ascending",
		},
		"size-mismatch": {
			frame: func(t *testing.T) *Frame {
				return deltaFrame(t, 1, 2, 2, 7, []int32{5}, nil, nil)
			},
			want: "frame says 7",
		},
	} {
		t.Run(name, func(t *testing.T) {
			r := baseReplica(t)
			err := r.Apply(tc.frame(t))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Apply error = %v, want %q", err, tc.want)
			}
			if r.Version() != 1 || r.Size() != 3 || len(r.Cliques()) != 3 {
				t.Fatalf("failed Apply mutated the replica: version %d size %d", r.Version(), r.Size())
			}
		})
	}
}
