package core

import (
	"crypto/md5"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// digestCore is a complete bipartite graph on two sides of 70 with a
// tenth of the edges inside each side: dense enough that a few dozen
// score-DAG roots have more than 64 out-neighbours.
func digestCore() *graph.Graph {
	const side = 70
	rng := rand.New(rand.NewSource(11))
	b := graph.NewBuilder(2 * side)
	for u := int32(0); u < 2*side; u++ {
		for v := u + 1; v < 2*side; v++ {
			if (u < side) != (v < side) || rng.Float64() < 0.1 {
				b.AddEdge(u, v)
			}
		}
	}
	return b.MustBuild()
}

// cliquesDigest is the md5 of a clique set, members as little-endian
// int32 in order.
func cliquesDigest(cliques [][]int32) string {
	h := md5.New()
	var buf [4]byte
	for _, c := range cliques {
		for _, v := range c {
			binary.LittleEndian.PutUint32(buf[:], uint32(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFindDigests pins the static methods' outputs: the md5 of
// Result.Cliques and TotalKCliques for L, LP and GC at k = 3..5, by
// default and under StrictTies, at 1 and 2 workers. Under StrictTies all
// three methods agree (Theorem 4 for GC and LP).
//
// The first three shapes have score-DAG roots on both sides of the
// word-packed kernel's 64-member cap, and their largest degrees (67, 254
// and 83) send L and LP's count to the listing DAG (kclique.CountDAG).
// "degree" has a largest degree of 26, so L and LP count on the degree
// DAG; its digests were taken before the count DAG could be the degree
// DAG.
func TestFindDigests(t *testing.T) {
	shapes := map[string]*graph.Graph{
		"community": gen.CommunitySocial(600, 12, 0.2, 10000, 12),
		"ba":        gen.BarabasiAlbert(2000, 12, 7),
		"core":      digestCore(),
		"degree":    gen.CommunitySocial(2000, 12, 0.2, 4000, 12),
	}
	want := []struct {
		shape string
		k     int
		total uint64
		// L, LP and GC by default, then L, LP and GC under StrictTies.
		digests [6]string
	}{
		{"community", 3, 18280, [6]string{"9eac2541604c1793b445952494fdefbb", "9eac2541604c1793b445952494fdefbb", "7f4ae6365f87cc491f36e7969306ef98", "fcba9c1717ad8808ddf23c666220313a", "fcba9c1717ad8808ddf23c666220313a", "fcba9c1717ad8808ddf23c666220313a"}},
		{"community", 4, 8028, [6]string{"15c6cca5fdecfb4bfc101bd4fdf276a9", "15c6cca5fdecfb4bfc101bd4fdf276a9", "d846367e6367447d7293171532958e41", "6c970469609356f59c1028f3b33a9377", "6c970469609356f59c1028f3b33a9377", "6c970469609356f59c1028f3b33a9377"}},
		{"community", 5, 4523, [6]string{"a4a715f006ee7847cb9404e7af0fc22f", "a4a715f006ee7847cb9404e7af0fc22f", "eaf4b8426203627156e57af1b7035554", "eee7eee2ca8f11e3fd20c2971e4c7150", "eee7eee2ca8f11e3fd20c2971e4c7150", "eee7eee2ca8f11e3fd20c2971e4c7150"}},
		{"ba", 3, 11728, [6]string{"ec75f1f50348e374b988e5ca23d7610b", "ec75f1f50348e374b988e5ca23d7610b", "c8ee7109f7ee943eecf5f8c66407bdb9", "8889dbc06f4acaab70d2461f09ee4a20", "8889dbc06f4acaab70d2461f09ee4a20", "8889dbc06f4acaab70d2461f09ee4a20"}},
		{"ba", 4, 3544, [6]string{"d53d08a19f7cdf1edd95621d34c1acfb", "d53d08a19f7cdf1edd95621d34c1acfb", "d53d08a19f7cdf1edd95621d34c1acfb", "d53d08a19f7cdf1edd95621d34c1acfb", "d53d08a19f7cdf1edd95621d34c1acfb", "d53d08a19f7cdf1edd95621d34c1acfb"}},
		{"ba", 5, 1180, [6]string{"2997ef8ed8bbcfd75870d7823a44d7bb", "2997ef8ed8bbcfd75870d7823a44d7bb", "2997ef8ed8bbcfd75870d7823a44d7bb", "2997ef8ed8bbcfd75870d7823a44d7bb", "2997ef8ed8bbcfd75870d7823a44d7bb", "2997ef8ed8bbcfd75870d7823a44d7bb"}},
		{"core", 3, 33584, [6]string{"ef0f3c0b47e2e561b07b21d33f01a8db", "ef0f3c0b47e2e561b07b21d33f01a8db", "802d27b6e721717bd7fec51d9e50d316", "ebc9921a5e40fdabe9e3f5dd16ec44a5", "ebc9921a5e40fdabe9e3f5dd16ec44a5", "ebc9921a5e40fdabe9e3f5dd16ec44a5"}},
		{"core", 4, 65801, [6]string{"a2707ad0614ca9980657a29996d20be3", "a2707ad0614ca9980657a29996d20be3", "37e4a88bf9731c5ded2e5272f3ec8c1e", "48fd47c782806f279930f31d9a20b5fc", "48fd47c782806f279930f31d9a20b5fc", "48fd47c782806f279930f31d9a20b5fc"}},
		{"core", 5, 29920, [6]string{"110dab1a22e13e3ff0ac0a318aafee62", "110dab1a22e13e3ff0ac0a318aafee62", "110dab1a22e13e3ff0ac0a318aafee62", "7d1614971f8c32708eacb537220f181c", "7d1614971f8c32708eacb537220f181c", "7d1614971f8c32708eacb537220f181c"}},
		{"degree", 3, 18758, [6]string{"d2431820a978c90908af4e1072dfb066", "d2431820a978c90908af4e1072dfb066", "329ee026ce9c2c2a3dd2585284aae43e", "2d3a283f08b4d516a501d28f3692fdf7", "2d3a283f08b4d516a501d28f3692fdf7", "2d3a283f08b4d516a501d28f3692fdf7"}},
		{"degree", 4, 21138, [6]string{"ce0bba8bf29a1bd23f6109cbbce9e34b", "ce0bba8bf29a1bd23f6109cbbce9e34b", "6d49a0eafc987fb17ea3c55999a3ce43", "8c980b01a2433225a084d151623bdd79", "8c980b01a2433225a084d151623bdd79", "8c980b01a2433225a084d151623bdd79"}},
		{"degree", 5, 13722, [6]string{"443d795779f790260a97a2faf250ea66", "443d795779f790260a97a2faf250ea66", "53f127a665e12710f079d8fde8852515", "402a402532b1a12786945d6a6146f553", "402a402532b1a12786945d6a6146f553", "402a402532b1a12786945d6a6146f553"}},
	}
	for _, w := range want {
		i := 0
		for _, strict := range []bool{false, true} {
			for _, alg := range []Algorithm{L, LP, GC} {
				for _, workers := range []int{1, 2} {
					res, err := Find(shapes[w.shape], Options{K: w.k, Algorithm: alg, Workers: workers, StrictTies: strict})
					if err != nil {
						t.Fatal(err)
					}
					if got := cliquesDigest(res.Cliques); got != w.digests[i] || res.TotalKCliques != w.total {
						t.Errorf("%s k=%d %v strict=%v workers=%d: digest %s, %d k-cliques; want %s, %d",
							w.shape, w.k, alg, strict, workers, got, res.TotalKCliques, w.digests[i], w.total)
					}
				}
				i++
			}
		}
	}
}
