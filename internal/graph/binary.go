package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// binaryMagic identifies the binary graph format; last byte is a version.
var binaryMagic = [8]byte{'D', 'K', 'C', 'Q', 'G', 'R', 'B', '1'}

// WriteBinary emits a compact binary encoding of the graph (little-endian
// CSR dump): loading it back is an order of magnitude faster than parsing
// an edge-list text file for multi-million-edge graphs. The arrays are
// encoded straight into the buffered writer's own buffer, a bufferful at
// a time, so no copy of the graph is made on the way out.
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	b := append(bw.AvailableBuffer(), binaryMagic[:]...)
	b = binary.LittleEndian.AppendUint64(b, uint64(g.N()))
	if _, err := bw.Write(b); err != nil {
		return err
	}
	if err := writeInt64s(bw, g.offsets); err != nil {
		return err
	}
	if err := writeInt32s(bw, g.adj); err != nil {
		return err
	}
	return bw.Flush()
}

// writeInt64s writes vs little-endian through bw's buffer.
func writeInt64s(bw *bufio.Writer, vs []int64) error {
	for len(vs) > 0 {
		if bw.Available() < 8 {
			if err := bw.Flush(); err != nil {
				return err
			}
		}
		b := bw.AvailableBuffer()
		n := min(len(vs), cap(b)/8)
		b = b[:8*n]
		for i, v := range vs[:n] {
			binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
		vs = vs[n:]
	}
	return nil
}

// writeInt32s writes vs little-endian through bw's buffer.
func writeInt32s(bw *bufio.Writer, vs []int32) error {
	for len(vs) > 0 {
		if bw.Available() < 4 {
			if err := bw.Flush(); err != nil {
				return err
			}
		}
		b := bw.AvailableBuffer()
		n := min(len(vs), cap(b)/4)
		b = b[:4*n]
		for i, v := range vs[:n] {
			binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
		vs = vs[n:]
	}
	return nil
}

// readBlock is the most ReadBinary allocates before the bytes to fill it
// have arrived.
const readBlock = 64 << 10

// readBlocks reads size bytes from r in blocks of at most readBlock bytes,
// so what a stream costs grows with the bytes that actually arrive, not
// with the sizes its header claims.
func readBlocks(r io.Reader, size int64) ([][]byte, error) {
	var blocks [][]byte
	for size > 0 {
		b := make([]byte, min(size, readBlock))
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		blocks = append(blocks, b)
		size -= int64(len(b))
	}
	return blocks, nil
}

// ReadBinary parses a WriteBinary stream and validates its invariants
// (monotone offsets, sorted symmetric adjacency ranges). Each array is
// allocated once all its bytes have arrived, so a stream whose header
// claims more than it holds fails at the cost of what it holds.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("graph: binary header: %w", err)
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("graph: not a binary graph (magic %q)", magic)
	}
	var n int64
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("graph: binary header: %w", err)
	}
	if n < 0 || n > 1<<31 {
		return nil, fmt.Errorf("graph: implausible node count %d", n)
	}
	blocks, err := readBlocks(br, 8*(n+1))
	if err != nil {
		return nil, fmt.Errorf("graph: binary offsets: %w", err)
	}
	offsets := make([]int64, 0, n+1)
	for _, b := range blocks {
		for i := 0; i < len(b); i += 8 {
			offsets = append(offsets, int64(binary.LittleEndian.Uint64(b[i:])))
		}
	}
	if offsets[0] != 0 {
		return nil, fmt.Errorf("graph: offsets must start at 0")
	}
	for i := 1; i <= int(n); i++ {
		if offsets[i] < offsets[i-1] {
			return nil, fmt.Errorf("graph: offsets not monotone at %d", i)
		}
	}
	total := offsets[n]
	if total < 0 || total%2 != 0 || total > 1<<34 {
		return nil, fmt.Errorf("graph: implausible adjacency length %d", total)
	}
	blocks, err = readBlocks(br, 4*total)
	if err != nil {
		return nil, fmt.Errorf("graph: binary adjacency: %w", err)
	}
	adj := make([]int32, 0, total)
	for _, b := range blocks {
		for i := 0; i < len(b); i += 4 {
			adj = append(adj, int32(binary.LittleEndian.Uint32(b[i:])))
		}
	}
	g := &Graph{offsets: offsets, adj: adj}
	// Validate: sorted, in-range, no self-loops, symmetric.
	for u := int32(0); int64(u) < n; u++ {
		nb := g.Neighbors(u)
		for i, v := range nb {
			if v < 0 || int64(v) >= n {
				return nil, fmt.Errorf("graph: node %d has out-of-range neighbour %d", u, v)
			}
			if v == u {
				return nil, fmt.Errorf("graph: self-loop at %d", u)
			}
			if i > 0 && nb[i-1] >= v {
				return nil, fmt.Errorf("graph: adjacency of %d not strictly sorted", u)
			}
			if !g.HasEdge(v, u) {
				return nil, fmt.Errorf("graph: asymmetric edge (%d,%d)", u, v)
			}
		}
	}
	return g, nil
}
