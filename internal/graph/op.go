package graph

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Op is one edge update of the §V dynamic graph: the insertion of the
// edge (U, V) when Insert is set, its deletion otherwise. It is the one
// record the engine applies, the WAL logs, a primary ships to its
// followers and both transports accept.
type Op struct {
	// Insert selects insertion (true) or deletion (false).
	Insert bool
	U, V   int32
}

// Valid reports whether op names an edge of an n-node graph: two
// distinct endpoints in [0, n). Every path that hands ops to an engine
// checks it first, because the engine panics on an out-of-range id.
func (op Op) Valid(n int) bool {
	return op.U >= 0 && op.V >= 0 && int(op.U) < n && int(op.V) < n && op.U != op.V
}

// opSize is the encoded size of one op in an op list.
const opSize = 9

// OpsSize returns the encoded size of an op list of count ops.
func OpsSize(count int) int { return 4 + opSize*count }

// AppendOps appends the op-list encoding of ops to b and returns the
// extended buffer: [4] count C, then C × ([1] insert flag, [4] u,
// [4] v), little-endian. A WAL record's payload and the tail of a
// replication batch frame are exactly these bytes.
func AppendOps(b []byte, ops []Op) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ops)))
	for _, op := range ops {
		flag := byte(0)
		if op.Insert {
			flag = 1
		}
		b = append(b, flag)
		b = binary.LittleEndian.AppendUint32(b, uint32(op.U))
		b = binary.LittleEndian.AppendUint32(b, uint32(op.V))
	}
	return b
}

// DecodeOps decodes an op list that fills p exactly and appends its ops
// to dst. Writers encode only valid ops, so a count that disagrees with
// p's length, a flag byte other than 0 or 1, or an op that is not Valid
// in a graph of any size is corruption, and is an error rather than an
// op that could reach an engine.
func DecodeOps(dst []Op, p []byte) ([]Op, error) {
	if len(p) < 4 {
		return dst, fmt.Errorf("graph: op list of %d bytes has no count", len(p))
	}
	count := int64(binary.LittleEndian.Uint32(p))
	if int64(len(p)) != 4+opSize*count {
		return dst, fmt.Errorf("graph: %d op bytes for a list of %d ops", len(p)-4, count)
	}
	dst = slices.Grow(dst, int(count))
	for i, rec := 0, p[4:]; len(rec) > 0; i, rec = i+1, rec[opSize:] {
		op := Op{
			Insert: rec[0] == 1,
			U:      int32(binary.LittleEndian.Uint32(rec[1:5])),
			V:      int32(binary.LittleEndian.Uint32(rec[5:9])),
		}
		if rec[0] > 1 || !op.Valid(math.MaxInt) {
			return dst, fmt.Errorf("graph: op %d is not a valid edge op", i)
		}
		dst = append(dst, op)
	}
	return dst, nil
}
