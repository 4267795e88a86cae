package dkclique

import "repro/internal/wire"

// WireContentType is the media type that selects the compact binary
// read protocol on dkserver's GET endpoints: send it in the Accept
// header and the response body is a single length-prefixed, CRC-checked
// frame instead of JSON. The same value comes back as the response
// Content-Type.
const WireContentType = wire.ContentType

// WireFrame is one decoded frame of the binary read protocol. Type
// selects which of the remaining fields are meaningful — see the
// WireFrame* constants and the field docs on the underlying type.
type WireFrame = wire.Frame

// WireFrameType discriminates the frame payloads.
type WireFrameType = wire.FrameType

// The frame types a server answers with: a full or lean snapshot of the
// result set, a point lookup, a batched lookup, the service counters,
// an error carrying an HTTP-equivalent status code, and — on the raw
// TCP transport's subscribe stream — a snapshot delta (the cliques
// removed and added between two published versions).
const (
	WireFrameSnapshot WireFrameType = wire.FrameSnapshot
	WireFrameClique   WireFrameType = wire.FrameClique
	WireFrameCliques  WireFrameType = wire.FrameCliques
	WireFrameStats    WireFrameType = wire.FrameStats
	WireFrameError    WireFrameType = wire.FrameError
	WireFrameDelta    WireFrameType = wire.FrameDelta
)

// The request frame types a client of the raw TCP transport (dkserver
// -tcp) sends; they live in a type range disjoint from the responses.
// Encode them with the EncodeWire*Request helpers and decode server
// responses with DecodeWireFrame.
const (
	WireFrameReqSnapshot  WireFrameType = wire.FrameReqSnapshot
	WireFrameReqClique    WireFrameType = wire.FrameReqClique
	WireFrameReqCliques   WireFrameType = wire.FrameReqCliques
	WireFrameReqStats     WireFrameType = wire.FrameReqStats
	WireFrameReqSubscribe WireFrameType = wire.FrameReqSubscribe
)

// EncodeWireSnapshotRequest appends a snapshot request frame to b;
// include selects the full member list over the lean header-only
// variant.
func EncodeWireSnapshotRequest(b []byte, include bool) []byte {
	return wire.AppendSnapshotRequest(b, include, "")
}

// EncodeWireCliqueRequest appends a point-lookup request frame to b.
func EncodeWireCliqueRequest(b []byte, node int32) []byte {
	return wire.AppendCliqueRequest(b, node, "")
}

// EncodeWireCliquesRequest appends a batched-lookup request frame to b.
func EncodeWireCliquesRequest(b []byte, nodes []int32) []byte {
	return wire.AppendCliquesRequest(b, nodes, "")
}

// EncodeWireStatsRequest appends a stats request frame to b.
func EncodeWireStatsRequest(b []byte) []byte {
	return wire.AppendStatsRequest(b, "")
}

// EncodeWireSubscribeRequest appends a subscribe request frame to b:
// the server turns the connection into a push stream of delta frames,
// starting from the empty base, so the first delta carries the whole
// current snapshot.
func EncodeWireSubscribeRequest(b []byte) []byte {
	return wire.AppendSubscribeRequest(b, "")
}

// The Tenant variants target a named tenant on a multi-tenant server
// (dkserver -root): the request frame carries the tenant name as a
// suffix and the server routes it to that tenant's engine. An empty
// tenant is the unsuffixed frame and addresses the reserved tenant
// "default", so the plain helpers above keep working against a
// multi-tenant server unchanged.

// EncodeWireSnapshotRequestTenant is EncodeWireSnapshotRequest
// addressed to a named tenant.
func EncodeWireSnapshotRequestTenant(b []byte, include bool, tenant string) []byte {
	return wire.AppendSnapshotRequest(b, include, tenant)
}

// EncodeWireCliqueRequestTenant is EncodeWireCliqueRequest addressed to
// a named tenant.
func EncodeWireCliqueRequestTenant(b []byte, node int32, tenant string) []byte {
	return wire.AppendCliqueRequest(b, node, tenant)
}

// EncodeWireCliquesRequestTenant is EncodeWireCliquesRequest addressed
// to a named tenant.
func EncodeWireCliquesRequestTenant(b []byte, nodes []int32, tenant string) []byte {
	return wire.AppendCliquesRequest(b, nodes, tenant)
}

// EncodeWireStatsRequestTenant is EncodeWireStatsRequest addressed to a
// named tenant.
func EncodeWireStatsRequestTenant(b []byte, tenant string) []byte {
	return wire.AppendStatsRequest(b, tenant)
}

// EncodeWireSubscribeRequestTenant is EncodeWireSubscribeRequest
// addressed to a named tenant: the delta stream follows that tenant's
// publications for the connection's lifetime.
func EncodeWireSubscribeRequestTenant(b []byte, tenant string) []byte {
	return wire.AppendSubscribeRequest(b, tenant)
}

// WireLookup resolves one node of a batched lookup frame: the index of
// its clique in the frame's Cliques list, or -1 when uncovered.
type WireLookup = wire.Lookup

// WireStats is the counter block of a stats frame: every service and
// engine counter the server lists, each with its name, in the server's
// order. Get reads a counter by name, so a server that adds a counter
// changes no frame layout.
type WireStats = wire.Stats

// WireCounter is one named value of a stats frame.
type WireCounter = wire.Counter

// ErrWireShort is returned by DecodeWireFrame when data holds only a
// prefix of a frame — callers reading from a stream should wait for
// more bytes rather than fail.
var ErrWireShort = wire.ErrShort

// DecodeWireFrame decodes the first complete frame in data, returning
// the frame and the number of bytes consumed — Go clients of dkserver's
// binary endpoints decode response bodies (or a streamed concatenation
// of frames) with it. Decoding never panics: truncated, corrupt or
// hostile input returns an error, with truncation reported as
// ErrWireShort so callers reading from a stream know to wait for more
// bytes.
func DecodeWireFrame(data []byte) (*WireFrame, int, error) {
	return wire.Decode(data)
}
