package comm

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// The TCP backend's length-prefixed binary wire protocol. Every message
// on a peer connection is one frame:
//
//	offset  size  field
//	0       4     payload length in bytes (little-endian uint32)
//	4       1     frame type (frameHello .. frameBye)
//	5       1     tag (meaning depends on the type; see below)
//	6       1     reduction instance (frameReduce only; must be zero on
//	              every other type — it distinguishes concurrently
//	              in-flight tagged reduction rounds)
//	7       1     reserved, must be zero
//	8       n     payload (float64 values, little-endian bit patterns,
//	              except handshake frames, which carry the fields below)
//
// Frame types and their tags:
//
//   - frameHello / frameWelcome: the connection handshake. The dialing
//     (lower) rank sends Hello, the accepting (higher) rank answers
//     Welcome or Reject. The payload is the handshake block: an 8-byte
//     magic, a protocol version, the sender's rank, the rank count, and
//     the partition geometry (dims, NX, NY, NZ, PX, PY, PZ; z entries
//     zero for 2D). Both sides verify the peer's geometry matches their
//     own exactly — a mismatched handshake fails fast with a descriptive
//     error instead of corrupting a solve. Tag is zero.
//   - frameReject: the accept side's handshake refusal; the payload is a
//     human-readable reason (UTF-8).
//   - frameExchange: one packed halo slab. The tag is the grid.Side of
//     the *receiving* rank at which the slab applies (the same convention
//     as the Hub's mailbox index), so a desynchronised exchange is caught
//     as a tag mismatch, not silent corruption.
//   - frameReduce: one recursive-doubling reduction step. The tag is the
//     round code (tagReduceFold / round index / tagReduceResult), so two
//     ranks disagreeing about the reduction schedule fail loudly. The
//     instance byte carries the caller-level reduction tag
//     (AllReduceSumNStartTagged), so steps of distinct in-flight rounds
//     never match each other even when their round codes collide.
//   - frameGather: one rank's interior block travelling to rank 0.
//   - frameBye: graceful shutdown notice sent by Close. A Bye arriving
//     where data was expected reports "peer shut down" instead of a bare
//     EOF.
const (
	frameHello byte = iota + 1
	frameWelcome
	frameReject
	frameExchange
	frameReduce
	frameGather
	frameBye
)

// Reduction round tags. Rounds of the recursive-doubling butterfly use
// the mask's bit index (0..62); the non-power-of-two fold-in and its
// result redistribution use the reserved codes.
const (
	tagReduceFold   byte = 0xF0
	tagReduceResult byte = 0xF1
)

// wireMagic opens every handshake payload; it rejects strangers (port
// scanners, misdirected HTTP) before any geometry parsing.
var wireMagic = [8]byte{'T', 'E', 'A', 'L', 'T', 'C', 'P', '1'}

// wireVersion is bumped on any incompatible frame-format change.
const wireVersion uint16 = 1

// maxFrameBytes caps a frame's payload so a corrupt or hostile length
// prefix cannot trigger a multi-gigabyte allocation.
const maxFrameBytes = 1 << 30

const frameHeaderBytes = 8

func frameTypeName(t byte) string {
	switch t {
	case frameHello:
		return "hello"
	case frameWelcome:
		return "welcome"
	case frameReject:
		return "reject"
	case frameExchange:
		return "exchange"
	case frameReduce:
		return "reduce"
	case frameGather:
		return "gather"
	case frameBye:
		return "bye"
	}
	return fmt.Sprintf("type(%d)", t)
}

// appendFrameHeader appends the 8-byte frame header for a payload of n
// bytes. inst is the reduction-instance byte and must be zero for every
// type but frameReduce.
func appendFrameHeader(buf []byte, typ, tag, inst byte, n int) []byte {
	var hdr [frameHeaderBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(n))
	hdr[4] = typ
	hdr[5] = tag
	hdr[6] = inst
	return append(buf, hdr[:]...)
}

// floatFrame builds a complete frame whose payload is vals.
func floatFrame(typ, tag, inst byte, vals []float64) []byte {
	buf := make([]byte, 0, frameHeaderBytes+8*len(vals))
	buf = appendFrameHeader(buf, typ, tag, inst, 8*len(vals))
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// decodeFloats interprets a frame payload as packed float64s.
func decodeFloats(payload []byte) ([]float64, error) {
	if len(payload)%8 != 0 {
		return nil, fmt.Errorf("payload length %d is not a multiple of 8", len(payload))
	}
	vals := make([]float64, len(payload)/8)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
	}
	return vals, nil
}

// readFrame reads one complete frame from r.
func readFrame(r io.Reader) (typ, tag, inst byte, payload []byte, err error) {
	var hdr [frameHeaderBytes]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > maxFrameBytes {
		return 0, 0, 0, nil, fmt.Errorf("frame payload of %d bytes exceeds the %d-byte cap (corrupt stream?)", n, maxFrameBytes)
	}
	if hdr[6] != 0 && hdr[4] != frameReduce {
		return 0, 0, 0, nil, fmt.Errorf("non-zero reduction-instance byte on a %s frame (corrupt stream?)", frameTypeName(hdr[4]))
	}
	if hdr[7] != 0 {
		return 0, 0, 0, nil, fmt.Errorf("non-zero reserved byte in frame header (corrupt stream?)")
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, 0, 0, nil, fmt.Errorf("reading %d-byte payload: %w", n, err)
	}
	return hdr[4], hdr[5], hdr[6], payload, nil
}

// handshake is the decoded payload of a Hello/Welcome frame.
type handshake struct {
	rank, size             int
	dims                   int
	nx, ny, nz, px, py, pz int
}

// handshakeFor captures this communicator's identity and geometry.
func (t *TCP) handshakeFor() handshake {
	p := t.part
	h := handshake{rank: t.rank, size: t.size, dims: 3,
		nx: p.NX, ny: p.NY, nz: p.NZ, px: p.PX, py: p.PY, pz: p.PZ}
	if p.Flat() {
		h.dims = 2
	}
	return h
}

func (h handshake) geometry() string {
	if h.dims == 3 {
		return fmt.Sprintf("%dD %dx%dx%d cells over %dx%dx%d ranks", h.dims, h.nx, h.ny, h.nz, h.px, h.py, h.pz)
	}
	return fmt.Sprintf("%dD %dx%d cells over %dx%d ranks", h.dims, h.nx, h.ny, h.px, h.py)
}

// encode serialises the handshake block (magic, version, rank, size,
// dims, NX, NY, NZ, PX, PY, PZ as uint32s).
func (h handshake) encode(typ byte) []byte {
	payload := make([]byte, 0, 8+2+9*4)
	payload = append(payload, wireMagic[:]...)
	payload = binary.LittleEndian.AppendUint16(payload, wireVersion)
	for _, v := range []int{h.rank, h.size, h.dims, h.nx, h.ny, h.nz, h.px, h.py, h.pz} {
		payload = binary.LittleEndian.AppendUint32(payload, uint32(v))
	}
	buf := make([]byte, 0, frameHeaderBytes+len(payload))
	buf = appendFrameHeader(buf, typ, 0, 0, len(payload))
	return append(buf, payload...)
}

func decodeHandshake(payload []byte) (handshake, error) {
	const want = 8 + 2 + 9*4
	if len(payload) != want {
		return handshake{}, fmt.Errorf("handshake payload is %d bytes, want %d", len(payload), want)
	}
	if [8]byte(payload[:8]) != wireMagic {
		return handshake{}, fmt.Errorf("bad magic %q (not a tealeaf TCP peer?)", payload[:8])
	}
	if v := binary.LittleEndian.Uint16(payload[8:10]); v != wireVersion {
		return handshake{}, fmt.Errorf("wire protocol version %d, want %d", v, wireVersion)
	}
	var h handshake
	fields := []*int{&h.rank, &h.size, &h.dims, &h.nx, &h.ny, &h.nz, &h.px, &h.py, &h.pz}
	for i, p := range fields {
		*p = int(binary.LittleEndian.Uint32(payload[10+4*i:]))
	}
	return h, nil
}

// checkGeometry verifies a peer's handshake against our own: same rank
// count and the exact same partition. Solvers assume every rank agrees on
// the decomposition; letting a mismatch through would mean silently wrong
// halos, so it is a handshake-time hard error.
func (t *TCP) checkGeometry(peer handshake) error {
	own := t.handshakeFor()
	if peer.size != own.size {
		return fmt.Errorf("rank-count mismatch: peer rank %d runs with %d ranks, we run with %d", peer.rank, peer.size, own.size)
	}
	if peer.rank < 0 || peer.rank >= own.size {
		return fmt.Errorf("peer rank %d outside [0,%d)", peer.rank, own.size)
	}
	if peer.rank == own.rank {
		return fmt.Errorf("peer claims our own rank %d (duplicate -rank on one peer list?)", own.rank)
	}
	if peer.dims != own.dims || peer.nx != own.nx || peer.ny != own.ny || peer.nz != own.nz ||
		peer.px != own.px || peer.py != own.py || peer.pz != own.pz {
		return fmt.Errorf("partition mismatch: peer rank %d has %s, we have %s", peer.rank, peer.geometry(), own.geometry())
	}
	return nil
}
