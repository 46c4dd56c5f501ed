package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"mp5/internal/core"
	"mp5/internal/dataplane"
	"mp5/internal/tenant"
)

// Wire format. Every packet travels as one length-prefixed frame — the
// prefix delimits frames on the TCP byte stream and doubles as an integrity
// check on UDP, where one datagram carries exactly one frame:
//
//	uint32  payload length (big-endian, excludes the prefix itself)
//	uint32  seq      client-chosen sequence number, echoed in the ack
//	uint16  tenant   tenant wire id (0 = the first/default tenant)
//	uint16  port     input port (bookkeeping only)
//	uint16  size     wire size in bytes (bookkeeping only)
//	uint16  nfields  header field count — must match the daemon's program
//	int64×nfields    header field values (big-endian two's complement)
//
// Acks (TCP lossless mode only) are raw big-endian uint32 sequence numbers
// written back on the same connection when the packet egresses the engine.
const (
	frameHeader  = 4
	payloadFixed = 4 + 2 + 2 + 2 + 2
	// maxFields bounds a frame's field count so a corrupt or hostile
	// length prefix cannot make the server allocate unboundedly.
	maxFields  = 1 << 12
	maxPayload = payloadFixed + 8*maxFields
	ackBytes   = 4
)

var (
	errShortFrame = errors.New("server: frame shorter than the fixed payload header")
	errBadLength  = errors.New("server: frame length disagrees with its field count")
	errFrameRange = errors.New("server: frame length out of range")
)

// appendFrame encodes one arrival as a length-prefixed frame onto dst.
func appendFrame(dst []byte, seq uint32, tenant uint16, a *core.Arrival) []byte {
	n := len(a.Fields)
	dst = binary.BigEndian.AppendUint32(dst, uint32(payloadFixed+8*n))
	dst = binary.BigEndian.AppendUint32(dst, seq)
	dst = binary.BigEndian.AppendUint16(dst, tenant)
	dst = binary.BigEndian.AppendUint16(dst, uint16(a.Port))
	dst = binary.BigEndian.AppendUint16(dst, uint16(a.Size))
	dst = binary.BigEndian.AppendUint16(dst, uint16(n))
	for _, f := range a.Fields {
		dst = binary.BigEndian.AppendUint64(dst, uint64(f))
	}
	return dst
}

// decodePayload decodes the frame payload (everything after the length
// prefix) into an arrival whose field values are appended to arena: a.Fields
// aliases arena's spare capacity, clipped so a later append can never reach
// a neighbour's values. A nil arena allocates, so the arrival owns its
// storage outright — the one-frame reference form; the slab decoder passes
// its own arena after checking it has room for (len(p)-payloadFixed)/8
// values, which is exactly what a well-formed payload appends. The arrival's
// Cycle is left zero — arrival order is assigned by the admitter, not
// carried on the wire.
func decodePayload(p []byte, arena []int64) (seq uint32, tenant uint16, a core.Arrival, err error) {
	if len(p) < payloadFixed {
		return 0, 0, a, errShortFrame
	}
	seq = binary.BigEndian.Uint32(p)
	tenant = binary.BigEndian.Uint16(p[4:])
	a.Port = int(binary.BigEndian.Uint16(p[6:]))
	a.Size = int(binary.BigEndian.Uint16(p[8:]))
	n := int(binary.BigEndian.Uint16(p[10:]))
	if n > maxFields {
		return 0, 0, a, fmt.Errorf("server: frame claims %d fields (max %d)", n, maxFields)
	}
	if len(p) != payloadFixed+8*n {
		return 0, 0, a, errBadLength
	}
	lo := len(arena)
	for i := 0; i < n; i++ {
		arena = append(arena, int64(binary.BigEndian.Uint64(p[payloadFixed+8*i:])))
	}
	a.Fields = arena[lo:len(arena):len(arena)]
	return seq, tenant, a, nil
}

// decodeDatagram decodes one UDP datagram, which must hold exactly one
// frame — a truncated or coalesced datagram is a decode error, not a
// resynchronization problem. arena is as in decodePayload.
func decodeDatagram(b []byte, arena []int64) (seq uint32, tenant uint16, a core.Arrival, err error) {
	if len(b) < frameHeader {
		return 0, 0, a, errShortFrame
	}
	if int(binary.BigEndian.Uint32(b)) != len(b)-frameHeader {
		return 0, 0, a, errBadLength
	}
	return decodePayload(b[frameHeader:], arena)
}

const (
	// slabFrames caps a slab at the admit loop's batch size: one slab is one
	// SubmitBatchTo run (per tenant), so a bigger slab buys nothing.
	slabFrames = 256
	// readBuf is the per-connection socket reader. slabArena holds every
	// field value that can sit in it at once (8 wire bytes each), so a slab
	// is never cut short by its arena before the reader runs dry — and it
	// holds at least one maximal frame, so a slab can always take its first.
	readBuf   = 1 << 16
	slabArena = readBuf / 8
)

// slab is one burst of decoded packets: what a connection's reader found
// whole in its buffer (TCP) or one datagram (UDP), handed to the admitter
// with one queue operation and recycled once it has been submitted. It is a
// struct of parallel columns so the admitter passes sub-slices straight to
// SubmitBatchTo. The codec fills arrs/seqs/tids (arrs[i].Fields aliases
// arena — valid until the slab is recycled; the engine copies fields at
// admission); Server.resolve then drops frames no tenant accepts and fills
// tns/tags/spans for the survivors. conn is the TCP connection the burst
// came from and its acks go to (nil: UDP, ackless).
type slab struct {
	arrs  []core.Arrival
	seqs  []uint32
	tids  []uint16
	arena []int64

	conn  *tcpConn
	tns   []*tenant.Tenant
	tags  []uint64
	spans []*dataplane.Span

	pool *sync.Pool // where free returns it
}

// newSlab builds a slab for up to frames packets with room for arena field
// values, recycled through pool.
func newSlab(pool *sync.Pool, frames, arena int) *slab {
	return &slab{
		arrs:  make([]core.Arrival, 0, frames),
		seqs:  make([]uint32, 0, frames),
		tids:  make([]uint16, 0, frames),
		arena: make([]int64, 0, arena),
		tns:   make([]*tenant.Tenant, 0, frames),
		tags:  make([]uint64, 0, frames),
		spans: make([]*dataplane.Span, 0, frames),
		pool:  pool,
	}
}

// free recycles the slab once nothing reads its arena any more.
func (sl *slab) free() {
	sl.reset()
	sl.pool.Put(sl)
}

// reset empties the slab for reuse, dropping the pointers it held.
func (sl *slab) reset() {
	clear(sl.arrs)
	clear(sl.tns)
	clear(sl.spans)
	sl.arrs, sl.seqs, sl.tids, sl.arena = sl.arrs[:0], sl.seqs[:0], sl.tids[:0], sl.arena[:0]
	sl.tns, sl.tags, sl.spans = sl.tns[:0], sl.tags[:0], sl.spans[:0]
	sl.conn = nil
}

func (sl *slab) push(seq uint32, tid uint16, a core.Arrival) {
	sl.arrs = append(sl.arrs, a)
	sl.seqs = append(sl.seqs, seq)
	sl.tids = append(sl.tids, tid)
}

// fill decodes frames from a TCP byte stream into the (empty) slab: it
// blocks until the first whole frame arrives, then takes every further
// frame already sitting whole in br — up to max frames or a full arena —
// and returns without touching the socket again, so a burst the client
// wrote at once becomes one slab. Frames are decoded in place (Peek,
// Discard) into the arena: no allocation per frame, none past the slab.
//
// malformed counts frames whose length prefix was in range — so the frame
// boundary held and the stream stays usable — but whose payload
// decodePayload rejects; they are skipped. A non-nil err ends the stream:
// io.EOF is a clean half-close, errFrameRange a hostile or corrupt length
// prefix after which frame boundaries are lost (the caller must stop
// reading), anything else the transport's. Frames decoded before the error
// are in the slab.
func (sl *slab) fill(br *bufio.Reader, max int) (malformed int, err error) {
	for first := true; len(sl.arrs) < max; first = false {
		if !first && br.Buffered() < frameHeader {
			break
		}
		hdr, err := br.Peek(frameHeader)
		if err != nil {
			return malformed, err
		}
		n := int(binary.BigEndian.Uint32(hdr))
		if n < payloadFixed || n > maxPayload {
			return malformed, errFrameRange
		}
		if !first && (br.Buffered() < frameHeader+n || len(sl.arena)+(n-payloadFixed)/8 > cap(sl.arena)) {
			break
		}
		p, err := br.Peek(frameHeader + n)
		if err != nil {
			return malformed, err
		}
		seq, tid, a, derr := decodePayload(p[frameHeader:], sl.arena)
		br.Discard(frameHeader + n) // cannot fail: the bytes were just peeked
		if derr != nil {
			malformed++
			continue
		}
		sl.arena = sl.arena[:len(sl.arena)+len(a.Fields)]
		sl.push(seq, tid, a)
	}
	return malformed, nil
}
