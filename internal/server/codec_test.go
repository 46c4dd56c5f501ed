package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"sync"
	"testing"

	"mp5/internal/core"
)

// streamSlab decodes one slab's worth of frames from wire, as a connection's
// reader would.
func streamSlab(wire []byte) (*slab, int, error) {
	sl := newSlab(new(sync.Pool), slabFrames, slabArena)
	malformed, err := sl.fill(bufio.NewReaderSize(bytes.NewReader(wire), readBuf), slabFrames)
	return sl, malformed, err
}

func TestFrameRoundTrip(t *testing.T) {
	arrs := []core.Arrival{
		{Port: 3, Size: 64, Fields: []int64{1, -2, 1 << 40, 0}},
		{Port: 0, Size: 1400, Fields: nil},
		{Port: 65535, Size: 0, Fields: []int64{-1}},
	}
	var wire []byte
	for i := range arrs {
		wire = appendFrame(wire, uint32(100+i), uint16(i%3), &arrs[i])
	}
	sl, malformed, err := streamSlab(wire)
	if err != nil || malformed != 0 || len(sl.arrs) != len(arrs) {
		t.Fatalf("decoded %d of %d frames, %d malformed, err %v", len(sl.arrs), len(arrs), malformed, err)
	}
	for i := range arrs {
		seq, tenant, got := sl.seqs[i], sl.tids[i], sl.arrs[i]
		if seq != uint32(100+i) {
			t.Fatalf("frame %d: seq %d", i, seq)
		}
		if tenant != uint16(i%3) {
			t.Fatalf("frame %d: tenant %d", i, tenant)
		}
		if got.Port != arrs[i].Port || got.Size != arrs[i].Size {
			t.Fatalf("frame %d: port/size %d/%d", i, got.Port, got.Size)
		}
		if len(got.Fields) != len(arrs[i].Fields) {
			t.Fatalf("frame %d: %d fields", i, len(got.Fields))
		}
		if len(got.Fields) > 0 && !reflect.DeepEqual(got.Fields, arrs[i].Fields) {
			t.Fatalf("frame %d: fields %v != %v", i, got.Fields, arrs[i].Fields)
		}
	}
	// The stream ended on a frame boundary: the next slab is a clean EOF.
	if sl, _, err := streamSlab(nil); err != io.EOF || len(sl.arrs) != 0 {
		t.Fatalf("empty stream: %d frames, err %v", len(sl.arrs), err)
	}
}

func TestDatagramRoundTrip(t *testing.T) {
	a := core.Arrival{Port: 2, Size: 200, Fields: []int64{7, 8, 9}}
	dg := appendFrame(nil, 55, 7, &a)
	seq, tenant, got, err := decodeDatagram(dg, nil)
	if err != nil || seq != 55 || tenant != 7 || !reflect.DeepEqual(got.Fields, a.Fields) {
		t.Fatalf("seq=%d tenant=%d got=%+v err=%v", seq, tenant, got, err)
	}
}

// TestDatagramBufferReuse is the UDP read-buffer aliasing regression test:
// udpLoop reuses one buffer across ReadFrom calls, so a decoded arrival
// must own its field storage outright — overwriting the buffer with the
// next datagram (as the kernel effectively does) must not corrupt arrivals
// already decoded, even while they sit in the ingress queue.
func TestDatagramBufferReuse(t *testing.T) {
	buf := make([]byte, frameHeader+maxPayload)
	decodeInto := func(a *core.Arrival) (core.Arrival, uint32) {
		wire := appendFrame(nil, 9, 0, a)
		n := copy(buf, wire)
		seq, _, got, err := decodeDatagram(buf[:n], nil)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		return got, seq
	}
	first := core.Arrival{Port: 1, Size: 100, Fields: []int64{11, 22, 33}}
	second := core.Arrival{Port: 2, Size: 200, Fields: []int64{-7, -8, -9}}
	gotFirst, _ := decodeInto(&first)
	gotSecond, _ := decodeInto(&second) // clobbers buf where first decoded from
	for i := range buf {
		buf[i] = 0xFF // and then the next ReadFrom scribbles over everything
	}
	if !reflect.DeepEqual(gotFirst.Fields, first.Fields) {
		t.Fatalf("earlier arrival corrupted by buffer reuse: %v != %v", gotFirst.Fields, first.Fields)
	}
	if !reflect.DeepEqual(gotSecond.Fields, second.Fields) {
		t.Fatalf("arrival corrupted by buffer scribble: %v != %v", gotSecond.Fields, second.Fields)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	a := core.Arrival{Fields: []int64{1, 2}}
	dg := appendFrame(nil, 1, 0, &a)
	cases := map[string][]byte{
		"truncated datagram":  dg[:len(dg)-3],
		"short header":        dg[:2],
		"length mismatch":     append(append([]byte(nil), dg...), 0xff),
		"field count too big": {0, 0, 0, 12, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xff, 0xff},
	}
	for name, b := range cases {
		if _, _, _, err := decodeDatagram(b, nil); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	// Hostile stream length: must poison the stream before buffering it.
	bad := []byte{0xff, 0xff, 0xff, 0xff}
	if _, _, err := streamSlab(bad); err != errFrameRange {
		t.Errorf("oversized frame length: err %v, want errFrameRange", err)
	}
}

// chunkReader hands out at most n bytes per Read, so a frame can straddle
// any number of socket reads.
type chunkReader struct {
	b []byte
	n int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := min(r.n, len(r.b), len(p))
	copy(p, r.b[:n])
	r.b = r.b[n:]
	return n, nil
}

// wireFrame is one decoded frame, owning its field values.
type wireFrame struct {
	seq    uint32
	tenant uint16
	arr    core.Arrival
}

// FuzzDecodeStream feeds arbitrary bytes, in arbitrary read sizes, through
// the slab stream decoder and holds it to a frame-at-a-time reference walk
// over the same bytes with decodePayload: the same well-formed frames in the
// same order with the same (seq, tenant, port, size, fields), the same count
// of malformed-but-delimited frames skipped, the stream poisoned exactly
// where the reference meets an out-of-range length and cleanly ended (a
// truncated tail included) otherwise — and never a panic, a slab over its
// frame limit, or a field value stored outside the slab's own arena. The
// same bytes also go through decodeDatagram as one datagram.
func FuzzDecodeStream(f *testing.F) {
	// The committed corpus (testdata/fuzz/FuzzDecodeStream) holds the
	// well-formed shapes — valid frames in one read and split across reads,
	// zero fields, a maxFields frame between small ones, a truncated
	// tail; the hostile ones are short enough to spell out here.
	f.Add([]byte{0, 0, 0, 12, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0}, uint16(0)) // poison after a good frame
	f.Add([]byte{0, 0, 0, 12, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 9}, uint16(1))                            // delimited, wrong field count

	f.Fuzz(func(t *testing.T, data []byte, chunk uint16) {
		// Reference: walk the bytes one frame at a time.
		var want []wireFrame
		wantMalformed, wantPoison := 0, false
		for rest := data; len(rest) >= frameHeader; {
			n := int(binary.BigEndian.Uint32(rest))
			if n < payloadFixed || n > maxPayload {
				wantPoison = true
				break
			}
			if len(rest) < frameHeader+n {
				break // truncated tail
			}
			seq, tenant, a, err := decodePayload(rest[frameHeader:frameHeader+n], nil)
			if err != nil {
				wantMalformed++
			} else {
				want = append(want, wireFrame{seq, tenant, a})
			}
			rest = rest[frameHeader+n:]
		}

		rd := io.Reader(bytes.NewReader(data))
		if chunk > 0 {
			rd = &chunkReader{b: data, n: int(chunk)}
		}
		br := bufio.NewReaderSize(rd, readBuf)
		sl := newSlab(new(sync.Pool), slabFrames, slabArena)
		arena := &sl.arena[:1][0]
		var got []wireFrame
		malformed := 0
		var err error
		for err == nil {
			sl.reset()
			var m int
			m, err = sl.fill(br, slabFrames)
			malformed += m
			if len(sl.arrs) > slabFrames {
				t.Fatalf("slab holds %d frames, limit %d", len(sl.arrs), slabFrames)
			}
			if cap(sl.arena) != slabArena || &sl.arena[:1][0] != arena {
				t.Fatal("the slab's arena was reallocated")
			}
			for i, a := range sl.arrs {
				a.Fields = append([]int64(nil), a.Fields...) // the next fill reuses the arena
				got = append(got, wireFrame{sl.seqs[i], sl.tids[i], a})
			}
		}
		if wantPoison != (err == errFrameRange) {
			t.Fatalf("stream ended with %v, reference poisoned=%v", err, wantPoison)
		}
		if !wantPoison && err != io.EOF {
			t.Fatalf("clean stream ended with %v, want io.EOF", err)
		}
		if malformed != wantMalformed {
			t.Fatalf("skipped %d malformed frames, reference %d", malformed, wantMalformed)
		}
		if len(got) != len(want) {
			t.Fatalf("decoded %d frames, reference %d", len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.seq != w.seq || g.tenant != w.tenant || g.arr.Port != w.arr.Port || g.arr.Size != w.arr.Size ||
				len(g.arr.Fields) != len(w.arr.Fields) || (len(w.arr.Fields) > 0 && !reflect.DeepEqual(g.arr.Fields, w.arr.Fields)) {
				t.Fatalf("frame %d: got %+v, reference %+v", i, g, w)
			}
		}

		// The same bytes as one datagram: exactly one whole frame or an error.
		seq, tenant, a, derr := decodeDatagram(data, sl.arena[:0])
		whole := len(want)+wantMalformed == 1 && !wantPoison &&
			len(data) == frameHeader+int(binary.BigEndian.Uint32(data))
		switch {
		case whole && len(want) == 1:
			w := want[0]
			if derr != nil || seq != w.seq || tenant != w.tenant || a.Port != w.arr.Port || a.Size != w.arr.Size ||
				len(a.Fields) != len(w.arr.Fields) || (len(a.Fields) > 0 && !reflect.DeepEqual(a.Fields, w.arr.Fields)) {
				t.Fatalf("datagram: got seq %d tenant %d %+v err %v, reference %+v", seq, tenant, a, derr, w)
			}
			if len(a.Fields) > 0 && &a.Fields[0] != arena {
				t.Fatal("datagram fields stored outside the arena it was given")
			}
		case derr == nil:
			t.Fatalf("datagram decoded (%d frames, %d malformed, poison=%v in the reference walk)", len(want), wantMalformed, wantPoison)
		}
	})
}
