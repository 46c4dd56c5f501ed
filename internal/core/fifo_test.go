package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRingBasic(t *testing.T) {
	var r ring
	for i := 0; i < 100; i++ {
		seq := r.push(fifoEntry{ts: int64(i)})
		if seq != int64(i) {
			t.Fatalf("push %d returned seq %d", i, seq)
		}
	}
	if r.len() != 100 {
		t.Fatalf("len = %d", r.len())
	}
	for i := 0; i < 100; i++ {
		if got := r.at(int64(i)).ts; got != int64(i) {
			t.Fatalf("at(%d).ts = %d", i, got)
		}
	}
	for i := 0; i < 100; i++ {
		e := r.popHead()
		if e.ts != int64(i) {
			t.Fatalf("pop %d gave ts %d", i, e.ts)
		}
	}
	if r.len() != 0 {
		t.Fatalf("len after drain = %d", r.len())
	}
}

func TestRingStableAddressingAcrossPops(t *testing.T) {
	var r ring
	for i := 0; i < 10; i++ {
		r.push(fifoEntry{ts: int64(i)})
	}
	r.popHead()
	r.popHead()
	// Sequence 5 must still address the same entry.
	if got := r.at(5).ts; got != 5 {
		t.Fatalf("at(5).ts = %d after pops", got)
	}
	// Push enough to force growth, then re-check.
	for i := 10; i < 50; i++ {
		r.push(fifoEntry{ts: int64(i)})
	}
	if got := r.at(5).ts; got != 5 {
		t.Fatalf("at(5).ts = %d after growth", got)
	}
	if got := r.at(49).ts; got != 49 {
		t.Fatalf("at(49).ts = %d after growth", got)
	}
}

func TestStageFIFOPhantomBlocksPop(t *testing.T) {
	f := NewStageFIFO(2, 0)
	// Phantom for packet 1 in fifo 0; data packet 2 in fifo 1.
	p1 := &Packet{ID: 1}
	seq, ok := f.PushPhantom(0, p1, 0)
	if !ok {
		t.Fatal("phantom push failed")
	}
	p2 := &Packet{ID: 2}
	if !f.PushData(1, p2, 0) {
		t.Fatal("data push failed")
	}
	// Head must be the phantom (smaller ts) — pop is blocked.
	h, fi, ok := f.Head()
	if !ok || !h.isPhantom() || fi != 0 || h.owner != p1 {
		t.Fatalf("head = %+v fifo %d", h, fi)
	}
	// Data for packet 1 arrives: insert replaces the phantom.
	f.Insert(0, seq, p1, 0)
	h, fi, _ = f.Head()
	if h.isPhantom() || h.data != p1 {
		t.Fatalf("head after insert = %+v", h)
	}
	e := f.PopHead(fi)
	if e.data != p1 {
		t.Fatal("pop did not return packet 1")
	}
	h, fi, _ = f.Head()
	if h.data != p2 {
		t.Fatal("packet 2 not next")
	}
	f.PopHead(fi)
	if f.Len() != 0 {
		t.Fatalf("len = %d", f.Len())
	}
}

func TestStageFIFOCapacity(t *testing.T) {
	f := NewStageFIFO(1, 2)
	p1 := &Packet{ID: 1}
	seq, ok1 := f.PushPhantom(0, p1, 0)
	_, ok2 := f.PushPhantom(0, &Packet{ID: 2}, 0)
	if !ok1 || !ok2 {
		t.Fatal("pushes under capacity failed")
	}
	if _, ok := f.PushPhantom(0, &Packet{ID: 3}, 0); ok {
		t.Fatal("push over capacity succeeded")
	}
	// Insert into a full FIFO still works: it replaces in place.
	f.Insert(0, seq, p1, 0)
	if h, _, _ := f.Head(); h.data != p1 {
		t.Fatal("insert into full fifo did not replace the phantom")
	}
}

// TestStageFIFOInsertWrongPacketPanics: an insert must land on the
// inserting packet's own phantom — a stale or mismatched position is a
// simulator bug, not a drop.
func TestStageFIFOInsertWrongPacketPanics(t *testing.T) {
	f := NewStageFIFO(1, 0)
	seq, _ := f.PushPhantom(0, &Packet{ID: 1}, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("insert over another packet's phantom did not panic")
		}
	}()
	f.Insert(0, seq, &Packet{ID: 2}, 0)
}

func TestStageFIFOMinTimestampAcrossFifos(t *testing.T) {
	f := NewStageFIFO(3, 0)
	f.PushData(2, &Packet{ID: 30}, 0)
	f.PushData(0, &Packet{ID: 10}, 0)
	f.PushData(1, &Packet{ID: 20}, 0)
	f.PushData(0, &Packet{ID: 40}, 0)
	want := []int64{10, 20, 30, 40}
	for _, w := range want {
		h, fi, ok := f.Head()
		if !ok {
			t.Fatalf("empty before draining %d", w)
		}
		if h.ts != w {
			t.Fatalf("head ts = %d, want %d", h.ts, w)
		}
		f.PopHead(fi)
	}
}

// TestStageFIFOLogicalOrderProperty: regardless of the interleaving of
// pushes across sub-FIFOs, draining via Head/PopHead yields entries in
// global timestamp order, provided each sub-FIFO receives ascending
// timestamps (which the architecture guarantees per source pipeline).
func TestStageFIFOLogicalOrderProperty(t *testing.T) {
	prop := func(seed int64, kRaw uint8) bool {
		k := int(kRaw%7) + 1
		rng := rand.New(rand.NewSource(seed))
		f := NewStageFIFO(k, 0)
		n := 50 + rng.Intn(100)
		// Assign ascending global timestamps to random sub-FIFOs.
		for ts := 0; ts < n; ts++ {
			f.PushData(rng.Intn(k), &Packet{ID: int64(ts)}, 0)
		}
		prev := int64(-1)
		for f.Len() > 0 {
			h, fi, ok := f.Head()
			if !ok || h.ts <= prev {
				return false
			}
			prev = h.ts
			f.PopHead(fi)
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestStageFIFODepthTracking checks the high-water mark accounting.
func TestStageFIFODepthTracking(t *testing.T) {
	f := NewStageFIFO(2, 0)
	pkts := make([]*Packet, 5)
	seqs := make([]int64, 5)
	for i := range pkts {
		pkts[i] = &Packet{ID: int64(i)}
		seqs[i], _ = f.PushPhantom(i%2, pkts[i], 0)
	}
	for i, p := range pkts {
		f.Insert(i%2, seqs[i], p, 0)
	}
	for f.Len() > 0 {
		_, fi, _ := f.Head()
		f.PopHead(fi)
	}
	if f.MaxDepth() != 5 {
		t.Fatalf("MaxDepth = %d, want 5", f.MaxDepth())
	}
}
