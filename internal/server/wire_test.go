package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"mp5/internal/core"
	"mp5/internal/dataplane"
)

// TestShutdownFlushesHeldAcks is the regression test for trailing acks
// written into a closed socket. The client does not read its acks: once they
// have filled its receive window and the daemon's send buffer, the
// connection's writer is stuck in write(2) with a burst in hand and more
// acks queued behind it, and it stays there until Shutdown has signalled the
// connection. Only then does the client read — and every ack must still
// arrive, followed by EOF. Shutdown only signals; the writer drains, writes,
// and closes.
func TestShutdownFlushesHeldAcks(t *testing.T) {
	prog, trace := soakProgram(t)
	s, err := New(prog, Config{
		Engine:  dataplane.Config{Workers: 2},
		TCPAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", s.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var tc *tcpConn
	waitFor(t, "the connection to be accepted", func() bool {
		if tab := *s.connTab.Load(); len(tab) > 1 {
			tc = tab[1]
		}
		return tc != nil
	})
	tc.c.(*net.TCPConn).SetWriteBuffer(1) // the kernel rounds up to its minimum
	pending := func() (n int, closed bool) {
		tc.mu.Lock()
		defer tc.mu.Unlock()
		return len(tc.acks), tc.closed
	}

	// Feed the daemon in rounds well under the ack buffer's 4,096, so egress
	// never blocks, until a round's acks stay queued after all its packets
	// egressed: the writer is stuck behind the unread socket.
	const round = 2000
	sent, held := 0, false
	var wire []byte
	for r := 0; r < 500 && !held; r++ {
		wire = wire[:0]
		for i := 0; i < round; i++ {
			wire = appendFrame(wire, uint32(sent), 0, &trace[sent%len(trace)])
			sent++
		}
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the round to egress", func() bool { return s.eng.Completed() == int64(sent) })
		time.Sleep(20 * time.Millisecond)
		n, _ := pending()
		held = n > 0
	}
	t.Logf("writer held after %d unread acks", sent)
	if !held {
		t.Fatalf("%d unread acks never filled the socket: the writer was not held", sent)
	}

	down := make(chan struct{})
	go func() {
		defer close(down)
		s.Shutdown()
	}()
	waitFor(t, "Shutdown to signal the connection", func() bool {
		_, closed := pending()
		return closed
	})
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	got, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("reading acks: %v (after %d bytes)", err, len(got))
	}
	<-down
	if len(got) != sent*ackBytes {
		t.Fatalf("acks lost across Shutdown: sent %d frames, read %d ack bytes", sent, len(got))
	}
	seen := make([]bool, sent)
	for i := 0; i < len(got); i += ackBytes {
		seq := binary.BigEndian.Uint32(got[i:])
		if int(seq) >= sent || seen[seq] {
			t.Fatalf("bogus or duplicate ack %d", seq)
		}
		seen[seq] = true
	}
}

// TestConnectionsReclaimed: a connection is retired — socket closed, table
// slot cleared and handed to the next accept — once its reader has ended and
// its last in-flight packet is acked, so connection churn on a long-lived
// daemon neither grows the table nor parks a writer per past client.
func TestConnectionsReclaimed(t *testing.T) {
	prog, trace := soakProgram(t)
	s, err := New(prog, Config{Engine: dataplane.Config{Workers: 2}, TCPAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	live := func() int {
		n := 0
		for _, tc := range *s.connTab.Load() {
			if tc != nil {
				n++
			}
		}
		return n
	}
	for i := 0; i < 5; i++ {
		c, err := Dial("tcp", s.TCPAddr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(trace[:200], LoadOptions{AckTimeout: 3 * time.Second}); err != nil {
			t.Fatal(err)
		}
		c.Close()
		waitFor(t, "the closed connection to be retired", func() bool { return live() == 0 })
	}
	if n := len(*s.connTab.Load()); n != 2 {
		t.Fatalf("connection table has %d slots after 5 sequential clients, want 2 (slot 0 + one reused)", n)
	}

	// A client that half-closes with packets in flight still gets every ack,
	// and then EOF: the daemon closes its side when the last one is out.
	conn, err := net.Dial("tcp", s.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var wire []byte
	for i := range trace {
		wire = appendFrame(wire, uint32(i), 0, &trace[i])
	}
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	got, err := io.ReadAll(conn)
	if err != nil || len(got) != len(trace)*ackBytes {
		t.Fatalf("half-closed client read %d ack bytes (err %v), want %d then EOF", len(got), err, len(trace)*ackBytes)
	}
	waitFor(t, "the half-closed connection to be retired", func() bool { return live() == 0 })
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWireSteadyStateAllocs is the wire path's allocation gate. Decoding a
// stream into a warmed slab allocates nothing — not per frame, not per slab
// — and a whole closed-loop run over loopback (client, codec, ingress queue,
// admit loop, engine, ack path; AllocsPerRun counts process-wide mallocs)
// stays under a tenth of an allocation per packet: what is left is
// per-connection set-up, not per-packet work.
func TestWireSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is meaningless under -race (the race runtime allocates)")
	}
	prog, trace := soakProgram(t)

	var wire []byte
	for i := range trace {
		wire = appendFrame(wire, uint32(i), 0, &trace[i])
	}
	rd := bytes.NewReader(nil)
	br := bufio.NewReaderSize(rd, readBuf)
	sl := newSlab(new(sync.Pool), slabFrames, slabArena)
	decoded := 0
	avg := testing.AllocsPerRun(20, func() {
		rd.Reset(wire)
		br.Reset(rd)
		decoded = 0
		for {
			sl.reset()
			_, err := sl.fill(br, slabFrames)
			decoded += len(sl.arrs)
			if err != nil {
				return
			}
		}
	})
	if decoded != len(trace) {
		t.Fatalf("decoded %d of %d frames", decoded, len(trace))
	}
	if avg != 0 {
		t.Fatalf("decoding %d frames into a slab allocates %v times, want 0", len(trace), avg)
	}

	s, err := New(prog, Config{
		Engine:  dataplane.Config{Workers: 2},
		TCPAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	// Eight laps of the trace per session, so connection set-up amortizes
	// as it does in service.
	var long []core.Arrival
	for i := 0; i < 8; i++ {
		long = append(long, trace...)
	}
	session := func() {
		c, err := Dial("tcp", s.TCPAddr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Run(long, LoadOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	perPkt := testing.AllocsPerRun(3, session) / float64(len(long))
	if perPkt > 0.1 {
		t.Fatalf("closed-loop wire run allocates %.3f times per packet, want <= 0.1", perPkt)
	}
}

// fakeDaemon is a scripted peer for the client-discipline tests: it accepts
// one connection, decodes frames with the daemon's own slab decoder, and
// writes back whatever acks the script returns for each frame's seq.
func fakeDaemon(t *testing.T, script func(seq uint32) []uint32) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		br := bufio.NewReaderSize(c, readBuf)
		sl := newSlab(new(sync.Pool), slabFrames, slabArena)
		var out []byte
		for {
			sl.reset()
			_, err := sl.fill(br, slabFrames)
			out = out[:0]
			for _, seq := range sl.seqs {
				for _, a := range script(seq) {
					out = binary.BigEndian.AppendUint32(out, a)
				}
			}
			if len(out) > 0 {
				c.Write(out)
			}
			if err != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// TestClientWindowOne: with a single window token the client must flush each
// frame before it blocks waiting for that frame's ack, or the loop deadlocks
// until the ack timeout.
func TestClientWindowOne(t *testing.T) {
	prog, trace := soakProgram(t)
	s, err := New(prog, Config{Engine: dataplane.Config{Workers: 2}, TCPAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	c, err := Dial("tcp", s.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rep, err := c.Run(trace[:300], LoadOptions{Window: 1, AckTimeout: 3 * time.Second})
	if err != nil {
		t.Fatalf("window-1 closed loop: %v", err)
	}
	if rep.Sent != 300 || rep.Acked != 300 || rep.Latency.Total() != 300 {
		t.Fatalf("sent %d acked %d rtts %d, want 300 each", rep.Sent, rep.Acked, rep.Latency.Total())
	}
}

// TestClientPacedNoBufferWait: at 1,000 pps the pacing gap is 1 ms, so a
// frame left in the client's buffer across a pacing sleep would show an RTT
// of a millisecond or more; against a peer that acks at once the median must
// sit far below the gap.
func TestClientPacedNoBufferWait(t *testing.T) {
	_, trace := soakProgram(t)
	addr := fakeDaemon(t, func(seq uint32) []uint32 { return []uint32{seq} })
	c, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rep, err := c.Run(trace[:300], LoadOptions{RatePPS: 1000, Window: 64, AckTimeout: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Acked != 300 {
		t.Fatalf("acked %d of 300", rep.Acked)
	}
	if rep.Elapsed < 250*time.Millisecond {
		t.Fatalf("300 packets at 1,000 pps took %v: the run was not paced", rep.Elapsed)
	}
	if p50 := rep.Latency.Quantile(0.5); p50 > 500 {
		t.Fatalf("p50 RTT %.0f us at a 1,000 us pacing gap: frames waited in the client buffer", p50)
	}
}

// TestClientAckTimeout: a daemon that stops acking must end the run with the
// ack-timeout error — not a hang — and an honest account: every frame the
// window let out counts as sent, only the acked ones as acked.
func TestClientAckTimeout(t *testing.T) {
	_, trace := soakProgram(t)
	const acks, window = 10, 4
	addr := fakeDaemon(t, func(seq uint32) []uint32 {
		if seq < acks {
			return []uint32{seq}
		}
		return nil
	})
	c, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rep, err := c.Run(trace[:100], LoadOptions{Window: window, AckTimeout: 200 * time.Millisecond})
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want the ack timeout", err)
	}
	if rep.Sent != acks+window || rep.Acked != acks {
		t.Fatalf("sent %d acked %d, want %d and %d", rep.Sent, rep.Acked, acks+window, acks)
	}
	if rep.Latency.Total() != acks {
		t.Fatalf("%d RTTs recorded for %d acks", rep.Latency.Total(), acks)
	}
}

// TestClientBogusAcks: acks the client cannot match — a seq beyond the
// trace, a seq it has not sent yet, a duplicate — are ignored: no panic, no
// window token released, no RTT recorded.
func TestClientBogusAcks(t *testing.T) {
	_, trace := soakProgram(t)
	const n = 400
	addr := fakeDaemon(t, func(seq uint32) []uint32 {
		if seq == 0 {
			return []uint32{n - 1, 0xfffffff0, 0} // the last frame is nowhere near sent
		}
		return []uint32{seq, seq, n + 7}
	})
	c, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rep, err := c.Run(trace[:n], LoadOptions{Window: 16, AckTimeout: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent != n || rep.Acked != n {
		t.Fatalf("sent %d acked %d, want %d each", rep.Sent, rep.Acked, n)
	}
	if rep.Latency.Total() != n {
		t.Fatalf("latency histogram holds %d RTTs for %d packets", rep.Latency.Total(), n)
	}
}
