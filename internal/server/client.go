package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"mp5/internal/core"
	"mp5/internal/stats"
)

// RTT histogram shape: microseconds in [0, ~1.05 s) at 32 µs resolution.
const (
	rttLo      = 0
	rttHi      = 1 << 20
	rttBuckets = 1 << 15
)

// Client drives a daemon over the wire — the load-generator side of the
// codec. One Client owns one connection; Run may be called once.
type Client struct {
	conn net.Conn
	udp  bool
}

// Dial connects to a daemon. network is "tcp" (lossless, acked) or "udp"
// (open-loop, ackless).
func Dial(network, addr string) (*Client, error) {
	switch network {
	case "tcp", "udp":
	default:
		return nil, fmt.Errorf("server: Dial network %q (want tcp or udp)", network)
	}
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, udp: network == "udp"}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// LoadOptions shapes a Run.
type LoadOptions struct {
	// Tenant is the wire id stamped on every frame (0 = the daemon's
	// first/default tenant).
	Tenant uint16
	// Window caps outstanding unacked packets on TCP — the closed-loop
	// knob (default 256). Ignored on UDP.
	Window int
	// RatePPS paces sends to a target rate — the open-loop knob; 0 sends
	// as fast as the transport admits.
	RatePPS float64
	// AckTimeout bounds the wait for each next ack after sending finished
	// (default 10s); expiry reports the missing acks as loss.
	AckTimeout time.Duration
}

func (o LoadOptions) withDefaults() LoadOptions {
	if o.Window <= 0 {
		o.Window = 256
	}
	if o.AckTimeout <= 0 {
		o.AckTimeout = 10 * time.Second
	}
	return o
}

// LoadReport summarizes one Run.
type LoadReport struct {
	Sent  int64
	Acked int64 // TCP only; UDP reports 0
	// Elapsed spans first send to last ack (TCP) or last send (UDP).
	Elapsed time.Duration
	// PktsPerSec is the achieved end-to-end rate: acked/elapsed on TCP,
	// sent/elapsed on UDP.
	PktsPerSec float64
	// Latency is the send→egress-ack round-trip distribution in
	// microseconds (TCP only; empty on UDP).
	Latency *stats.Histogram
}

// Run pushes the arrival trace through the connection and reports the
// achieved rate. On TCP it runs the closed loop: at most Window packets
// outstanding, each ack retiring one and recording its RTT; it returns an
// error if the daemon acks fewer packets than were sent. On UDP it is a
// pure open-loop blaster.
func (c *Client) Run(arrivals []core.Arrival, opt LoadOptions) (*LoadReport, error) {
	opt = opt.withDefaults()
	if c.udp {
		return c.runUDP(arrivals, opt)
	}
	return c.runTCP(arrivals, opt)
}

func (c *Client) runUDP(arrivals []core.Arrival, opt LoadOptions) (*LoadReport, error) {
	rep := &LoadReport{Latency: stats.NewHistogram(rttLo, rttHi, rttBuckets)}
	buf := make([]byte, 0, frameHeader+maxPayload)
	start := time.Now()
	for i := range arrivals {
		if d := paceWait(start, int64(i), opt.RatePPS); d > 0 {
			time.Sleep(d)
		}
		buf = appendFrame(buf[:0], uint32(i), opt.Tenant, &arrivals[i])
		if _, err := c.conn.Write(buf); err != nil {
			rep.finish(start)
			return rep, err
		}
		rep.Sent++
	}
	rep.finish(start)
	return rep, nil
}

// runTCP is the closed loop. Frames go out through a buffered writer and
// acks come back through a buffered reader, so a burst costs one syscall in
// each direction instead of one per packet; what keeps that from adding
// latency is the flush-before-block rule — the sender flushes whenever it is
// about to wait (no window token, a pacing sleep, the end of the trace), so
// a frame never sits in the buffer while the loop sleeps. RTT is stamped
// when the frame is queued: time spent in this buffer counts against the
// run, not for it.
func (c *Client) runTCP(arrivals []core.Arrival, opt LoadOptions) (*LoadReport, error) {
	rep := &LoadReport{Latency: stats.NewHistogram(rttLo, rttHi, rttBuckets)}
	total := int64(len(arrivals))
	start := time.Now()
	// sentAt[seq] is the frame's queue time in ns since start, +1 so that 0
	// means "not outstanding": the ack reader swaps it back to 0, which makes
	// an unknown, early or duplicate ack recognisable and harmless.
	sentAt := make([]atomic.Int64, len(arrivals))
	// acked is published by the reader once per burst (before it blocks), and
	// ackWake nudges a sender waiting for window room — one slot is enough,
	// the sender re-reads acked after every wake.
	var acked atomic.Int64
	ackWake := make(chan struct{}, 1)
	readerDone := make(chan struct{})
	var readerErr error
	go func() {
		defer close(readerDone)
		br := bufio.NewReaderSize(c.conn, 1<<14)
		var a [ackBytes]byte
		n := int64(0)
		for n < total {
			if br.Buffered() < ackBytes {
				// About to wait on the socket: publish progress first, and
				// re-arm the deadline only here, not once per ack.
				acked.Store(n)
				select {
				case ackWake <- struct{}{}:
				default:
				}
				c.conn.SetReadDeadline(time.Now().Add(opt.AckTimeout))
			}
			if _, err := io.ReadFull(br, a[:]); err != nil {
				readerErr = err
				break
			}
			seq := binary.BigEndian.Uint32(a[:])
			if int64(seq) >= total {
				continue
			}
			t := sentAt[seq].Swap(0)
			if t == 0 {
				continue
			}
			// The clock is read per ack, so time this loop spends on the acks
			// ahead of one in the buffer is charged to that one's RTT.
			rep.Latency.Add(float64((time.Since(start).Nanoseconds() - (t - 1)) / 1e3))
			n++
		}
		acked.Store(n)
	}()

	bw := bufio.NewWriterSize(c.conn, 1<<16)
	buf := make([]byte, 0, frameHeader+maxPayload)
	window := int64(opt.Window)
	var sendErr error
	room := int64(0) // frames that may be queued before re-reading acked
send:
	for i := range arrivals {
		for room == 0 {
			if room = window - (int64(i) - acked.Load()); room > 0 {
				break
			}
			// No window token: flush what is queued, then wait for acks.
			if sendErr = bw.Flush(); sendErr != nil {
				break send
			}
			select {
			case <-ackWake:
			case <-readerDone:
				// The ack stream died; sending more would only fill kernel
				// buffers against a wedged daemon.
				break send
			}
		}
		room--
		if d := paceWait(start, int64(i), opt.RatePPS); d > 0 {
			if sendErr = bw.Flush(); sendErr != nil {
				break send
			}
			time.Sleep(d)
		}
		sentAt[i].Store(time.Since(start).Nanoseconds() + 1)
		buf = appendFrame(buf[:0], uint32(i), opt.Tenant, &arrivals[i])
		if _, sendErr = bw.Write(buf); sendErr != nil {
			break send
		}
		rep.Sent++
	}
	if sendErr == nil {
		sendErr = bw.Flush()
	}
	// After a short send the reader is not interrupted: a send fails because
	// the connection broke, and a broken connection ends the reader by
	// itself — after it has drained the acks that were already on their way
	// (a daemon shutting down mid-run acks everything it admitted). At worst
	// it gives up AckTimeout after the last ack.
	<-readerDone
	rep.Acked = acked.Load()
	rep.finish(start)
	if sendErr != nil {
		return rep, sendErr
	}
	if rep.Acked < rep.Sent {
		if readerErr != nil {
			return rep, fmt.Errorf("server: %d of %d packets acked: %w", rep.Acked, rep.Sent, readerErr)
		}
		return rep, fmt.Errorf("server: %d of %d packets acked", rep.Acked, rep.Sent)
	}
	return rep, nil
}

// paceWait returns how long to sleep before packet i's open-loop departure
// time (zero or negative: it is due; always zero at rate 0).
func paceWait(start time.Time, i int64, rate float64) time.Duration {
	if rate <= 0 {
		return 0
	}
	return time.Until(start.Add(time.Duration(float64(i) / rate * float64(time.Second))))
}

func (r *LoadReport) finish(start time.Time) {
	r.Elapsed = time.Since(start)
	n := r.Acked
	if n == 0 {
		n = r.Sent
	}
	if r.Elapsed > 0 {
		r.PktsPerSec = float64(n) / r.Elapsed.Seconds()
	}
}
