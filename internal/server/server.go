// Package server wraps the concurrent dataplane (internal/dataplane) in an
// always-on network daemon — the runtime half of the paper's system: a
// compiled MP5 program plus an engine that admits an unbounded packet
// stream while operators observe it.
//
// Topology:
//
//	UDP datagram ──┐ decode into                        ┌─ worker 0 ─┐
//	               ├─ a slab ─→ ingress queue ─→ admit ─┼─ worker 1  ├─ OnEgress(id, tag)
//	TCP stream   ──┘ (per-conn    (of slabs,   (serial) └─ worker k-1┘        │
//	  ▲               reader)   packet-bounded)                               ▼
//	  └── one write(2) per burst ◀── ack writer ◀── per-connection ack buffer
//
// Every hop is batch-granular. A connection's reader decodes every whole
// frame already sitting in its socket buffer into one slab (≤ 256 packets,
// field values in the slab's own arena) and hands it over with one queue
// operation; the admitter submits each same-tenant run of the slab with one
// SubmitBatchTo. The ack target rides the packet as the engine's opaque tag
// (connection index ≪ 32 | client seq), so egress appends four bytes to
// that connection's ack buffer, and the connection's writer swaps the
// buffer out and writes it with one syscall. Both directions follow one
// rule — flush before blocking: a reader hands off its slab before it waits
// on the socket, a writer sleeps only on an empty buffer.
//
// The bounded ingress queue is the explicit backpressure point in front of
// the engine's admission window: UDP producers either drop at the queue
// (PolicyDrop — overload sheds load, never stalls) or block the reader
// (PolicyBlock); TCP producers always block, which propagates backpressure
// to the client through TCP flow control — the lossless mode. A single
// admit goroutine consumes the queue, preserving the serial-admitter
// contract that defines C1 order, and the engine's window semaphore is the
// live admission-control gate in front of D4 ticketing.
//
// An HTTP admin plane serves /metrics (Prometheus text), /healthz
// (watchdog-backed), and /shardmap (live D2 index→pipeline ownership).
// Shutdown drains gracefully: stop ingesting, let every in-flight packet
// egress, deliver trailing acks, then join.
package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"net/http"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mp5/internal/core"
	"mp5/internal/dataplane"
	"mp5/internal/equiv"
	"mp5/internal/ir"
	"mp5/internal/telemetry"
	"mp5/internal/tenant"
)

// Policy selects what a UDP producer does when the ingress queue is full.
type Policy int

const (
	// PolicyDrop sheds load at the ingress queue: the datagram is counted
	// (server_ingress_dropped_total) and discarded, and the reader keeps
	// consuming — overload can never stall the daemon. The UDP default.
	PolicyDrop Policy = iota
	// PolicyBlock parks the UDP reader until the queue has room, trading
	// kernel-socket-buffer loss for ingress-queue pressure.
	PolicyBlock
)

// ParsePolicy maps the CLI spelling to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "drop":
		return PolicyDrop, nil
	case "block":
		return PolicyBlock, nil
	}
	return 0, fmt.Errorf("server: unknown backpressure policy %q (want drop or block)", s)
}

// Config parameterizes a Server.
type Config struct {
	// Engine configures the wrapped dataplane (workers, window, placement
	// seed). OnEgress is owned by the server.
	Engine dataplane.Config
	// TCPAddr/UDPAddr are the data-plane listen addresses; "" disables
	// that listener (at least one must be set).
	TCPAddr string
	UDPAddr string
	// AdminAddr is the HTTP admin-plane listen address; "" disables it.
	AdminAddr string
	// IngressCap bounds the ingress queue between the decode goroutines
	// and the serial admitter, in packets (default 1024).
	IngressCap int
	// Policy is the UDP overflow behavior (TCP always blocks).
	Policy Policy
	// Verify records the admitted arrival order and turns on the engine's
	// output/access-order recording, so VerifyRecorded can hold the
	// network path to the differential bar after Shutdown. Costs memory
	// proportional to the packet count — a soak/debug mode, not a
	// production default.
	Verify bool
	// Registry receives the server's and engine's metrics; nil creates a
	// private registry (the admin plane always has something to serve).
	Registry *telemetry.Registry
	// Tracer, when non-nil, turns on wire-to-wire span sampling: the
	// decode goroutines take the sampling decision per frame, the server
	// stamps the ingress-queue wait, and the engine stamps everything from
	// the admission window to egress. Nil disables tracing (the hot path
	// pays only nil checks).
	Tracer *dataplane.Tracer
	// SampleInterval is the background gauge sampler's period (queue
	// depths, per-worker occupancy, pps rates, histogram-window rotation);
	// 0 defaults to 250ms.
	SampleInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.IngressCap <= 0 {
		c.IngressCap = 1024
	}
	if c.Registry == nil {
		c.Registry = telemetry.NewRegistry()
	}
	if c.SampleInterval <= 0 {
		c.SampleInterval = 250 * time.Millisecond
	}
	return c
}

// srvMetrics is the server-level telemetry surface (the engine's own
// counters register alongside it on the same registry).
type srvMetrics struct {
	rx         *telemetry.CounterVec
	decodeErr  *telemetry.Counter
	dropped    *telemetry.Counter
	acks       *telemetry.Counter
	submitFail *telemetry.Counter
	conns      *telemetry.Counter
}

func newSrvMetrics(r *telemetry.Registry) *srvMetrics {
	return &srvMetrics{
		rx:         r.NewCounterVec("server_rx_frames_total", "frames decoded from the network", "proto"),
		decodeErr:  r.NewCounter("server_decode_errors_total", "frames rejected by the codec or field-count check"),
		dropped:    r.NewCounter("server_ingress_dropped_total", "packets shed at the full ingress queue (PolicyDrop)"),
		acks:       r.NewCounter("server_acks_total", "egress acks sent to TCP clients"),
		submitFail: r.NewCounter("server_submit_aborts_total", "admissions refused by an aborted engine"),
		conns:      r.NewCounter("server_conns_total", "TCP connections accepted"),
	}
}

// Server is the network daemon: listeners, bounded ingress, the serial
// admitter, the wrapped engine, and the admin plane. Lifecycle: New →
// Start → (serve traffic) → Shutdown, each exactly once.
type Server struct {
	cfg    Config
	prog   *ir.Program // the first tenant's boot program (single-tenant surface)
	eng    *dataplane.Engine
	reg    *tenant.Registry
	met    *srvMetrics
	engMet *dataplane.Metrics
	trc    *dataplane.Tracer

	// startNs anchors uptime reporting (set by Start; 0 before).
	startNs atomic.Int64
	// Background gauge sampler (sampler.go): per-worker occupancy vecs,
	// ticket-queue depths, and pps rates derived from counter deltas.
	mailboxG    *telemetry.GaugeVec
	parkedG     *telemetry.GaugeVec
	ticketG     *telemetry.GaugeVec
	tenantSubG  *telemetry.GaugeVec
	tenantDoneG *telemetry.GaugeVec
	tenantShedG *telemetry.GaugeVec
	tenantQG    *telemetry.GaugeVec
	rxPPS       *telemetry.Gauge
	ackPPS      *telemetry.Gauge
	egPPS       *telemetry.Gauge
	samplerStop chan struct{}
	samplerWg   sync.WaitGroup

	ingress *ingressQ
	closed  chan struct{}
	// tcpSlabs/udpSlabs recycle slabs between the decoders and the admitter
	// (see slab.free): full-size ones for TCP readers, one-packet ones for
	// the UDP reader, so a UDP backlog of IngressCap datagrams never pins
	// IngressCap full-size slabs.
	tcpSlabs sync.Pool
	udpSlabs sync.Pool

	tcpLn   net.Listener
	udpConn net.PacketConn
	adminLn net.Listener
	admin   *http.Server

	// connTab maps the connection index in a packet's tag to its ack
	// buffer. It is copy-on-write — connMu serializes the writers (accept
	// fills a slot, a finished connection's writer clears it), egressing
	// workers read it with one atomic load. A slot is cleared, and listed in
	// connFree for the next accept, only once no packet tagged with it is in
	// flight (tcpConn.inflight), so the table is as long as the most
	// connections ever open at once, not as every connection ever seen.
	// Slot 0 is permanently nil: tag 0 means "no ack" (UDP).
	connMu   sync.Mutex
	connTab  atomic.Pointer[[]*tcpConn]
	connFree []int

	// verify holds the per-version recorded admission-order traces (Verify
	// only); admitter-owned during the run, read after Shutdown joins it.
	// verifySeen lists the versions in first-traffic order so reports come
	// out deterministically.
	verify     map[*tenant.Version][]core.Arrival
	verifySeen []*tenant.Version

	readerWg sync.WaitGroup // accept loop, per-conn readers, UDP reader
	writerWg sync.WaitGroup // per-conn ack writers
	admitWg  sync.WaitGroup
	adminWg  sync.WaitGroup
	shutOnce sync.Once
	res      *dataplane.Result
}

// TenantProgram is one tenant's boot configuration for NewMulti: a
// compiled program (TargetMP5) plus an optional admission quota in
// in-flight packets (0 = unlimited).
type TenantProgram struct {
	Name  string
	Prog  *ir.Program
	Quota int
}

// New builds a single-tenant server for prog (compiled for TargetMP5, like
// any dataplane program): one tenant named "default" with wire id 0 and no
// quota — clients that never set the frame's tenant field land on it, so
// the pre-multi-tenant wire behavior is preserved. Nothing is bound until
// Start.
func New(prog *ir.Program, cfg Config) (*Server, error) {
	return NewMulti([]TenantProgram{{Name: "default", Prog: prog}}, cfg)
}

// NewMulti builds a multi-tenant server: every tenant gets its own isolated
// program namespace on one shared engine, addressed by the codec frame's
// tenant field (wire ids are assigned in slice order, starting at 0).
// Nothing is bound until Start.
func NewMulti(tenants []TenantProgram, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.TCPAddr == "" && cfg.UDPAddr == "" {
		return nil, fmt.Errorf("server: no data-plane listener configured (set TCPAddr and/or UDPAddr)")
	}
	if len(tenants) == 0 {
		return nil, fmt.Errorf("server: no tenant programs configured")
	}
	s := &Server{
		cfg:     cfg,
		prog:    tenants[0].Prog,
		met:     newSrvMetrics(cfg.Registry),
		trc:     cfg.Tracer,
		ingress: newIngressQ(cfg.IngressCap),
		closed:  make(chan struct{}),
		verify:  make(map[*tenant.Version][]core.Arrival),
	}
	s.connTab.Store(&[]*tcpConn{nil})
	s.tcpSlabs.New = func() any { return newSlab(&s.tcpSlabs, slabFrames, slabArena) }
	s.udpSlabs.New = func() any { return newSlab(&s.udpSlabs, 1, 0) }
	engCfg := cfg.Engine
	if cfg.Verify {
		engCfg.RecordOutputs = true
		engCfg.RecordAccessOrder = true
	}
	if engCfg.Metrics == nil {
		engCfg.Metrics = dataplane.NewMetrics(cfg.Registry)
	}
	s.engMet = engCfg.Metrics
	if engCfg.Tracer == nil {
		engCfg.Tracer = cfg.Tracer
	}
	engCfg.OnEgress = s.onEgress
	s.eng = dataplane.NewMulti(engCfg)
	s.reg = tenant.NewRegistry(s.eng)
	for _, tp := range tenants {
		if _, err := s.reg.Add(tp.Name, tp.Prog, tp.Quota); err != nil {
			return nil, err
		}
	}
	s.registerGauges(cfg.Registry)
	return s, nil
}

// Start binds the listeners, launches the engine topology, and begins
// serving. On error every partially bound listener is closed.
func (s *Server) Start() error {
	if s.cfg.TCPAddr != "" {
		ln, err := net.Listen("tcp", s.cfg.TCPAddr)
		if err != nil {
			return err
		}
		s.tcpLn = ln
	}
	if s.cfg.UDPAddr != "" {
		pc, err := net.ListenPacket("udp", s.cfg.UDPAddr)
		if err != nil {
			s.closeListeners()
			return err
		}
		s.udpConn = pc
	}
	if s.cfg.AdminAddr != "" {
		ln, err := net.Listen("tcp", s.cfg.AdminAddr)
		if err != nil {
			s.closeListeners()
			return err
		}
		s.adminLn = ln
		s.admin = &http.Server{Handler: s.adminMux()}
	}

	s.startNs.Store(time.Now().UnixNano())
	s.eng.Start()
	s.samplerStop = make(chan struct{})
	s.samplerWg.Add(1)
	go s.samplerLoop()
	s.admitWg.Add(1)
	go s.admitLoop()
	if s.tcpLn != nil {
		s.readerWg.Add(1)
		go s.acceptLoop()
	}
	if s.udpConn != nil {
		s.readerWg.Add(1)
		go s.udpLoop()
	}
	if s.admin != nil {
		s.adminWg.Add(1)
		go func() {
			defer s.adminWg.Done()
			s.admin.Serve(s.adminLn)
		}()
	}
	return nil
}

func (s *Server) closeListeners() {
	if s.tcpLn != nil {
		s.tcpLn.Close()
	}
	if s.udpConn != nil {
		s.udpConn.Close()
	}
	if s.adminLn != nil {
		s.adminLn.Close()
	}
}

// TCPAddr returns the bound TCP data-plane address ("" when disabled) —
// the actual port, so ":0" configs are test- and script-friendly.
func (s *Server) TCPAddr() string {
	if s.tcpLn == nil {
		return ""
	}
	return s.tcpLn.Addr().String()
}

// UDPAddr returns the bound UDP data-plane address ("" when disabled).
func (s *Server) UDPAddr() string {
	if s.udpConn == nil {
		return ""
	}
	return s.udpConn.LocalAddr().String()
}

// AdminAddr returns the bound admin-plane address ("" when disabled).
func (s *Server) AdminAddr() string {
	if s.adminLn == nil {
		return ""
	}
	return s.adminLn.Addr().String()
}

// admitLoop is the serial admitter: the single goroutine that feeds the
// engine, so admission order — the order C1 is defined by — is exactly the
// ingress-queue order (and, within a slab, wire order). One queue pop brings
// a whole burst; the slab's columns go to the engine as they are.
func (s *Server) admitLoop() {
	defer s.admitWg.Done()
	for {
		sl, ok := s.ingress.pop()
		if !ok {
			return
		}
		// Split the slab into consecutive same-tenant runs: each run admits
		// on one version snapshot, so the per-tenant ticket order — hence C1
		// within a version — is exactly ingress order.
		for lo := 0; lo < len(sl.arrs); {
			hi := lo + 1
			for hi < len(sl.arrs) && sl.tns[hi] == sl.tns[lo] {
				hi++
			}
			s.admitRun(sl, lo, hi)
			lo = hi
		}
		// The engine copied every admitted packet's fields into its own
		// frame (and Verify cloned what it retains), so the arena is free.
		sl.free()
	}
}

// admitRun submits one same-tenant run sl[lo:hi]: it snapshots the tenant's
// active version ONCE — the swap epoch; everything in this run is admitted
// on that version even if a hot swap lands mid-run. Each packet's ack target
// rides it as its tag, so a refused tail needs no per-packet clean-up: the
// connection is told once how many of its packets will never egress. A
// refusal is either an engine abort (watchdog stall, counted as a submit
// abort) or a tenant-quota shed (counted by the engine); either way a
// refused TCP frame is never acked — the client's ack timeout is the shed
// signal in lossless mode.
func (s *Server) admitRun(sl *slab, lo, hi int) {
	v := sl.tns[lo].Active()
	arrs, spans := sl.arrs[lo:hi], sl.spans[lo:hi]
	for _, sp := range spans {
		// Close the sampled packet's first segment: everything since the
		// decode stamp was time queued at ingress.
		sp.Advance(dataplane.StageIngressWait, -1)
	}
	n := s.eng.SubmitBatchTo(v.Handle, arrs, spans, sl.tags[lo:hi])
	if n < len(arrs) {
		if s.eng.Stalled() {
			s.met.submitFail.Add(int64(len(arrs) - n))
		}
		if sl.conn != nil {
			sl.conn.settle(len(arrs) - n)
		}
	}
	if s.cfg.Verify && n > 0 {
		trace, seen := s.verify[v]
		if !seen {
			s.verifySeen = append(s.verifySeen, v)
		}
		// The recorded trace outlives the slab: clone the run's field values
		// out of the arena, one allocation for the whole run.
		nf := 0
		for i := range arrs[:n] {
			nf += len(arrs[i].Fields)
		}
		own := make([]int64, 0, nf)
		for _, a := range arrs[:n] {
			own = append(own, a.Fields...)
			a.Fields = own[len(own)-len(a.Fields) : len(own) : len(own)]
			a.Cycle = int64(len(trace))
			trace = append(trace, a)
		}
		s.verify[v] = trace
	}
}

// onEgress runs on the egressing worker: the tag names the connection and
// the client's sequence number; queue the ack on that connection.
func (s *Server) onEgress(_ int64, tag uint64) {
	if tc := (*s.connTab.Load())[tag>>32]; tc != nil {
		tc.ack(uint32(tag))
	}
}

// resolve turns a decoded slab into an admissible one: frames addressed to
// an unknown tenant, or carrying another field count than that tenant's
// program declares, are counted as decode errors and dropped in place (the
// stream they came from stays usable — frame boundaries were intact);
// survivors get their tenant, their ack tag (tc's connection index in the
// high half, the client's seq in the low; 0 for ackless UDP, tc == nil) and
// the tracer's sampling decision. The connection is charged with the
// survivors: each is owed an ack or a settle.
func (s *Server) resolve(sl *slab, tc *tcpConn, proto string) {
	var conn uint64
	if tc != nil {
		conn = uint64(tc.idx) << 32
	}
	k := 0
	for i := range sl.arrs {
		tn := s.reg.ByID(sl.tids[i])
		if tn == nil || len(sl.arrs[i].Fields) != len(tn.Active().Prog.Fields) {
			s.met.decodeErr.Inc()
			continue
		}
		sp := s.trc.Sample()
		if sp != nil {
			sp.Proto = proto
		}
		sl.arrs[k] = sl.arrs[i]
		sl.tns = append(sl.tns, tn)
		sl.tags = append(sl.tags, conn|uint64(sl.seqs[i]))
		sl.spans = append(sl.spans, sp)
		k++
	}
	clear(sl.arrs[k:])
	sl.arrs = sl.arrs[:k]
	if k > 0 {
		s.met.rx.Add(proto, int64(k))
		if tc != nil {
			sl.conn = tc
			tc.owe(k)
		}
	}
}

// udpLoop decodes datagrams — one one-packet slab each — and applies the
// backpressure policy at the ingress queue. Drop mode never blocks: overload
// sheds load here, visibly (server_ingress_dropped_total), and nowhere else.
func (s *Server) udpLoop() {
	defer s.readerWg.Done()
	buf := make([]byte, frameHeader+maxPayload)
	var sl *slab
	for {
		n, _, err := s.udpConn.ReadFrom(buf)
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
			}
			// Transient datagram errors (e.g. oversized) are countable;
			// anything after Close ends the loop above.
			s.met.decodeErr.Inc()
			continue
		}
		if sl == nil {
			sl = s.udpSlabs.Get().(*slab)
		}
		// UDP is ackless; seq is carried for symmetry only. The slab adopts
		// the storage the fields landed in, so once its arena has grown to
		// the tenant's field count a datagram allocates nothing.
		seq, tid, arr, err := decodeDatagram(buf[:n], sl.arena)
		if err != nil {
			s.met.decodeErr.Inc()
			continue
		}
		sl.arena = arr.Fields
		sl.push(seq, tid, arr)
		s.resolve(sl, nil, "udp")
		switch {
		case len(sl.arrs) == 0:
			sl.reset()
		case s.ingress.push(sl, s.cfg.Policy == PolicyBlock):
			sl = nil
		default:
			s.met.dropped.Inc()
			sl.reset()
		}
	}
}

// acceptLoop accepts TCP connections until the listener closes, publishing
// each in the connection table under the index its packets' tags will carry.
func (s *Server) acceptLoop() {
	defer s.readerWg.Done()
	for {
		c, err := s.tcpLn.Accept()
		if err != nil {
			return
		}
		s.met.conns.Inc()
		tc := newTCPConn(c)
		s.connMu.Lock()
		next := slices.Clone(*s.connTab.Load())
		if n := len(s.connFree); n > 0 {
			tc.idx, s.connFree = s.connFree[n-1], s.connFree[:n-1]
			next[tc.idx] = tc
		} else {
			tc.idx = len(next)
			next = append(next, tc)
		}
		s.connTab.Store(&next)
		s.connMu.Unlock()
		select {
		case <-s.closed:
			// Shutdown's read-abort pass may have loaded the table before
			// this connection was in it.
			c.SetReadDeadline(time.Now())
		default:
		}
		s.writerWg.Add(1)
		go s.writeLoop(tc)
		s.readerWg.Add(1)
		go s.readLoop(tc)
	}
}

// readLoop turns one TCP connection's byte stream into slabs and feeds the
// ingress queue, blocking when it is full — that block, propagated by TCP
// flow control, is the lossless backpressure path. It waits on the socket
// holding no slab, then hands over everything one read brought in before it
// waits again. A clean client half-close (EOF) ends reading but keeps the
// connection and its ack writer alive until the trailing acks for in-flight
// packets have reached the client; a hostile length prefix is counted and
// ends reading the same way — the frame boundary is lost for good.
func (s *Server) readLoop(tc *tcpConn) {
	defer s.readerWg.Done()
	defer tc.readEnded()
	br := bufio.NewReaderSize(tc.c, readBuf)
	limit := min(slabFrames, s.cfg.IngressCap) // a slab must fit the queue
	for {
		if _, err := br.Peek(frameHeader); err != nil {
			return
		}
		sl := s.tcpSlabs.Get().(*slab)
		malformed, err := sl.fill(br, limit)
		s.met.decodeErr.Add(int64(malformed))
		s.resolve(sl, tc, "tcp")
		if len(sl.arrs) > 0 {
			// The admitter consumes until the queue closes, which happens
			// only after this goroutine exits (Shutdown ordering).
			s.ingress.push(sl, true)
		} else {
			sl.free()
		}
		if err != nil {
			if err == errFrameRange {
				s.met.decodeErr.Inc()
			}
			return
		}
	}
}

// writeLoop delivers one connection's egress acks: sleep while the ack
// buffer is empty, swap it out, write the whole burst with one syscall. It
// owns the end of the connection — once the connection is finished (reader
// ended and nothing in flight, or Shutdown) it drains what egress queued,
// writes it, and only then closes the socket, so no trailing ack is written
// into a closed fd, and gives the table slot back. After a write error the
// stream is broken: the socket is closed at once (which ends the reader) and
// the acks still in flight are taken and dropped until the last one is in.
func (s *Server) writeLoop(tc *tcpConn) {
	defer s.writerWg.Done()
	spare := make([]byte, 0, ackBufBytes)
	broken := false
	for {
		out, ok := tc.take(spare)
		if !ok {
			break
		}
		if !broken {
			s.met.acks.Add(int64(len(out) / ackBytes))
			if _, err := tc.c.Write(out); err != nil {
				broken = true
				tc.c.Close()
			}
		}
		spare = out[:0]
	}
	tc.c.Close()
	s.connMu.Lock()
	next := slices.Clone(*s.connTab.Load())
	next[tc.idx] = nil
	s.connTab.Store(&next)
	s.connFree = append(s.connFree, tc.idx)
	s.connMu.Unlock()
}

// Shutdown drains the daemon gracefully and returns the engine's run
// summary: stop ingesting (close listeners, abort connection reads), let
// the admitter finish the queued backlog, drain every in-flight packet out
// of the engine, flush trailing acks, then stop the admin plane. Safe to
// call once; SIGTERM handling in cmd/mp5d is a thin wrapper around it.
func (s *Server) Shutdown() *dataplane.Result {
	s.shutOnce.Do(func() {
		close(s.closed)
		s.closeListeners()
		// Abort in-progress reads without closing the connections: the
		// write half stays up for trailing acks. (A connection accepted
		// after this pass sees s.closed and aborts its own reads.)
		for _, tc := range *s.connTab.Load() {
			if tc != nil {
				tc.c.SetReadDeadline(time.Now())
			}
		}
		s.readerWg.Wait()
		s.ingress.close()
		s.admitWg.Wait()
		s.res = s.eng.Drain()
		// All egresses have queued their acks; each writer still running
		// drains its buffer, writes it, and closes its connection.
		for _, tc := range *s.connTab.Load() {
			if tc != nil {
				tc.shutdown()
			}
		}
		s.writerWg.Wait()
		if s.admin != nil {
			s.admin.Close()
			s.adminWg.Wait()
		}
		if s.samplerStop != nil {
			close(s.samplerStop)
			s.samplerWg.Wait()
		}
	})
	return s.res
}

// Admitted returns the recorded admission-order trace of the first
// tenant's boot version (Verify mode only; valid after Shutdown) — the
// whole trace on a single-tenant daemon that never swapped.
func (s *Server) Admitted() []core.Arrival {
	if t := s.reg.ByID(0); t != nil {
		if vs := t.Versions(); len(vs) > 0 {
			return s.verify[vs[0]]
		}
	}
	return nil
}

// TenantVerify is one program version's wire-differential verdict: its
// recorded admission trace replayed through the single-pipeline reference
// against what the engine actually did on that version's namespace.
type TenantVerify struct {
	Tenant  string
	Version int
	Packets int
	Report  *equiv.Report
	OrderOK bool
}

// VerifyTenants holds every program version that saw traffic to the
// differential bar, independently: per-version final registers, per-packet
// outputs, and per-slot C1 access order, each against the version's own
// reference — the tenant-isolation and hot-swap correctness oracle. Valid
// after Shutdown of a Verify-mode server.
func (s *Server) VerifyTenants() ([]TenantVerify, error) {
	if !s.cfg.Verify {
		return nil, fmt.Errorf("server: not started in Verify mode")
	}
	if s.res == nil {
		return nil, fmt.Errorf("server: VerifyTenants before Shutdown")
	}
	// Versions carry no back-pointer to their tenant; resolve owner names
	// through the registry so reports say "alpha v2", not the internal
	// handle name "alpha@v2".
	owner := make(map[*tenant.Version]string)
	for _, tn := range s.reg.Tenants() {
		for _, v := range tn.Versions() {
			owner[v] = tn.Name()
		}
	}
	out := make([]TenantVerify, 0, len(s.verifySeen))
	for _, v := range s.verifySeen {
		trace := s.verify[v]
		name := owner[v]
		if name == "" {
			name = v.Handle.Name()
		}
		ref := equiv.Run(v.Prog, trace)
		out = append(out, TenantVerify{
			Tenant:  name,
			Version: v.Seq,
			Packets: len(trace),
			Report:  ref.Check(s.eng.FinalRegsFor(v.Handle), s.eng.OutputsFor(v.Handle)),
			OrderOK: reflect.DeepEqual(ref.Order, s.eng.AccessOrdersFor(v.Handle)),
		})
	}
	return out, nil
}

// VerifyRecorded is the aggregate differential verdict across every
// version that saw traffic: the first failing version's report (or the
// last report when all pass), plus whether every version's C1 access order
// matched its reference. On a single-tenant daemon that never swapped this
// is exactly the pre-multi-tenant behavior. Valid after Shutdown of a
// Verify-mode server.
func (s *Server) VerifyRecorded() (*equiv.Report, bool, error) {
	tvs, err := s.VerifyTenants()
	if err != nil {
		return nil, false, err
	}
	if len(tvs) == 0 {
		// No traffic: trivially equivalent against an empty trace.
		rep := equiv.CheckState(s.prog, s.eng.FinalRegs(), s.eng.Outputs(), nil)
		return rep, true, nil
	}
	rep, orderOK := tvs[len(tvs)-1].Report, true
	for _, tv := range tvs {
		if !tv.Report.Equivalent {
			rep = tv.Report
		}
		orderOK = orderOK && tv.OrderOK
	}
	return rep, orderOK, nil
}

// Engine exposes the wrapped dataplane engine (health probes, shard map).
func (s *Server) Engine() *dataplane.Engine { return s.eng }

// Tenants exposes the tenant registry (admin plane, hot swap, tests).
func (s *Server) Tenants() *tenant.Registry { return s.reg }

// Dropped returns the ingress-queue drop count (the PolicyDrop counter).
func (s *Server) Dropped() int64 { return s.met.dropped.Value() }

// ackBufBytes bounds a connection's pending acks at 4,096; past that the
// egressing worker blocks (tcpConn.ack).
const ackBufBytes = 4096 * ackBytes

// tcpConn pairs a TCP connection with its ack buffer: egressing workers
// append 4-byte acks under mu, the connection's writer swaps the buffer out
// and writes the burst with one syscall. The buffer decouples workers from
// the socket; when it fills (a client that stopped reading acks), ack()
// blocks the worker — which is the lossless mode's backpressure, ending in a
// watchdog abort if the client never recovers.
//
// The connection is finished — closed set, the writer draining towards the
// close — when its reader has ended and every packet it fed the engine has
// been acked or refused (inflight back to 0), or when Shutdown says so.
type tcpConn struct {
	c   net.Conn
	idx int // slot in Server.connTab; the high half of this connection's tags

	mu       sync.Mutex
	cond     sync.Cond // both directions: the writer on empty, workers on full
	acks     []byte
	inflight int  // packets resolved off this connection, not yet acked or settled
	readDone bool // the reader has ended: inflight can only fall
	closed   bool
}

func newTCPConn(c net.Conn) *tcpConn {
	tc := &tcpConn{c: c, acks: make([]byte, 0, ackBufBytes)}
	tc.cond.L = &tc.mu
	return tc
}

// owe charges the connection with n packets on their way to the engine; the
// reader calls it before it queues them.
func (tc *tcpConn) owe(n int) {
	tc.mu.Lock()
	tc.inflight += n
	tc.mu.Unlock()
}

// settle writes off n packets the engine refused: they will never be acked.
func (tc *tcpConn) settle(n int) {
	tc.mu.Lock()
	tc.inflight -= n
	done := tc.finishLocked()
	tc.mu.Unlock()
	if done {
		tc.cond.Broadcast()
	}
}

// readEnded marks the end of the connection's input.
func (tc *tcpConn) readEnded() {
	tc.mu.Lock()
	tc.readDone = true
	done := tc.finishLocked()
	tc.mu.Unlock()
	if done {
		tc.cond.Broadcast()
	}
}

// finishLocked closes the connection once nothing more can be owed to it.
func (tc *tcpConn) finishLocked() bool {
	if tc.readDone && tc.inflight == 0 {
		tc.closed = true
	}
	return tc.closed
}

// ack queues one egress ack, blocking while the buffer is full; after
// shutdown it is a no-op. Only the append that makes the buffer non-empty,
// or the connection's last ack, wakes the writer — one wakeup per burst.
func (tc *tcpConn) ack(seq uint32) {
	tc.mu.Lock()
	for len(tc.acks) >= ackBufBytes && !tc.closed {
		tc.cond.Wait()
	}
	if tc.closed {
		tc.mu.Unlock()
		return
	}
	tc.acks = binary.BigEndian.AppendUint32(tc.acks, seq)
	tc.inflight--
	wake := tc.finishLocked() || len(tc.acks) == ackBytes
	tc.mu.Unlock()
	if wake {
		tc.cond.Broadcast()
	}
}

// take blocks until acks are pending or the connection is shut down, then
// swaps the pending buffer for spare (empty, same capacity) and returns it.
// ok is false when the connection is shut down and nothing is left to write.
func (tc *tcpConn) take(spare []byte) (out []byte, ok bool) {
	tc.mu.Lock()
	for len(tc.acks) == 0 && !tc.closed {
		tc.cond.Wait()
	}
	out, tc.acks = tc.acks, spare
	tc.mu.Unlock()
	if len(out) >= ackBufBytes {
		tc.cond.Broadcast() // workers may be blocked on the full buffer
	}
	return out, len(out) > 0
}

// shutdown finishes the connection whatever is in flight (Shutdown, after the
// engine drained): queued acks are still written (the writer drains, then
// closes the socket), later ones are dropped, and any worker blocked on a
// full buffer is released.
func (tc *tcpConn) shutdown() {
	tc.mu.Lock()
	tc.closed = true
	tc.mu.Unlock()
	tc.cond.Broadcast()
}
