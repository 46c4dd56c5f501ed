package server

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"mp5/internal/apps"
	"mp5/internal/core"
	"mp5/internal/dataplane"
	"mp5/internal/ir"
	"mp5/internal/telemetry"
	"mp5/internal/workload"
)

// soakProgram compiles the synthetic 4-stage program the soak suite runs.
func soakProgram(t *testing.T) (*ir.Program, []core.Arrival) {
	t.Helper()
	prog, err := apps.Synthetic(4, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	trace := workload.Synthetic(prog, workload.Spec{
		Packets: 3000, Pipelines: 4, Seed: 21, Pattern: workload.Skewed,
	}, 4, 64)
	return prog, trace
}

// TestLoopbackSoakTCP is the acceptance soak: mp5load's client drives the
// daemon over loopback TCP with a seeded workload, every packet must be
// acked (zero loss — lossless mode), and the server-side recorded
// admission order replayed through the single-pipeline reference must
// match the engine on state, outputs, and per-slot C1 access order.
func TestLoopbackSoakTCP(t *testing.T) {
	prog, trace := soakProgram(t)
	reg := telemetry.NewRegistry()
	s, err := New(prog, Config{
		Engine:   dataplane.Config{Workers: 4, Window: 128},
		TCPAddr:  "127.0.0.1:0",
		UDPAddr:  "127.0.0.1:0",
		Verify:   true,
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	c, err := Dial("tcp", s.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rep, err := c.Run(trace, LoadOptions{Window: 64})
	if err != nil {
		t.Fatalf("load run: %v", err)
	}
	if rep.Sent != int64(len(trace)) || rep.Acked != rep.Sent {
		t.Fatalf("loss in lossless mode: sent %d acked %d", rep.Sent, rep.Acked)
	}
	if rep.Latency.Total() != len(trace) {
		t.Fatalf("latency histogram holds %d of %d RTTs", rep.Latency.Total(), len(trace))
	}
	res := s.Shutdown()
	if res.Stalled {
		t.Fatal("engine stalled during the soak")
	}
	if res.Injected != int64(len(trace)) || res.Completed != res.Injected {
		t.Fatalf("server completed %d of %d (sent %d)", res.Completed, res.Injected, rep.Sent)
	}
	tvs, err := s.VerifyTenants()
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, tv := range tvs {
		checked += tv.Packets
		if !tv.Report.Equivalent {
			t.Fatalf("network path not equivalent to reference (C1 state or order):\n%s", tv.Report)
		}
	}
	if checked != len(trace) {
		t.Fatalf("verified %d packets, sent %d", checked, len(trace))
	}
}

// TestUDPOverloadShedsAtIngress drives far more UDP datagrams than a tiny
// ingress queue in front of a serialized engine can admit: overload must
// shed load only at the ingress queue (counted, visible in /metrics),
// never stall, and still drain cleanly on shutdown.
func TestUDPOverloadShedsAtIngress(t *testing.T) {
	prog, trace := soakProgram(t)
	reg := telemetry.NewRegistry()
	s, err := New(prog, Config{
		Engine:     dataplane.Config{Workers: 1, Window: 1},
		UDPAddr:    "127.0.0.1:0",
		AdminAddr:  "127.0.0.1:0",
		IngressCap: 4,
		Policy:     PolicyDrop,
		Registry:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	c, err := Dial("udp", s.UDPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rep, err := c.Run(trace, LoadOptions{})
	if err != nil {
		t.Fatalf("udp blast: %v", err)
	}
	if rep.Sent != int64(len(trace)) {
		t.Fatalf("sent %d of %d", rep.Sent, len(trace))
	}
	// The daemon must stay live under overload: the health probe answers
	// 200 while the blast's backlog drains.
	var h healthz
	getJSON(t, "http://"+s.AdminAddr()+"/healthz", &h)
	if h.Status != "ok" {
		t.Fatalf("health under overload: %+v", h)
	}
	body := httpGet(t, "http://"+s.AdminAddr()+"/metrics")
	res := s.Shutdown()
	if res.Stalled {
		t.Fatal("UDP overload stalled the engine")
	}
	if s.Dropped() == 0 {
		t.Fatal("no ingress drops despite a 4-deep queue and a serialized engine")
	}
	if res.Completed != res.Injected {
		t.Fatalf("drained %d of %d admitted", res.Completed, res.Injected)
	}
	if s.Dropped()+res.Injected > int64(len(trace)) {
		t.Fatalf("dropped %d + admitted %d exceeds sent %d", s.Dropped(), res.Injected, len(trace))
	}
	if !strings.Contains(body, "server_ingress_dropped_total") {
		t.Fatal("/metrics does not expose the ingress drop counter")
	}
}

// TestAdminPlane checks the three admin endpoints against a running
// daemon: /healthz reports ok, /metrics carries both server and engine
// counters with values reconciling to the traffic, and /shardmap serves
// the live placement with every index owned by a real worker.
func TestAdminPlane(t *testing.T) {
	prog, trace := soakProgram(t)
	reg := telemetry.NewRegistry()
	s, err := New(prog, Config{
		Engine:    dataplane.Config{Workers: 2, Seed: 7},
		TCPAddr:   "127.0.0.1:0",
		AdminAddr: "127.0.0.1:0",
		Registry:  reg,
	})
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
	if _, err := c.Run(trace[:500], LoadOptions{Window: 32}); err != nil {
		t.Fatal(err)
	}
	// The engine counts a completion just after OnEgress queued the ack, so
	// the last ack can reach the client a moment before the counter moves.
	waitFor(t, "the last completion to be counted", func() bool { return s.eng.Completed() == 500 })

	var h healthz
	getJSON(t, "http://"+s.AdminAddr()+"/healthz", &h)
	if h.Status != "ok" || h.Workers != 2 {
		t.Fatalf("healthz: %+v", h)
	}
	if h.Submitted != 500 || h.Completed != 500 || h.InFlight != 0 {
		t.Fatalf("healthz counters after 500 acked packets: %+v", h)
	}

	metrics := httpGet(t, "http://"+s.AdminAddr()+"/metrics")
	for _, want := range []string{
		`server_rx_frames_total{proto="tcp"} 500`,
		"server_acks_total 500",
		"dataplane_admitted_total 500",
		"dataplane_egressed_total 500",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	var sm []dataplane.ShardEntry
	getJSON(t, "http://"+s.AdminAddr()+"/shardmap", &sm)
	if len(sm) != len(prog.Regs) {
		t.Fatalf("/shardmap covers %d arrays, program has %d", len(sm), len(prog.Regs))
	}
	for _, ent := range sm {
		if ent.Sharded && len(ent.Owners) != prog.Regs[ent.Reg].Size {
			t.Fatalf("r%d: %d owners for size %d", ent.Reg, len(ent.Owners), prog.Regs[ent.Reg].Size)
		}
		for _, o := range ent.Owners {
			if o < 0 || o >= 2 {
				t.Fatalf("r%d owned by worker %d", ent.Reg, o)
			}
		}
	}
}

// TestGarbageFramesCounted feeds the daemon undecodable TCP and UDP input
// and checks it survives, counts decode errors, and keeps serving.
func TestGarbageFramesCounted(t *testing.T) {
	prog, trace := soakProgram(t)
	s, err := New(prog, Config{
		Engine:  dataplane.Config{Workers: 2},
		TCPAddr: "127.0.0.1:0",
		UDPAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	// UDP: a truncated datagram.
	uc, err := net.Dial("udp", s.UDPAddr())
	if err != nil {
		t.Fatal(err)
	}
	uc.Write([]byte{1, 2, 3})
	uc.Close()
	// TCP: a hostile length prefix kills that connection but not the
	// daemon.
	tc, err := net.Dial("tcp", s.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	tc.Write([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	tc.Close()
	// The daemon still serves real traffic afterwards.
	c, err := Dial("tcp", s.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Run(trace[:100], LoadOptions{Window: 16}); err != nil {
		t.Fatalf("daemon unusable after garbage input: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.met.decodeErr.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.met.decodeErr.Value() == 0 {
		t.Fatal("garbage input not counted as decode errors")
	}
	res := s.Shutdown()
	if res.Stalled || res.Completed != 100 {
		t.Fatalf("after garbage: %+v", res)
	}
}

// TestSeededPlacementOverAdmin ties the Config.Seed satellite to the admin
// plane: two daemons with different seeds publish different /shardmap
// placements, and the same seed reproduces the same one.
func TestSeededPlacementOverAdmin(t *testing.T) {
	prog, _ := soakProgram(t)
	shardmap := func(seed int64) string {
		s, err := New(prog, Config{
			Engine:    dataplane.Config{Workers: 4, Seed: seed},
			TCPAddr:   "127.0.0.1:0",
			AdminAddr: "127.0.0.1:0",
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		defer s.Shutdown()
		return httpGet(t, "http://"+s.AdminAddr()+"/shardmap")
	}
	a, b, c := shardmap(5), shardmap(5), shardmap(6)
	if a != b {
		t.Fatal("same placement seed served different shard maps")
	}
	if a == c {
		t.Fatal("different placement seeds served identical shard maps")
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b strings.Builder
	if _, err := fmt.Fprint(&b, readAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, b.String())
	}
	return b.String()
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			return b.String()
		}
	}
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}
