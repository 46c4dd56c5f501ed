package server

import (
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"mp5/internal/apps"
	"mp5/internal/compiler"
	"mp5/internal/core"
	"mp5/internal/dataplane"
	"mp5/internal/ir"
	"mp5/internal/workload"
)

// congaWide is CongaSource with a wider best-path table: same header
// fields (the wire contract), different register shape — a legal hot swap.
const congaWide = `
#define NUM_DSTS 512

struct Packet {
    int dst;
    int util;
    int path_id;
};

int best_path_util [NUM_DSTS] = {100};
int best_path [NUM_DSTS] = {0};

void conga_wide (struct Packet p) {
    if (p.util < best_path_util[p.dst % NUM_DSTS]) {
        best_path_util[p.dst % NUM_DSTS] = p.util;
        best_path[p.dst % NUM_DSTS] = p.path_id;
    } else if (p.path_id == best_path[p.dst % NUM_DSTS]) {
        best_path_util[p.dst % NUM_DSTS] = p.util;
    }
}
`

func compileMP5(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog, err := compiler.Compile(src, compiler.Options{Target: compiler.TargetMP5})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// twoTenantServer boots a Verify-mode daemon with two tenants: alpha runs
// the synthetic soak program, beta runs CONGA.
func twoTenantServer(t *testing.T, quotaBeta int) (*Server, *ir.Program, *ir.Program) {
	t.Helper()
	progA, _ := soakProgram(t)
	progB := compileMP5(t, apps.CongaSource)
	s, err := NewMulti([]TenantProgram{
		{Name: "alpha", Prog: progA},
		{Name: "beta", Prog: progB, Quota: quotaBeta},
	}, Config{
		Engine:    dataplane.Config{Workers: 4, Window: 128},
		TCPAddr:   "127.0.0.1:0",
		UDPAddr:   "127.0.0.1:0",
		AdminAddr: "127.0.0.1:0",
		Verify:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	return s, progA, progB
}

// TestMultiTenantWireIsolation is the wire-level tenant-isolation oracle:
// two tenants driven concurrently over loopback TCP by clients stamping
// different wire ids must see zero loss, and each tenant's recorded
// admission trace must match its own single-pipeline reference on state,
// outputs, and C1 access order.
func TestMultiTenantWireIsolation(t *testing.T) {
	s, progA, progB := twoTenantServer(t, 0)
	traceA := workload.Synthetic(progA, workload.Spec{Packets: 2000, Pipelines: 4, Seed: 41, Pattern: workload.Skewed}, 4, 64)
	traceB := workload.RandomFields(progB, workload.Spec{Packets: 2000, Pipelines: 4, Seed: 42})
	var wg sync.WaitGroup
	run := func(tenant uint16, trace []core.Arrival) {
		defer wg.Done()
		c, err := Dial("tcp", s.TCPAddr())
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		rep, err := c.Run(trace, LoadOptions{Tenant: tenant, Window: 64})
		if err != nil {
			t.Errorf("tenant %d run: %v", tenant, err)
			return
		}
		if rep.Acked != int64(len(trace)) {
			t.Errorf("tenant %d: acked %d of %d", tenant, rep.Acked, len(trace))
		}
	}
	wg.Add(2)
	go run(0, traceA)
	go run(1, traceB)
	wg.Wait()
	res := s.Shutdown()
	if res.Stalled || res.Completed != int64(len(traceA)+len(traceB)) {
		t.Fatalf("completed %d of %d (stalled=%v)", res.Completed, len(traceA)+len(traceB), res.Stalled)
	}
	tvs, err := s.VerifyTenants()
	if err != nil {
		t.Fatal(err)
	}
	if len(tvs) != 2 {
		t.Fatalf("verified %d versions, want 2: %+v", len(tvs), tvs)
	}
	for _, tv := range tvs {
		if !tv.Report.Equivalent {
			t.Fatalf("tenant %s v%d not equivalent:\n%s", tv.Tenant, tv.Version, tv.Report)
		}
		if !tv.OrderOK {
			t.Fatalf("tenant %s v%d violated C1", tv.Tenant, tv.Version)
		}
		if tv.Packets != 2000 {
			t.Fatalf("tenant %s v%d verified %d packets, want 2000", tv.Tenant, tv.Version, tv.Packets)
		}
	}
}

// TestQuotaEqualsClientWindow: an ack means the packet's quota token is
// back. A client whose window equals its tenant's quota sends the next frame
// the moment it hears an ack, and that frame must never be shed against a
// token the acked packet still holds (the engine used to announce the egress
// first and return the token after).
func TestQuotaEqualsClientWindow(t *testing.T) {
	const quota = 8
	prog, trace := soakProgram(t)
	s, err := NewMulti([]TenantProgram{{Name: "capped", Prog: prog, Quota: quota}}, Config{
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
	c, err := Dial("tcp", s.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var long []core.Arrival
	for i := 0; i < 10; i++ {
		long = append(long, trace...)
	}
	rep, err := c.Run(long, LoadOptions{Window: quota, AckTimeout: 2 * time.Second})
	shed := s.Tenants().ByID(0).Active().Handle.Stats().Shed
	if err != nil || rep.Acked != rep.Sent || shed != 0 {
		t.Fatalf("window == quota lost packets: sent %d acked %d shed %d (%v)", rep.Sent, rep.Acked, shed, err)
	}
}

// TestQuotaContainsFlood is the noisy-neighbour bar stated as counts, not
// rates: beta, capped at a sliver of the window, is blasted over UDP without
// pacing for as long as alpha's closed loop runs. The quota sheds the excess
// at admission, every datagram the daemon read is accounted for, no token
// leaks, and alpha loses nothing.
func TestQuotaContainsFlood(t *testing.T) {
	const quota = 4
	s, progA, progB := twoTenantServer(t, quota)
	victim := workload.Synthetic(progA, workload.Spec{Packets: 4000, Pipelines: 4, Seed: 47, Pattern: workload.Skewed}, 4, 64)
	flood := workload.RandomFields(progB, workload.Spec{Packets: 256, Pipelines: 4, Seed: 48})
	beta := s.Tenants().ByName("beta")
	shed := func() int64 { return beta.Active().Handle.Stats().Shed }

	stop := make(chan struct{})
	stopFlood := sync.OnceFunc(func() { close(stop) })
	defer stopFlood() // a failed wait below must not leave the blaster running

	peak := make(chan int64, 1) // highest quota occupancy seen between bursts
	go func() {
		var hi int64
		defer func() { peak <- hi }()
		uc, err := Dial("udp", s.UDPAddr())
		if err != nil {
			t.Error(err)
			return
		}
		defer uc.Close()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := uc.Run(flood, LoadOptions{Tenant: 1}); err != nil {
				t.Error(err)
				return
			}
			hi = max(hi, beta.Quota().InUse())
		}
	}()
	// The victim starts only once the quota is demonstrably shedding, so its
	// whole run overlaps the flood.
	waitFor(t, "the flood to hit beta's quota", func() bool { return shed() > 0 })
	c, err := Dial("tcp", s.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rep, err := c.Run(victim, LoadOptions{Tenant: 0, Window: 64})
	stopFlood()
	if hi := <-peak; hi > quota {
		t.Fatalf("beta held %d quota tokens, cap %d", hi, quota)
	}
	if err != nil || rep.Acked != rep.Sent || rep.Sent != int64(len(victim)) {
		t.Fatalf("victim under flood: sent %d acked %d of %d (%v)", rep.Sent, rep.Acked, len(victim), err)
	}

	if res := s.Shutdown(); res.Stalled || res.Completed != res.Injected {
		t.Fatalf("drain: %+v", res)
	}
	bs := beta.Active().Handle.Stats()
	if rx := s.met.rx.Value("udp"); bs.Submitted+bs.Shed+s.Dropped() != rx {
		t.Fatalf("flood unaccounted: submitted %d + quota-shed %d + ingress-dropped %d != %d datagrams read",
			bs.Submitted, bs.Shed, s.Dropped(), rx)
	}
	if got := beta.Quota().InUse(); got != 0 {
		t.Fatalf("leaked %d quota tokens", got)
	}
	if got := s.eng.WindowInUse(); got != 0 {
		t.Fatalf("leaked %d window tokens", got)
	}
	tvs, err := s.VerifyTenants()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"alpha": int64(len(victim)), "beta": bs.Submitted}
	if len(tvs) != 2 {
		t.Fatalf("verified %d versions, want 2: %+v", len(tvs), tvs)
	}
	for _, tv := range tvs {
		if !tv.Report.Equivalent || !tv.OrderOK || int64(tv.Packets) != want[tv.Tenant] {
			t.Fatalf("tenant %s: %d packets (want %d), C1 %v\n%s",
				tv.Tenant, tv.Packets, want[tv.Tenant], tv.OrderOK, tv.Report)
		}
	}
}

// TestHotSwapZeroLoss is the acceptance bar for the swap protocol on the
// wire: POST /programs/{tenant} while a TCP client streams traffic — no
// packet is lost across the flip, both versions see traffic, and each
// version independently passes the wire differential (state + C1 order).
func TestHotSwapZeroLoss(t *testing.T) {
	progV1 := compileMP5(t, apps.CongaSource)
	s, err := NewMulti([]TenantProgram{{Name: "alpha", Prog: progV1}}, Config{
		Engine:    dataplane.Config{Workers: 4, Window: 64},
		TCPAddr:   "127.0.0.1:0",
		AdminAddr: "127.0.0.1:0",
		Verify:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	trace1 := workload.RandomFields(progV1, workload.Spec{Packets: 3000, Pipelines: 4, Seed: 43})
	c, err := Dial("tcp", s.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *LoadReport, 1)
	go func() {
		rep, err := c.Run(trace1, LoadOptions{Window: 32})
		if err != nil {
			t.Errorf("phase-1 run: %v", err)
		}
		done <- rep
	}()
	// Swap mid-stream: wait until the engine has demonstrably processed
	// part of phase 1, then flip. Packets admitted before the flip finish
	// on v1; anything after starts on v2.
	for s.eng.Completed() < 500 {
		time.Sleep(time.Millisecond)
	}
	body := httpPost(t, "http://"+s.AdminAddr()+"/programs/alpha", congaWide)
	if !strings.Contains(body, `"version":2`) {
		t.Fatalf("swap response: %s", body)
	}
	rep1 := <-done
	c.Close()
	if rep1 == nil || rep1.Acked != int64(len(trace1)) {
		t.Fatalf("phase 1 lost packets across the swap: %+v", rep1)
	}
	// Phase 2 traffic is guaranteed post-flip: a fresh client, same wire id
	// (the tenant id is stable across versions).
	progV2 := compileMP5(t, congaWide)
	trace2 := workload.RandomFields(progV2, workload.Spec{Packets: 1500, Pipelines: 4, Seed: 44})
	c2, err := Dial("tcp", s.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	rep2, err := c2.Run(trace2, LoadOptions{Window: 32})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Acked != int64(len(trace2)) {
		t.Fatalf("phase 2 acked %d of %d", rep2.Acked, len(trace2))
	}
	res := s.Shutdown()
	if res.Stalled {
		t.Fatal("stalled across a hot swap")
	}
	tvs, err := s.VerifyTenants()
	if err != nil {
		t.Fatal(err)
	}
	if len(tvs) != 2 || tvs[0].Version != 1 || tvs[1].Version != 2 {
		t.Fatalf("expected both versions to see traffic: %+v", tvs)
	}
	for _, tv := range tvs {
		if tv.Packets == 0 {
			t.Fatalf("version %d verified 0 packets", tv.Version)
		}
		if !tv.Report.Equivalent {
			t.Fatalf("version %d not equivalent after the swap:\n%s", tv.Version, tv.Report)
		}
		if !tv.OrderOK {
			t.Fatalf("version %d violated C1 across the swap", tv.Version)
		}
	}
	if tvs[0].Packets+tvs[1].Packets != len(trace1)+len(trace2) {
		t.Fatalf("versions verified %d+%d packets, want %d total",
			tvs[0].Packets, tvs[1].Packets, len(trace1)+len(trace2))
	}
}

// TestShutdownMidHotSwap extends the abort/drain regression suite across a
// swap: SIGTERM (Shutdown is exactly what mp5d's SIGTERM handler calls)
// lands right after a hot swap while both versions still have packets in
// flight. The drain must join in order (readers → admitter → engine →
// writers), flush trailing acks for everything admitted, and leak nothing:
// no tickets, no window tokens, no quota tokens.
func TestShutdownMidHotSwap(t *testing.T) {
	progV1 := compileMP5(t, apps.CongaSource)
	s, err := NewMulti([]TenantProgram{{Name: "alpha", Prog: progV1, Quota: 32}}, Config{
		Engine:    dataplane.Config{Workers: 2, Window: 64},
		TCPAddr:   "127.0.0.1:0",
		AdminAddr: "127.0.0.1:0",
		Verify:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	trace := workload.RandomFields(progV1, workload.Spec{Packets: 4000, Pipelines: 2, Seed: 45})
	c, err := Dial("tcp", s.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var rep *LoadReport
	done := make(chan struct{})
	go func() {
		defer close(done)
		// The run races the shutdown: an error (connection closed mid-send)
		// is expected; the report still counts trailing acks received.
		rep, _ = c.Run(trace, LoadOptions{Window: 32, AckTimeout: 2 * time.Second})
	}()
	for s.eng.Completed() < 300 {
		time.Sleep(time.Millisecond)
	}
	httpPost(t, "http://"+s.AdminAddr()+"/programs/alpha", congaWide)
	// SIGTERM mid-swap: both versions have in-flight packets right now.
	res := s.Shutdown()
	<-done
	if res.Stalled {
		t.Fatal("drain stalled mid-swap")
	}
	if res.Completed != res.Injected {
		t.Fatalf("drained %d of %d admitted (ticket leak?)", res.Completed, res.Injected)
	}
	// Trailing acks: every admitted packet was acked before the writers
	// closed — the client saw at least as many acks as the server admitted
	// minus nothing (admitted ⇒ acked in lossless mode).
	if rep == nil || rep.Acked < res.Injected {
		t.Fatalf("trailing acks lost: client acked %v, server admitted %d", rep, res.Injected)
	}
	if pend, _ := s.eng.TicketDepths(); pend != 0 {
		t.Fatalf("shutdown mid-swap leaked %d tickets", pend)
	}
	if got := s.eng.WindowInUse(); got != 0 {
		t.Fatalf("shutdown mid-swap leaked %d window tokens", got)
	}
	tn := s.Tenants().ByName("alpha")
	if got := tn.Quota().InUse(); got != 0 {
		t.Fatalf("shutdown mid-swap leaked %d quota tokens", got)
	}
	if vs := tn.Versions(); len(vs) != 2 {
		t.Fatalf("swap did not land before shutdown: %d versions", len(vs))
	}
	// Both versions' admitted traffic still verifies after the interrupted
	// run — the drain retired everything in admission order.
	tvs, err := s.VerifyTenants()
	if err != nil {
		t.Fatal(err)
	}
	for _, tv := range tvs {
		if !tv.Report.Equivalent || !tv.OrderOK {
			t.Fatalf("version %d failed the differential after mid-swap shutdown: %+v", tv.Version, tv)
		}
	}
}

// TestAdminContentTypeJSON pins the admin-plane content type: every JSON
// endpoint — /stats, /shardmap (with and without ?tenant=), /programs, and
// swap errors — declares application/json.
func TestAdminContentTypeJSON(t *testing.T) {
	s, _, _ := twoTenantServer(t, 0)
	defer s.Shutdown()
	base := "http://" + s.AdminAddr()
	for _, path := range []string{"/stats", "/shardmap", "/shardmap?tenant=beta", "/programs"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("GET %s content type %q, want application/json", path, ct)
		}
	}
	// Error responses carry the content type too.
	resp, err := http.Get(base + "/shardmap?tenant=ghost")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("GET /shardmap?tenant=ghost: %d %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
}

// TestTenantAdminSurfaces covers the rest of the tenant admin plane: the
// per-tenant /stats section, per-tenant /metrics gauges, tenant-selected
// shard maps, and every swap-endpoint error path.
func TestTenantAdminSurfaces(t *testing.T) {
	s, progA, _ := twoTenantServer(t, 48)
	defer s.Shutdown()
	base := "http://" + s.AdminAddr()
	traceA := workload.Synthetic(progA, workload.Spec{Packets: 400, Pipelines: 4, Seed: 46}, 4, 64)
	c, err := Dial("tcp", s.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Run(traceA, LoadOptions{Tenant: 0, Window: 32}); err != nil {
		t.Fatal(err)
	}
	// Completion is counted just after the ack is queued (see TestAdminPlane).
	waitFor(t, "the last completion to be counted", func() bool { return s.eng.Completed() == 400 })

	var st StatsSnapshot
	getJSON(t, base+"/stats", &st)
	if len(st.Tenants) != 2 {
		t.Fatalf("/stats tenants: %+v", st.Tenants)
	}
	alpha, beta := st.Tenants[0], st.Tenants[1]
	if alpha.Name != "alpha" || alpha.ID != 0 || alpha.ActiveVersion != 1 {
		t.Fatalf("alpha stat: %+v", alpha)
	}
	if alpha.Submitted != 400 || alpha.Completed != 400 {
		t.Fatalf("alpha counters after 400 acked: %+v", alpha)
	}
	if beta.Name != "beta" || beta.ID != 1 || beta.QuotaCap != 48 || beta.Submitted != 0 {
		t.Fatalf("beta stat: %+v", beta)
	}
	if len(alpha.Versions) != 1 || alpha.Versions[0].Submitted != 400 {
		t.Fatalf("alpha version detail: %+v", alpha.Versions)
	}

	// Per-tenant shard maps differ by program shape: alpha's synthetic
	// program has 4 register arrays, beta's CONGA has 2.
	var smA, smB []dataplane.ShardEntry
	getJSON(t, base+"/shardmap?tenant=alpha", &smA)
	getJSON(t, base+"/shardmap?tenant=beta", &smB)
	if len(smA) != len(progA.Regs) {
		t.Fatalf("alpha shardmap covers %d arrays, program has %d", len(smA), len(progA.Regs))
	}
	if len(smB) == len(smA) {
		t.Fatalf("tenant shard maps not distinguished: both cover %d arrays", len(smA))
	}

	// The sampler publishes the per-tenant gauges once it ticks.
	deadline := time.Now().Add(2 * time.Second)
	for {
		metrics := httpGet(t, base+"/metrics")
		if strings.Contains(metrics, `tenant_submitted_packets{tenant="alpha"} 400`) &&
			strings.Contains(metrics, `tenant_quota_inuse{tenant="beta"} 0`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/metrics missing tenant gauges:\n%s", metrics)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Swap endpoint error paths, one status per failure mode.
	for _, tc := range []struct {
		method, path, body string
		code               int
		want               string
	}{
		{"POST", "/programs/ghost", apps.CongaSource, http.StatusNotFound, "unknown tenant"},
		{"GET", "/programs/alpha", "", http.StatusMethodNotAllowed, "POST"},
		{"POST", "/programs/alpha", "int x[4] = {", http.StatusUnprocessableEntity, "compile"},
		{"POST", "/programs/beta", apps.SequencerSource, http.StatusConflict, "field count"},
		{"POST", "/programs/", "", http.StatusNotFound, "want /programs/{tenant}"},
	} {
		req, err := http.NewRequest(tc.method, base+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		resp.Body.Close()
		if resp.StatusCode != tc.code || !strings.Contains(body, tc.want) {
			t.Fatalf("%s %s: %d %q (want %d containing %q)",
				tc.method, tc.path, resp.StatusCode, body, tc.code, tc.want)
		}
	}
}

func httpPost(t *testing.T, url, body string) string {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: %d: %s", url, resp.StatusCode, out)
	}
	return out
}
