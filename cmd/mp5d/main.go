// Command mp5d runs the MP5 switch daemon: it compiles a packet-processing
// program, wraps the concurrent dataplane in network listeners, and serves
// an open-ended packet stream until SIGTERM/SIGINT, then drains gracefully
// and prints the run summary.
//
// Examples:
//
//	mp5d -app sequencer -workers 4
//	mp5d -synthetic 4 -regsize 512 -listen-tcp 127.0.0.1:9590 -policy drop
//	mp5d -program prog.domino -listen-tcp 127.0.0.1:0 -admin 127.0.0.1:0 -verify
//	mp5d -tenant gold=conga.dm@64 -tenant bronze=wfq.dm -verify
//
// Multi-tenant mode (-tenant, repeatable) loads one program per tenant on
// the shared engine: each tenant gets an isolated register namespace, a
// dense wire id in declaration order (clients stamp it in the frame), an
// optional admission quota (@N in-flight packets), and zero-downtime hot
// swap over the admin plane (POST /programs/{tenant} with new Domino
// source).
//
// The first line printed is machine-parseable ("mp5d: listening tcp=...
// udp=... admin=...") so scripts can bind port 0 and discover the real
// addresses. Exit codes: 0 clean drain, 1 verification mismatch, 3 stall.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"mp5/internal/apps"
	"mp5/internal/compiler"
	"mp5/internal/dataplane"
	"mp5/internal/ir"
	"mp5/internal/server"
	"mp5/internal/telemetry"
	"mp5/internal/tenant"
)

// stringList collects a repeatable flag.
type stringList []string

func (l *stringList) String() string { return fmt.Sprint([]string(*l)) }
func (l *stringList) Set(v string) error {
	*l = append(*l, v)
	return nil
}

func main() {
	app := flag.String("app", "", "built-in application: flowlet, conga, wfq, sequencer")
	programPath := flag.String("program", "", "Domino program file")
	synthetic := flag.Int("synthetic", 0, "use the synthetic program with this many stateful stages")
	regSize := flag.Int("regsize", 512, "register array size for -synthetic")
	workers := flag.Int("workers", 0, "dataplane worker count (0 = GOMAXPROCS)")
	window := flag.Int("window", 0, "admission window: max packets in flight (0 = engine default)")
	seed := flag.Int64("seed", 0, "initial index→worker placement seed (0 = round-robin)")
	tcpAddr := flag.String("listen-tcp", "127.0.0.1:9590", `TCP data-plane listen address ("" disables)`)
	udpAddr := flag.String("listen-udp", "127.0.0.1:9590", `UDP data-plane listen address ("" disables)`)
	adminAddr := flag.String("admin", "127.0.0.1:9591", `HTTP admin-plane listen address ("" disables)`)
	ingressCap := flag.Int("ingress-cap", 0, "ingress queue depth between decoders and the admitter (0 = default 1024)")
	policy := flag.String("policy", "drop", "UDP backpressure policy at a full ingress queue: drop or block")
	verify := flag.Bool("verify", false, "record the admitted order and check equivalence against the single-pipeline reference at drain (memory grows with traffic; soak/debug mode)")
	traceSample := flag.Int("trace-sample", 1024, "sample one packet in N for wire-to-wire spans (0 disables tracing)")
	traceJSONL := flag.String("trace-jsonl", "", "stream sampled wire spans to this JSONL file")
	statsInterval := flag.Duration("stats-interval", 0, "background gauge sampler period (0 = default 250ms)")
	var tenantSpecs stringList
	flag.Var(&tenantSpecs, "tenant", "tenant spec NAME=FILE[@quota] (repeatable; multi-tenant mode)")
	flag.Parse()

	var tenants []server.TenantProgram
	if len(tenantSpecs) > 0 {
		if *app != "" || *synthetic > 0 || *programPath != "" {
			fatal(fmt.Errorf("-tenant is exclusive with -app/-synthetic/-program"))
		}
		var err error
		tenants, err = loadTenants(tenantSpecs, *window)
		if err != nil {
			fatal(err)
		}
	} else {
		tenants = []server.TenantProgram{{Name: "default", Prog: selectProgram(*app, *synthetic, *regSize, *programPath)}}
	}
	pol, err := server.ParsePolicy(*policy)
	if err != nil {
		fatal(err)
	}

	// The registry is shared by the server, engine, and tracer so /metrics
	// serves the whole surface; the tracer's sink (when -trace-jsonl is set)
	// streams raw spans off the collector goroutine.
	reg := telemetry.NewRegistry()
	var trc *dataplane.Tracer
	var spanOut *telemetry.JSONL
	var spanFile *os.File
	if *traceSample > 0 {
		tcfg := dataplane.TracerConfig{SampleEvery: *traceSample, Registry: reg}
		if *traceJSONL != "" {
			f, err := os.Create(*traceJSONL)
			if err != nil {
				fatal(err)
			}
			spanFile = f
			spanOut = telemetry.NewJSONL(f)
			tcfg.Sink = func(sp *dataplane.Span) { spanOut.Object(sp) }
		}
		trc = dataplane.NewTracer(tcfg)
	}

	s, err := server.NewMulti(tenants, server.Config{
		Engine: dataplane.Config{
			Workers: *workers,
			Window:  *window,
			Seed:    *seed,
		},
		TCPAddr:        *tcpAddr,
		UDPAddr:        *udpAddr,
		AdminAddr:      *adminAddr,
		IngressCap:     *ingressCap,
		Policy:         pol,
		Verify:         *verify,
		Registry:       reg,
		Tracer:         trc,
		SampleInterval: *statsInterval,
	})
	if err != nil {
		fatal(err)
	}
	if err := s.Start(); err != nil {
		fatal(err)
	}
	fmt.Printf("mp5d: listening tcp=%s udp=%s admin=%s\n", s.TCPAddr(), s.UDPAddr(), s.AdminAddr())
	for _, tn := range s.Tenants().Tenants() {
		v := tn.Active()
		quota := "unlimited"
		if q := tn.Quota(); q != nil {
			quota = fmt.Sprintf("%d in flight", q.Cap())
		}
		fmt.Printf("mp5d: tenant %s id=%d program %s (%d stages, %d registers) quota %s\n",
			tn.Name(), tn.ID(), v.Prog.Name, v.Prog.NumStages(), len(v.Prog.Regs), quota)
	}
	fmt.Printf("mp5d: %d workers, policy %s\n", s.Engine().Workers(), *policy)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	got := <-sig
	fmt.Printf("mp5d: %v, draining\n", got)

	res := s.Shutdown()
	fmt.Printf("packets            %d admitted, %d completed, %d shed at ingress\n",
		res.Injected, res.Completed, s.Dropped())
	fmt.Printf("throughput         %.0f packets/sec (%.2f ms serving)\n",
		res.PktsPerSec, float64(res.Elapsed.Microseconds())/1000)
	if trc != nil {
		trc.Close()
		fmt.Printf("trace              %d spans sampled (1/%d), %d dropped at the collector\n",
			trc.Sampled(), *traceSample, trc.Dropped())
		for _, st := range trc.StageStats() {
			fmt.Printf("  %-12s %8d spans  p50 %8.1fµs  p99 %8.1fµs\n",
				st.Stage, st.Count, st.P50us, st.P99us)
		}
		if spanOut != nil {
			if err := spanOut.Flush(); err != nil {
				fatal(err)
			}
			if err := spanFile.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("trace              spans written to %s\n", *traceJSONL)
		}
	}
	if res.Stalled {
		fmt.Fprintf(os.Stderr, "mp5d: engine stalled (%d of %d packets completed)\n",
			res.Completed, res.Injected)
		os.Exit(3)
	}
	if *verify {
		tvs, err := s.VerifyTenants()
		if err != nil {
			fatal(err)
		}
		// Per-version detail first when more than one program version saw
		// traffic; the aggregate line below stays the machine-parseable bar.
		total := 0
		var failed *server.TenantVerify
		for i, tv := range tvs {
			total += tv.Packets
			verdict := "OK"
			if !tv.Report.Equivalent {
				verdict = "FAILED"
				if failed == nil {
					failed = &tvs[i]
				}
			}
			if len(tvs) > 1 {
				fmt.Printf("  tenant %-12s v%d  %7d packets  %s\n", tv.Tenant, tv.Version, tv.Packets, verdict)
			}
		}
		if failed != nil {
			fmt.Printf("equivalence        FAILED: tenant %s v%d: %s\n", failed.Tenant, failed.Version, failed.Report)
			os.Exit(1)
		}
		fmt.Printf("equivalence        OK (%d packets, all registers, C1 order)\n", total)
	}
}

// selectProgram mirrors mp5sim's program selection so a daemon and a load
// generator launched with the same flags agree on the header-field shape.
func selectProgram(app string, synthetic, regSize int, programPath string) *ir.Program {
	switch {
	case app != "":
		a, err := apps.ByName(app)
		if err != nil {
			fatal(err)
		}
		return a.MustCompile(compiler.TargetMP5)
	case synthetic > 0:
		prog, err := apps.Synthetic(synthetic, regSize, compiler.DefaultMaxStages)
		if err != nil {
			fatal(err)
		}
		return prog
	case programPath != "":
		data, err := os.ReadFile(programPath)
		if err != nil {
			fatal(err)
		}
		prog, err := compiler.Compile(string(data), compiler.Options{Target: compiler.TargetMP5})
		if err != nil {
			fatal(err)
		}
		return prog
	}
	fmt.Fprintln(os.Stderr, "usage: mp5d (-app NAME | -synthetic N | -program FILE) [flags]")
	os.Exit(2)
	return nil
}

// loadTenants parses, validates, and compiles the -tenant specs up front —
// every rejection is a one-line error before any listener binds.
func loadTenants(specs []string, window int) ([]server.TenantProgram, error) {
	parsed := make([]tenant.Spec, 0, len(specs))
	for _, arg := range specs {
		sp, err := tenant.ParseSpec(arg)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, sp)
	}
	if err := tenant.ValidateSpecs(parsed, window); err != nil {
		return nil, err
	}
	out := make([]server.TenantProgram, 0, len(parsed))
	for _, sp := range parsed {
		data, err := os.ReadFile(sp.File)
		if err != nil {
			return nil, fmt.Errorf("tenant %q: %v", sp.Name, err)
		}
		prog, err := compiler.Compile(string(data), compiler.Options{Target: compiler.TargetMP5})
		if err != nil {
			return nil, fmt.Errorf("tenant %q: %s: %v", sp.Name, sp.File, err)
		}
		out = append(out, server.TenantProgram{Name: sp.Name, Prog: prog, Quota: sp.Quota})
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mp5d:", err)
	os.Exit(1)
}
