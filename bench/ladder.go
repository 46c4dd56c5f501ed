package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"mp5/internal/banzai"
	"mp5/internal/core"
	"mp5/internal/dataplane"
	"mp5/internal/ir"
	"mp5/internal/ir/bytecode"
	"mp5/internal/screp"
)

// The layer ladder: the same program and trace through each layer alone,
// bottom up, about d per rung. A rung's ns/pkt minus the rung below is what
// that layer adds; banzai.process + dataplane.added + server.added is the
// top rung by construction. engines and wireRung say how far up the
// workload's own path goes.
func ladder(r *run, prog *ir.Program, trace []core.Arrival, d time.Duration, engines, wireRung bool) error {
	id := r.rec.begin("ladder")
	defer r.rec.end(id)
	m := r.layer
	sz := r.opt.sizes

	// rung runs f, which returns the packets it completed and, when the
	// timed part is less than the whole call, how long they took.
	rung := func(name string, f func() (int64, time.Duration, error)) (float64, error) {
		id := r.rec.begin("ladder." + name)
		n, el, err := f()
		if whole := r.rec.end(id); el == 0 {
			el = whole
		}
		if err != nil {
			return 0, fmt.Errorf("ladder %s: %w", name, err)
		}
		ns := float64(el.Nanoseconds()) / float64(n)
		m[name+"_ns_per_pkt"] = ns
		return ns, nil
	}
	// perPacket calls f on trace packets, cycling, until d has passed.
	perPacket := func(f func(id int64, a *core.Arrival) error) (int64, time.Duration, error) {
		var n int64
		for start := time.Now(); time.Since(start) < d; {
			for i := 0; i < 1024; i++ {
				if err := f(n, &trace[int(n)%len(trace)]); err != nil {
					return n, 0, err
				}
				n++
			}
		}
		return n, 0, nil
	}

	env := ir.NewEnv(prog)
	regs := banzai.NewRegFile(prog)
	if _, err := rung("ir.exec", func() (int64, time.Duration, error) {
		return perPacket(func(_ int64, a *core.Arrival) error {
			env.ResetFor(a.Fields)
			for si := range prog.Stages {
				ir.ExecStage(&prog.Stages[si], env, regs)
			}
			return nil
		})
	}); err != nil {
		return err
	}
	bc, err := bytecode.Compile(prog)
	if err != nil {
		return err
	}
	vm := bytecode.NewVM(bc)
	regs = banzai.NewRegFile(prog)
	if _, err := rung("bytecode.exec", func() (int64, time.Duration, error) {
		return perPacket(func(_ int64, a *core.Arrival) error {
			env.ResetFor(a.Fields)
			for si := range bc.Stages {
				if err := vm.ExecStage(&bc.Stages[si], env, regs); err != nil {
					return err
				}
			}
			return nil
		})
	}); err != nil {
		return err
	}
	machine := banzai.NewMachine(prog)
	process, err := rung("banzai.process", func() (int64, time.Duration, error) {
		return perPacket(func(id int64, a *core.Arrival) error {
			env.ResetFor(a.Fields)
			machine.Process(id, env)
			return nil
		})
	})
	if err != nil || !engines {
		return err
	}

	timeUp := func() func(int64) bool {
		deadline := time.Now().Add(d)
		return func(int64) bool { return !time.Now().Before(deadline) }
	}
	sharded := map[int]float64{}
	for _, k := range []int{1, 2} {
		sharded[k], err = rung(fmt.Sprintf("dataplane.w%d", k), func() (int64, time.Duration, error) {
			eng := dataplane.New(prog, dataplane.Config{Workers: k, Window: sz.window})
			eng.Start()
			_, err := feedUntil(eng, trace, sz.chunk, nil, timeUp())
			return eng.Drain().Completed, 0, err
		})
		if err != nil {
			return err
		}
	}
	if _, err := rung("dataplane.single_submit", func() (int64, time.Duration, error) {
		eng := dataplane.New(prog, dataplane.Config{Workers: r.workers, Window: sz.window})
		eng.Start()
		_, _, err := perPacket(func(_ int64, a *core.Arrival) error {
			if !eng.Submit(a) {
				return fmt.Errorf("engine refused a packet (stalled=%v)", eng.Stalled())
			}
			return nil
		})
		return eng.Drain().Completed, 0, err
	}); err != nil {
		return err
	}
	replicated := map[int]float64{}
	for _, k := range []int{1, 2} {
		replicated[k], err = rung(fmt.Sprintf("screp.w%d", k), func() (int64, time.Duration, error) {
			eng := screp.New(prog, screp.Config{Workers: k, Window: sz.window})
			eng.Start()
			var err error
			for off, done := 0, timeUp(); !done(0); off = (off + sz.chunk) % len(trace) {
				batch := trace[off:min(off+sz.chunk, len(trace))]
				if eng.SubmitBatch(batch, nil) != len(batch) {
					err = fmt.Errorf("engine refused packets (stalled=%v)", eng.Stalled())
					break
				}
			}
			return eng.Drain().Completed, 0, err
		})
		if err != nil {
			return err
		}
	}
	own := sharded[r.workers] // the rung the workload's own engine configuration is
	m["dataplane.added_ns_per_pkt"] = own - process
	m["screp.over_sharded"] = replicated[r.workers] / own
	if runtime.NumCPU() > 1 {
		m["dataplane.scale_w2_over_w1"] = sharded[1] / sharded[2]
	} else {
		fmt.Fprintln(os.Stderr, "bench: SINGLE_CPU: nproc is 1, so two workers measure scheduling overhead, not scaling;"+
			" dataplane.scale_w2_over_w1 is refused and reads 0")
	}
	if !wireRung {
		return nil
	}

	w := &wire{r: r, tenants: []*tenantLoad{{name: "a", window: sz.window, prog: prog, trace: trace}}}
	top, err := rung("server.wire", func() (int64, time.Duration, error) {
		sys, err := w.start(false)
		if err != nil {
			return 0, 0, err
		}
		g, err := sys.measure(d, nil)
		if cerr := sys.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, 0, err
		}
		return g.completed, g.wall, nil
	})
	if err != nil {
		return err
	}
	m["server.added_ns_per_pkt"] = top - own
	return nil
}
