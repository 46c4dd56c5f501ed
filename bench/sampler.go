package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"syscall"
	"time"

	"mp5/internal/server"
)

// sampler polls a system's /stats view at 10 Hz during a traced region. The
// in-process engine fills the same struct from its accessors.
type sampler struct {
	snaps      []server.StatsSnapshot
	goroutines []float64
	quit       chan struct{}
	done       chan struct{}
}

const samplePeriod = 100 * time.Millisecond

func (s *sampler) start(poll func() (server.StatsSnapshot, error)) {
	s.quit = make(chan struct{})
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		tick := time.NewTicker(samplePeriod)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-tick.C:
				if snap, err := poll(); err == nil {
					s.snaps = append(s.snaps, snap)
					s.goroutines = append(s.goroutines, float64(runtime.NumGoroutine()))
				}
			}
		}
	}()
}

// stop ends polling and waits for the poller.
func (s *sampler) stop() {
	close(s.quit)
	<-s.done
}

// fold turns the samples into queue-depth means.
func (s *sampler) fold(m map[string]float64) {
	var window, mailbox, parked, tickets, ingress, ticketMax, quota float64
	for _, sn := range s.snaps {
		for _, tn := range sn.Tenants {
			quota += float64(tn.QuotaInUse)
		}
		window += float64(sn.Window.Depth)
		ingress += float64(sn.Ingress.Depth)
		tickets += float64(sn.TicketsPending)
		ticketMax = max(ticketMax, float64(sn.TicketsMax))
		for _, w := range sn.WorkerStats {
			mailbox += float64(w.Mailbox)
			parked += float64(w.Parked)
		}
	}
	n := float64(len(s.snaps))
	if n == 0 {
		return
	}
	m["dataplane.window_inuse_mean"] = window / n
	m["dataplane.mailbox_depth_mean"] = mailbox / n
	m["dataplane.parked_mean"] = parked / n
	m["dataplane.tickets_pending_mean"] = tickets / n
	m["dataplane.tickets_depth_max"] = ticketMax
	m["server.ingress_depth_mean"] = ingress / n
	m["tenant.quota_inuse_mean"] = quota / n
	m["proc.goroutines"] = mean(s.goroutines)
}

// fetchStats reads the daemon's /stats over its admin listener.
func fetchStats(adminAddr string) (server.StatsSnapshot, error) {
	var snap server.StatsSnapshot
	resp, err := http.Get("http://" + adminAddr + "/stats")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("/stats: %s", resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	return snap, err
}

// procStat is the process-level state the traced region is bracketed with.
type procStat struct {
	cpu      time.Duration // user + system
	ctxsw    int64
	maxRSSKB int64
	mem      runtime.MemStats
}

func readProc() procStat {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	p := procStat{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		ctxsw:    int64(ru.Nvcsw + ru.Nivcsw),
		maxRSSKB: int64(ru.Maxrss),
	}
	runtime.ReadMemStats(&p.mem)
	return p
}

// procLayer derives the process metrics of a region of pkts packets from
// the states before and after it. Over the wire the allocation rates are
// the server layer's to explain; they are the whole process's, the daemon
// and its in-process clients together.
func procLayer(m map[string]float64, a, b procStat, pkts int64, overWire bool) {
	n := float64(pkts)
	m["proc.cpu_us_per_pkt"] = float64((b.cpu - a.cpu).Microseconds()) / n
	m["proc.ctxsw_per_kpkt"] = 1000 * float64(b.ctxsw-a.ctxsw) / n
	m["proc.gc_cycles"] = float64(b.mem.NumGC - a.mem.NumGC)
	m["proc.gc_pause_ms"] = float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs) / 1e6
	m["proc.rss_peak_mb"] = float64(b.maxRSSKB) / 1024
	m["proc.heap_inuse_mb"] = float64(b.mem.HeapInuse) / (1 << 20)
	if overWire {
		m["server.allocs_per_pkt"] = float64(b.mem.Mallocs-a.mem.Mallocs) / n
		m["server.alloc_bytes_per_pkt"] = float64(b.mem.TotalAlloc-a.mem.TotalAlloc) / n
	}
}

var calibSink uint64

// calibrate times a fixed xorshift-and-table kernel and returns ns per
// iteration. The sandbox's cores switch between a fast and a slow mode for
// tens of seconds at a time; this labels which one a run saw. It is never
// used to rescale a metric.
func calibrate() float64 {
	const iters = 20_000_000
	var tbl [4096]uint64
	x := uint64(88172645463325252)
	start := time.Now()
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		tbl[x&4095] += x
	}
	el := time.Since(start)
	calibSink += tbl[x&4095]
	return float64(el.Nanoseconds()) / iters
}
