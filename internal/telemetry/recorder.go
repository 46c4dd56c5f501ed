package telemetry

import (
	"fmt"
	"math"
	"sync"

	"mp5/internal/core"
	"mp5/internal/stats"
)

// StageDepth is one (stage, pipe) occupancy reading in a Sample.
type StageDepth struct {
	Stage int `json:"stage"`
	Pipe  int `json:"pipe"`
	Depth int `json:"depth"`
}

// Sample is one per-interval time-series point, reconstructed purely from
// the trace-event stream. Counts are per interval; depths are gauges read
// at the interval boundary.
type Sample struct {
	Type     string `json:"type"`     // always "sample"
	Cycle    int64  `json:"cycle"`    // first cycle of the interval
	Interval int64  `json:"interval"` // interval length in cycles

	Admitted int64   `json:"admitted"`           // EvAdmit count (recirc re-admissions included)
	Egressed int64   `json:"egressed"`           // EvEgress count
	Tput     float64 `json:"throughput"`         // Egressed / Interval (packets per cycle)
	Resolves int64   `json:"resolves,omitempty"` // EvResolve count
	Enqueues int64   `json:"enqueues,omitempty"` // EvEnqueue count
	Execs    int64   `json:"execs,omitempty"`    // EvExec count

	// Drops maps cause → count for EvDrop in the interval; PhantomDrops
	// counts EvPhantomDrop.
	Drops        map[string]int64 `json:"drops,omitempty"`
	PhantomDrops int64            `json:"phantom_drops,omitempty"`

	// Steers counts inter-pipeline crossings; CrossbarUtil normalizes
	// them to the crossbar's capacity of one crossing per pipeline per
	// cycle.
	Steers       int64   `json:"steers"`
	CrossbarUtil float64 `json:"crossbar_util"`

	// ShardMoves counts EvShardMove (dynamic-sharding churn).
	ShardMoves int64 `json:"shard_moves"`

	// FIFODepth is the per-(stage, pipe) count of queued data packets at
	// the interval boundary; PhantomDepth the phantom placeholders still
	// awaiting their data packet. Zero-depth slots are omitted.
	FIFODepth    []StageDepth `json:"fifo_depth,omitempty"`
	PhantomDepth []StageDepth `json:"phantom_occupancy,omitempty"`
}

// LatencySummary aggregates the completed-packet latency distribution,
// from the first admission to egress — which, for the recirculation
// baseline, excludes any wait in the ingress buffer before the packet
// first enters a pipeline. The quantiles come from an integer-bucketed
// histogram (stats.Histogram with Quantile interpolation) — no latency
// slice is ever sorted.
type LatencySummary struct {
	Completed int64   `json:"completed"`
	Dropped   int64   `json:"dropped"`
	Mean      float64 `json:"mean"`
	P50       int64   `json:"p50"`
	P90       int64   `json:"p90"`
	P99       int64   `json:"p99"`
	Max       int64   `json:"max"`
	// MeanQueueWait and MeanService split the mean latency into cycles
	// queued in stage FIFOs (or the ideal queue) and everything else:
	// stage marching, crossbar transit, and recirculation passes.
	MeanQueueWait float64 `json:"mean_queue_wait"`
	MeanService   float64 `json:"mean_service"`
}

type stagePipe struct {
	stage, pipe int
}

// occupancy is one (stage, pipe)'s reconstructed queue: data packets
// enqueued and not yet executed there, phantom placeholders not yet filled
// by their data packet, and the data high-water mark.
type occupancy struct {
	data, phantom, hi int
}

// packet is the recorder's one record of a live packet, kept from its
// first admission to its egress or drop.
type packet struct {
	admit    int64 // cycle of the first admission
	queued   bool  // enqueued at enq and not yet executed there
	enq      stagePipe
	enqCycle int64
	wait     int64 // cycles queued so far
	phantoms []stagePipe
}

// Recorder is the simulator's trace consumer: it folds the event stream
// into the mp5_* metric set, one Sample per interval, and the latency
// summary, from one record per live packet and one occupancy table. A data
// enqueue occupies its (stage, pipe) until the packet executes that stage;
// a phantom occupies its slot until the data packet lands in it or the
// packet dies. Attach Hook via core.Config.Trace (combine with other
// consumers through Tee) and call Close after the run to flush the final
// partial interval. Events and every accessor serialize on one mutex, and
// the sink is called with it held. Interval folding assumes nondecreasing
// cycles, so concurrent emitters should share a clock or use cycle 0.
type Recorder struct {
	mu sync.Mutex

	injected, completed, phantomDrops, shardMoves, steers *Counter
	drops, events                                         *CounterVec // by cause, by kind
	latency                                               *Histogram
	depthMax                                              *GaugeVec

	pkts map[int64]*packet
	occ  map[stagePipe]*occupancy

	interval int64
	pipes    int
	sink     func(Sample)
	started  bool
	cur      Sample // cur.Cycle is the first cycle of the current interval

	latencies []int64 // completed packets, in egress order
	dropped   int64   // admitted packets that died
	sumWait   float64
}

// NewRecorder registers the mp5_* metric set on reg (a nil reg records no
// metrics) and emits one Sample per interval cycles to sink (nil: none).
// pipes sizes the crossbar-utilization normalization.
func NewRecorder(reg *Registry, interval int64, pipes int, sink func(Sample)) *Recorder {
	if interval <= 0 {
		panic("telemetry: sample interval must be positive")
	}
	return &Recorder{
		injected:     reg.NewCounter("mp5_packets_injected_total", "packets offered to the switch (unique admissions plus ingress drops)"),
		completed:    reg.NewCounter("mp5_packets_completed_total", "packets that egressed"),
		drops:        reg.NewCounterVec("mp5_packets_dropped_total", "packet deaths by cause", "cause"),
		phantomDrops: reg.NewCounter("mp5_phantom_drops_total", "phantom placeholders lost to stage-FIFO overflow"),
		shardMoves:   reg.NewCounter("mp5_shard_moves_total", "dynamic-sharding register-entry migrations"),
		steers:       reg.NewCounter("mp5_crossbar_steers_total", "inter-pipeline packet crossings"),
		events:       reg.NewCounterVec("mp5_events_total", "raw trace events by kind", "kind"),
		latency:      reg.NewHistogram("mp5_packet_latency_cycles", "completed-packet latency (cycles, admit to egress)", 0, 4096, 1024, 0.5, 0.9, 0.99),
		depthMax:     reg.NewGaugeVec("mp5_fifo_depth_max", "event-reconstructed per-(stage,pipe) queue high-water mark", "stage", "pipe"),
		pkts:         make(map[int64]*packet),
		occ:          make(map[stagePipe]*occupancy),
		interval:     interval,
		pipes:        max(pipes, 1),
		sink:         sink,
	}
}

// Hook returns the trace function to pass as core.Config.Trace.
func (r *Recorder) Hook() func(core.Event) { return r.observe }

func (r *Recorder) observe(e core.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.advance(e.Cycle)
	r.events.Inc(e.Kind.String())
	switch e.Kind {
	case core.EvAdmit:
		r.cur.Admitted++
		// A packet admits once per pipeline pass; it is offered once.
		if r.pkts[e.PktID] == nil {
			r.pkts[e.PktID] = &packet{admit: e.Cycle}
			r.injected.Inc()
		}
	case core.EvResolve:
		r.cur.Resolves++
	case core.EvPhantom:
		// A placeholder counts only while its packet is live: one that
		// lands after its packet died is popped dead with no event, as
		// EvDrop retires those that landed earlier.
		if p := r.pkts[e.PktID]; p != nil {
			loc := stagePipe{e.Stage, e.Pipe}
			r.at(loc).phantom++
			p.phantoms = append(p.phantoms, loc)
		}
	case core.EvEnqueue:
		r.cur.Enqueues++
		loc := stagePipe{e.Stage, e.Pipe}
		o := r.at(loc)
		if o.data++; o.data > o.hi {
			o.hi = o.data
			r.depthMax.Set(float64(o.hi), fmt.Sprint(loc.stage), fmt.Sprint(loc.pipe))
		}
		p := r.pkts[e.PktID]
		if p == nil {
			break
		}
		p.queued, p.enq, p.enqCycle = true, loc, e.Cycle
		// The data packet fills its placeholder at this stage.
		for i, ph := range p.phantoms {
			if ph.stage == e.Stage {
				r.occ[ph].phantom--
				last := len(p.phantoms) - 1
				p.phantoms[i] = p.phantoms[last]
				p.phantoms = p.phantoms[:last]
				break
			}
		}
	case core.EvExec:
		r.cur.Execs++
		if p := r.pkts[e.PktID]; p != nil && p.queued && p.enq.stage == e.Stage {
			r.occ[p.enq].data--
			p.wait += e.Cycle - p.enqCycle
			p.queued = false
		}
	case core.EvSteer:
		r.cur.Steers++
		r.steers.Inc()
	case core.EvShardMove:
		r.cur.ShardMoves++
		r.shardMoves.Inc()
	case core.EvPhantomDrop:
		r.cur.PhantomDrops++
		r.phantomDrops.Inc()
	case core.EvEgress:
		r.cur.Egressed++
		r.completed.Inc()
		if p := r.pkts[e.PktID]; p != nil {
			delete(r.pkts, e.PktID)
			lat := e.Cycle - p.admit
			r.latencies = append(r.latencies, lat)
			r.sumWait += float64(p.wait)
			r.latency.Observe(float64(lat))
		}
	case core.EvDrop:
		cause := e.Cause.String()
		r.drops.Inc(cause)
		if r.cur.Drops == nil {
			r.cur.Drops = make(map[string]int64)
		}
		r.cur.Drops[cause]++
		p := r.pkts[e.PktID]
		if p == nil {
			// A drop of a never-admitted packet (ingress overflow)
			// still counts as offered load.
			r.injected.Inc()
		} else {
			r.dropped++
			delete(r.pkts, e.PktID)
			if p.queued {
				r.occ[p.enq].data--
			}
			// The simulator clears the placeholders still waiting for
			// this packet as dead phantoms.
			for _, ph := range p.phantoms {
				r.occ[ph].phantom--
			}
		}
	}
}

// at returns the occupancy of loc, creating it on first sight.
func (r *Recorder) at(loc stagePipe) *occupancy {
	o := r.occ[loc]
	if o == nil {
		o = &occupancy{}
		r.occ[loc] = o
	}
	return o
}

// advance emits every interval the stream has moved past before cycle —
// empty ones included, so the series has no gaps.
func (r *Recorder) advance(cycle int64) {
	if !r.started {
		r.started = true
		r.cur = Sample{Cycle: cycle - cycle%r.interval}
	}
	for cycle >= r.cur.Cycle+r.interval {
		r.flush()
		r.cur = Sample{Cycle: r.cur.Cycle + r.interval}
	}
}

func (r *Recorder) flush() {
	if r.sink == nil {
		return
	}
	s := r.cur
	s.Type, s.Interval = "sample", r.interval
	s.Tput = float64(s.Egressed) / float64(r.interval)
	s.CrossbarUtil = float64(s.Steers) / float64(r.interval*int64(r.pipes))
	s.FIFODepth = r.depths(func(o *occupancy) int { return o.data })
	s.PhantomDepth = r.depths(func(o *occupancy) int { return o.phantom })
	r.sink(s)
}

// depths renders one column of the occupancy table in (stage, pipe) order,
// omitting empty slots.
func (r *Recorder) depths(col func(*occupancy) int) []StageDepth {
	var out []StageDepth
	for loc, o := range r.occ {
		if d := col(o); d != 0 {
			out = append(out, StageDepth{Stage: loc.stage, Pipe: loc.pipe, Depth: d})
		}
	}
	// insertion sort: the slices are tiny (stages × pipes at most).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && (out[j].Stage < out[j-1].Stage ||
			out[j].Stage == out[j-1].Stage && out[j].Pipe < out[j-1].Pipe); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Close flushes the final (possibly partial) interval.
func (r *Recorder) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.started {
		r.flush()
		r.started = false
	}
}

// Live returns the number of packets still in flight (0 after a drained
// run).
func (r *Recorder) Live() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pkts)
}

// Summary computes the latency distribution of completed packets. The
// histogram uses unit-width buckets when the max latency fits 64Ki buckets
// (exact quantiles) and scales the width up beyond that.
func (r *Recorder) Summary() LatencySummary {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.latencies)
	s := LatencySummary{Completed: int64(n), Dropped: r.dropped}
	if n == 0 {
		return s
	}
	var sum, maxL int64
	for _, l := range r.latencies {
		sum += l
		maxL = max(maxL, l)
	}
	s.Mean = float64(sum) / float64(n)
	s.Max = maxL
	s.MeanQueueWait = r.sumWait / float64(n)
	s.MeanService = (float64(sum) - r.sumWait) / float64(n)
	h := stats.NewHistogram(0, float64(maxL)+1, min(int(maxL)+1, 1<<16))
	for _, l := range r.latencies {
		h.Add(float64(l))
	}
	q := func(p float64) int64 {
		v := h.Quantile(p)
		if math.IsNaN(v) {
			return 0
		}
		return min(int64(v), maxL)
	}
	s.P50, s.P90, s.P99 = q(0.5), q(0.9), q(0.99)
	return s
}

// Reconcile compares the event-derived counters against the simulator's
// Result and returns a list of mismatches (empty = exact agreement). Only
// meaningful when the hook saw the whole run on a non-nil registry.
func (r *Recorder) Reconcile(res *core.Result) []string {
	var bad []string
	check := func(name string, got, want int64) {
		if got != want {
			bad = append(bad, fmt.Sprintf("%s: events say %d, result says %d", name, got, want))
		}
	}
	check("injected", r.injected.Value(), res.Injected)
	check("completed", r.completed.Value(), res.Completed)
	check("dropped/data", r.drops.Value(core.CauseData.String()), res.DroppedData)
	check("dropped/insert", r.drops.Value(core.CauseInsert.String()), res.DroppedInsert)
	check("dropped/ingress", r.drops.Value(core.CauseIngress.String()), res.DroppedIngress)
	check("dropped/starved", r.drops.Value(core.CauseStarved.String()), res.DroppedStarved)
	check("phantom drops", r.phantomDrops.Value(), res.DroppedPhantom)
	check("shard moves", r.shardMoves.Value(), res.ShardMoves)
	check("conservation", r.completed.Value()+r.drops.Total(), r.injected.Value())
	return bad
}

// Tee fans one trace hook out to several consumers; nil hooks are skipped.
func Tee(hooks ...func(core.Event)) func(core.Event) {
	return func(e core.Event) {
		for _, h := range hooks {
			if h != nil {
				h(e)
			}
		}
	}
}
