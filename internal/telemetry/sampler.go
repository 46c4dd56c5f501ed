package telemetry

import (
	"sync"

	"mp5/internal/core"
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

type stagePipe struct {
	stage, pipe int
}

// Sampler folds the event stream into per-interval Samples delivered to a
// sink callback. It is a pure trace consumer: attach its Hook via
// core.Config.Trace (combine with other consumers through Tee) and call
// Close after the run to flush the final partial interval. Events from
// concurrent emitters serialize on an internal mutex (the interval folding
// itself still assumes nondecreasing cycle order, so concurrent emitters
// should share a clock or use cycle 0 throughout).
type Sampler struct {
	mu       sync.Mutex
	interval int64
	pipes    int
	sink     func(Sample)

	started bool
	start   int64 // first cycle of the current interval
	cur     Sample

	// Occupancy reconstruction: a data enqueue occupies its (stage,
	// pipe) until the packet executes that stage; a phantom occupies its
	// slot until the data packet lands in it (enqueue) or the packet
	// dies (drop).
	dataOcc    map[stagePipe]int
	phantomOcc map[stagePipe]int
	enqLoc     map[int64]stagePipe
	phantomAt  map[int64][]stagePipe
}

// NewSampler builds a sampler emitting one Sample per interval cycles to
// sink. pipes sizes the crossbar-utilization normalization.
func NewSampler(interval int64, pipes int, sink func(Sample)) *Sampler {
	if interval <= 0 {
		panic("telemetry: sampler interval must be positive")
	}
	if pipes <= 0 {
		pipes = 1
	}
	return &Sampler{
		interval:   interval,
		pipes:      pipes,
		sink:       sink,
		dataOcc:    make(map[stagePipe]int),
		phantomOcc: make(map[stagePipe]int),
		enqLoc:     make(map[int64]stagePipe),
		phantomAt:  make(map[int64][]stagePipe),
	}
}

// Hook returns the trace function to pass as core.Config.Trace.
func (s *Sampler) Hook() func(core.Event) {
	return func(e core.Event) { s.observe(e) }
}

func (s *Sampler) observe(e core.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.started {
		s.started = true
		s.start = e.Cycle - e.Cycle%s.interval
		s.resetCur()
	}
	// Events arrive in nondecreasing cycle order; emit every interval
	// the stream has moved past (including empty ones, so the series
	// has no gaps).
	for e.Cycle >= s.start+s.interval {
		s.flush()
		s.start += s.interval
		s.resetCur()
	}
	switch e.Kind {
	case core.EvAdmit:
		s.cur.Admitted++
	case core.EvResolve:
		s.cur.Resolves++
	case core.EvExec:
		s.cur.Execs++
		if loc, ok := s.enqLoc[e.PktID]; ok && loc.stage == e.Stage {
			s.dataOcc[loc]--
			if s.dataOcc[loc] == 0 {
				delete(s.dataOcc, loc)
			}
			delete(s.enqLoc, e.PktID)
		}
	case core.EvEnqueue:
		s.cur.Enqueues++
		loc := stagePipe{e.Stage, e.Pipe}
		s.dataOcc[loc]++
		s.enqLoc[e.PktID] = loc
		s.releasePhantom(e.PktID, e.Stage)
	case core.EvPhantom:
		loc := stagePipe{e.Stage, e.Pipe}
		s.phantomOcc[loc]++
		s.phantomAt[e.PktID] = append(s.phantomAt[e.PktID], loc)
	case core.EvSteer:
		s.cur.Steers++
	case core.EvEgress:
		s.cur.Egressed++
	case core.EvDrop:
		if s.cur.Drops == nil {
			s.cur.Drops = make(map[string]int64)
		}
		s.cur.Drops[e.Cause.String()]++
		if loc, ok := s.enqLoc[e.PktID]; ok {
			s.dataOcc[loc]--
			if s.dataOcc[loc] == 0 {
				delete(s.dataOcc, loc)
			}
			delete(s.enqLoc, e.PktID)
		}
		// Any placeholders still waiting for this packet will be
		// cleared as dead phantoms by the simulator.
		for _, loc := range s.phantomAt[e.PktID] {
			s.phantomOcc[loc]--
			if s.phantomOcc[loc] == 0 {
				delete(s.phantomOcc, loc)
			}
		}
		delete(s.phantomAt, e.PktID)
	case core.EvPhantomDrop:
		s.cur.PhantomDrops++
	case core.EvShardMove:
		s.cur.ShardMoves++
	}
}

// releasePhantom retires the placeholder the data packet just filled.
func (s *Sampler) releasePhantom(pktID int64, stage int) {
	locs := s.phantomAt[pktID]
	for i, loc := range locs {
		if loc.stage != stage {
			continue
		}
		s.phantomOcc[loc]--
		if s.phantomOcc[loc] == 0 {
			delete(s.phantomOcc, loc)
		}
		locs[i] = locs[len(locs)-1]
		locs = locs[:len(locs)-1]
		if len(locs) == 0 {
			delete(s.phantomAt, pktID)
		} else {
			s.phantomAt[pktID] = locs
		}
		return
	}
}

func (s *Sampler) resetCur() {
	s.cur = Sample{Type: "sample", Cycle: s.start, Interval: s.interval}
}

func (s *Sampler) flush() {
	if s.sink == nil {
		return
	}
	s.cur.Tput = float64(s.cur.Egressed) / float64(s.interval)
	s.cur.CrossbarUtil = float64(s.cur.Steers) / float64(s.interval*int64(s.pipes))
	s.cur.FIFODepth = depthSlice(s.dataOcc)
	s.cur.PhantomDepth = depthSlice(s.phantomOcc)
	s.sink(s.cur)
}

// depthSlice renders an occupancy map as a deterministic slice.
func depthSlice(m map[stagePipe]int) []StageDepth {
	if len(m) == 0 {
		return nil
	}
	out := make([]StageDepth, 0, len(m))
	for loc, d := range m {
		out = append(out, StageDepth{Stage: loc.stage, Pipe: loc.pipe, Depth: d})
	}
	sortDepths(out)
	return out
}

func sortDepths(ds []StageDepth) {
	// insertion sort: the slices are tiny (stages × pipes at most).
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && less(ds[j], ds[j-1]); j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
}

func less(a, b StageDepth) bool {
	if a.Stage != b.Stage {
		return a.Stage < b.Stage
	}
	return a.Pipe < b.Pipe
}

// Close flushes the final (possibly partial) interval.
func (s *Sampler) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		s.flush()
		s.started = false
	}
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
