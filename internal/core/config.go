package core

import (
	"fmt"

	"mp5/internal/sharding"
)

// Arch selects the switch architecture to simulate.
type Arch int

const (
	// ArchMP5 is the full design: D1 homogeneity, D2 dynamic sharding,
	// D3 crossbar steering, D4 phantom-packet order enforcement.
	ArchMP5 Arch = iota
	// ArchMP5NoD4 is MP5 without preemptive order enforcement: packets
	// steer to sharded state and queue in arrival-timestamped FIFOs, but
	// nothing holds a place for delayed packets, so C1 can be violated
	// (the §4.3.2 D4 ablation).
	ArchMP5NoD4
	// ArchIdeal removes MP5's practical limitations (§3.5.2): no
	// head-of-line blocking (per-index order enforcement instead of one
	// logical FIFO) and LPT bin-packing instead of the Figure-6
	// heuristic. The sensitivity figures' upper-bound baseline.
	ArchIdeal
	// ArchNaive maps every register and every stateful packet to
	// pipeline 0 (the shared-memory strawman in D1's discussion);
	// correctness is preserved, parallelism is not.
	ArchNaive
	// ArchStaticShard is MP5 with the index-to-pipeline map frozen at
	// its random initial assignment (the §4.3.2 D2 ablation).
	ArchStaticShard
	// ArchRecirc models today's multi-pipeline switches (§2.3): static
	// port-to-pipeline mapping, statically sharded state, and packet
	// re-circulation through the whole pipeline to reach remote state.
	ArchRecirc
)

// String names the architecture.
func (a Arch) String() string {
	switch a {
	case ArchMP5:
		return "mp5"
	case ArchMP5NoD4:
		return "mp5-nod4"
	case ArchIdeal:
		return "ideal"
	case ArchNaive:
		return "naive"
	case ArchStaticShard:
		return "static-shard"
	case ArchRecirc:
		return "recirculation"
	}
	return fmt.Sprintf("arch(%d)", int(a))
}

// Defaults matching the paper's simulator configuration (§4.3.1).
const (
	DefaultPorts         = 64
	DefaultPipelines     = 4
	DefaultRemapInterval = 100
	DefaultRecircDelay   = 1
)

// Config parameterizes a simulation.
type Config struct {
	// Arch is the architecture variant (default ArchMP5).
	Arch Arch
	// Pipelines is k, the number of parallel pipelines.
	Pipelines int
	// Ports is N, the number of input ports (used for the static
	// port-to-pipeline mapping of the recirculation baseline).
	Ports int
	// FIFOCap bounds each per-stage sub-FIFO (entries); 0 means
	// unbounded, the paper's adaptive sizing that avoids drops.
	FIFOCap int
	// RemapInterval is the dynamic-sharding period in cycles
	// (default 100, per §4.3.1).
	RemapInterval int64
	// Seed drives the initial random sharding assignment.
	Seed int64
	// RecircDelay is the extra latency (cycles) of re-entering a
	// pipeline input beyond draining the current pipeline.
	RecircDelay int64
	// RecircIngressCap bounds each pipeline's ingress buffer in the
	// recirculation baseline (today's switches drop on ingress overflow
	// rather than queueing without bound); 0 uses the default of 64.
	// Set negative for an unbounded ingress.
	RecircIngressCap int
	// StarveThreshold, when positive, drops an incoming stateless
	// packet in favour of a queued stateful packet whose head-of-FIFO
	// wait exceeds the threshold (§3.4, handling starvation).
	StarveThreshold int64
	// ECNThreshold, when positive, marks a data packet entering a
	// stage FIFO whose occupancy exceeds the threshold — the §3.4
	// congestion-notification suggestion for back-pressuring senders
	// before pipeline FIFOs overflow.
	ECNThreshold int
	// CrossLatency adds extra cycles to every inter-pipeline crossing
	// (data steering and the phantom channel alike), modelling the
	// chiplet-boundary links of §3.5.3's disaggregated-digital-logic
	// discussion. Data packets that outrun their (slower-path) phantom
	// park in the crossbar buffer until the placeholder lands, so C1
	// is preserved at any latency. 0 models a single die.
	CrossLatency int64
	// RecordAccessOrder logs the per-slot effective access order — the
	// packets whose predicate held on each clamped register index, each
	// once per stage execution, the order banzai.Machine logs for the
	// reference — which AccessOrders returns for the C1 verdict and
	// Result.C1Violating counts.
	RecordAccessOrder bool
	// RecordOutputs retains each packet's final header fields for
	// functional-equivalence checking.
	RecordOutputs bool
	// Trace, when non-nil, receives every simulator event (admissions,
	// stage executions, steering, queueing, egress, drops) in
	// deterministic order — the hook behind mp5sim -trace and the
	// engine-invariant tests.
	Trace func(Event)
}

func (c Config) withDefaults() Config {
	if c.Pipelines == 0 {
		c.Pipelines = DefaultPipelines
	}
	if c.Ports == 0 {
		c.Ports = DefaultPorts
	}
	if c.RemapInterval == 0 {
		c.RemapInterval = DefaultRemapInterval
	}
	if c.RecircDelay == 0 {
		c.RecircDelay = DefaultRecircDelay
	}
	switch {
	case c.RecircIngressCap == 0:
		c.RecircIngressCap = 64
	case c.RecircIngressCap < 0:
		c.RecircIngressCap = 0 // unbounded
	}
	return c
}

// shardPolicy is the architecture's initial index placement: single-pipe
// for naive, random for the static and recirculation baselines,
// round-robin for MP5 and ideal.
func (c Config) shardPolicy() sharding.Policy {
	switch c.Arch {
	case ArchNaive:
		return sharding.PolicySinglePipe
	case ArchStaticShard, ArchRecirc:
		return sharding.PolicyRandom
	}
	return sharding.PolicyRoundRobin
}

// dynamicSharding reports whether the architecture re-runs the remap
// algorithm during the run.
func (c Config) dynamicSharding() bool {
	switch c.Arch {
	case ArchMP5, ArchMP5NoD4, ArchIdeal:
		return true
	}
	return false
}

// Result summarizes one simulation run.
type Result struct {
	Arch      Arch
	Pipelines int

	// Injected counts offered packets; Completed counts packets that
	// egressed; the drop counters split the difference.
	Injected        int64
	Completed       int64
	DroppedData     int64
	DroppedPhantom  int64
	DroppedInsert   int64
	DroppedIngress  int64
	DroppedStarved  int64
	Recirculations  int64
	ShardMoves      int64
	WastedVisits    int64 // conservative-phantom visits whose predicate was false
	DeadPhantomPops int64
	MarkedECN       int64 // packets congestion-marked at FIFO entry
	ParkedEarly     int64 // data packets that beat their phantom and parked (CrossLatency > 0)

	// Timing (cycles).
	FirstArrival int64
	LastArrival  int64
	FirstDone    int64
	LastDone     int64
	Cycles       int64
	Stalled      bool

	// Queueing.
	MaxFIFODepth    int
	MaxFIFOPerStage []int
	MaxIngressDepth int

	// Latency (cycles from arrival to egress, completed packets only).
	MeanLatency float64
	MaxLatency  int64
	P99Latency  int64

	// Ordering.
	C1Violating       int64   // packets that overtook an earlier arrival on a shared state
	ViolationFraction float64 // C1Violating / Completed
	Reordered         int64   // packets egressing after a later-arriving packet egressed

	// Throughput is the achieved packet rate normalized to the offered
	// rate (1.0 = line rate sustained).
	Throughput float64
}

// PacketDrops totals the packet-death counters: exactly the packets that
// were injected but never completed (phantom drops are placeholder losses,
// not packet deaths — the affected data packet is counted in DroppedInsert
// when it later finds no placeholder).
func (r *Result) PacketDrops() int64 {
	return r.DroppedData + r.DroppedInsert + r.DroppedIngress + r.DroppedStarved
}

// String renders the headline numbers. The drops total sums every drop
// counter, ingress overflows and phantom losses included.
func (r *Result) String() string {
	return fmt.Sprintf("%s k=%d: tput=%.3f completed=%d/%d drops=%d maxq=%d viol=%.1f%% recircs=%d",
		r.Arch, r.Pipelines, r.Throughput, r.Completed, r.Injected,
		r.PacketDrops()+r.DroppedPhantom, r.MaxFIFODepth,
		100*r.ViolationFraction, r.Recirculations)
}
