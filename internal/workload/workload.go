// Package workload generates deterministic, seeded packet-arrival traces
// for the simulator: line-rate arrival processes, packet-size models (fixed
// 64 B worst case and the bimodal datacenter distribution), state-access
// patterns (uniform and skewed, §4.3.1), and heavy-tailed web-search flow
// workloads for the real-application experiments (§4.4).
package workload

import (
	"fmt"
	"math/rand"

	"mp5/internal/core"
	"mp5/internal/ir"
)

// Pattern selects the synthetic state-access pattern (§4.3.1).
type Pattern int

const (
	// Uniform: each register index is accessed by roughly the same
	// number of packets.
	Uniform Pattern = iota
	// Skewed: most packets (HotWeight) access a small fraction
	// (HotFraction) of the indices, uniformly within the hot set
	// (§4.3.1: "most packets (95%) access only a small fraction of
	// states (30%)"). Set ZipfS > 0 for an additionally heavy-tailed
	// hot set.
	Skewed
)

// String names the pattern.
func (p Pattern) String() string {
	if p == Uniform {
		return "uniform"
	}
	return "skewed"
}

// SizeModel selects the packet-size distribution.
type SizeModel int

const (
	// SizeFixed uses Spec.PacketSize for every packet (64 B stresses
	// the switch with the worst-case inter-arrival time).
	SizeFixed SizeModel = iota
	// SizeBimodal draws sizes clustered around 200 B and 1400 B, the
	// shape commonly observed in datacenters [Benson et al., IMC'10].
	SizeBimodal
)

// Defaults for the synthetic generator, matching §4.3.1.
const (
	DefaultHotFraction = 0.30
	DefaultHotWeight   = 0.95
	MinPacketSize      = 64
)

// Spec parameterizes a synthetic trace.
type Spec struct {
	// Packets is the trace length.
	Packets int
	// Pipelines is k: the line rate equals k minimum-size packets per
	// cycle, so a packet of S bytes advances time by S/(64k·Load).
	Pipelines int
	// Ports is the number of input ports packets are spread over.
	Ports int
	// Load is the offered load relative to line rate (default 1.0; the
	// paper's sensitivity experiments always offer line rate).
	Load float64
	// PacketSize is the fixed size for SizeFixed (default 64).
	PacketSize int
	// Sizes selects the size model.
	Sizes SizeModel
	// Pattern selects the access pattern for synthetic programs.
	Pattern Pattern
	// HotFraction / HotWeight tune the skewed pattern; ZipfS > 0
	// additionally skews picks within the hot set (0 = uniform,
	// the paper's two-level pattern).
	HotFraction float64
	HotWeight   float64
	ZipfS       float64
	// ChurnInterval, when positive, re-draws the hot set every that
	// many cycles, modelling flow churn; 0 keeps it fixed.
	ChurnInterval int64
	// StatelessFraction of packets perform no state accesses at all
	// (their access predicates resolve false), exercising stateless
	// prioritization; 0 disables.
	StatelessFraction float64
	// Seed makes the trace reproducible.
	Seed int64
}

func (s Spec) withDefaults() Spec {
	if s.Pipelines == 0 {
		s.Pipelines = core.DefaultPipelines
	}
	if s.Ports == 0 {
		s.Ports = core.DefaultPorts
	}
	if s.Load == 0 {
		s.Load = 1.0
	}
	if s.PacketSize == 0 {
		s.PacketSize = MinPacketSize
	}
	if s.HotFraction == 0 {
		s.HotFraction = DefaultHotFraction
	}
	if s.HotWeight == 0 {
		s.HotWeight = DefaultHotWeight
	}
	return s
}

// arrivalClock spaces packets at the offered load: a packet of size bytes
// advances virtual time by size/(64·k·load) cycles.
type arrivalClock struct {
	t       float64
	perByte float64
}

func newArrivalClock(k int, load float64) *arrivalClock {
	return &arrivalClock{perByte: 1.0 / (float64(MinPacketSize) * float64(k) * load)}
}

// next returns the arrival cycle for a packet of the given size and
// advances the clock.
func (c *arrivalClock) next(size int) int64 {
	cycle := int64(c.t)
	c.t += float64(size) * c.perByte
	return cycle
}

// indexSampler draws register indices under a Spec's pattern.
type indexSampler struct {
	spec     Spec
	size     int
	rng      *rand.Rand
	perm     []int
	hotCount int
	zipf     *rand.Zipf
	nextRot  int64
}

func newIndexSampler(spec Spec, size int, rng *rand.Rand) *indexSampler {
	s := &indexSampler{spec: spec, size: size, rng: rng}
	s.perm = rng.Perm(size)
	s.hotCount = int(float64(size) * spec.HotFraction)
	if s.hotCount < 1 {
		s.hotCount = 1
	}
	if s.hotCount > 1 && s.hotCount < size && spec.Pattern == Skewed && spec.ZipfS > 1 {
		s.zipf = rand.NewZipf(rng, spec.ZipfS, 1, uint64(s.hotCount-1))
	}
	if spec.ChurnInterval > 0 {
		s.nextRot = spec.ChurnInterval
	}
	return s
}

// maybeChurn re-permutes the hot set when the churn interval elapsed.
func (s *indexSampler) maybeChurn(cycle int64) {
	if s.spec.ChurnInterval <= 0 || cycle < s.nextRot {
		return
	}
	s.perm = s.rng.Perm(s.size)
	s.nextRot += s.spec.ChurnInterval
}

// draw returns one register index.
func (s *indexSampler) draw() int {
	if s.spec.Pattern == Uniform || s.hotCount >= s.size {
		return s.rng.Intn(s.size)
	}
	if s.rng.Float64() < s.spec.HotWeight {
		var r int
		if s.zipf != nil {
			r = int(s.zipf.Uint64())
		} else {
			r = s.rng.Intn(s.hotCount)
		}
		return s.perm[r]
	}
	return s.perm[s.hotCount+s.rng.Intn(s.size-s.hotCount)]
}

// drawSize returns one packet size under the spec's size model.
func drawSize(spec Spec, rng *rand.Rand) int {
	switch spec.Sizes {
	case SizeBimodal:
		// Clustered around 200 B and 1400 B (±25 B jitter), an even
		// split: the bimodal shape of datacenter traffic.
		base := 200
		if rng.Intn(2) == 1 {
			base = 1400
		}
		sz := base + rng.Intn(51) - 25
		if sz < MinPacketSize {
			sz = MinPacketSize
		}
		return sz
	default:
		return spec.PacketSize
	}
}

// Synthetic generates a trace for a synthetic program produced by
// apps.SyntheticSource: the program's fields h0..h{n-1} directly carry the
// register index each stateful stage will access (the program computes
// reg_i[h_i % size]). regSize must match the program's array size.
func Synthetic(prog *ir.Program, spec Spec, statefulStages, regSize int) []core.Arrival {
	spec = spec.withDefaults()
	rng := rand.New(rand.NewSource(spec.Seed))
	clock := newArrivalClock(spec.Pipelines, spec.Load)

	fieldIdx := make([]int, statefulStages)
	for i := range fieldIdx {
		fi := prog.FieldIndex(fmt.Sprintf("h%d", i))
		if fi < 0 {
			panic(fmt.Sprintf("workload: program lacks field h%d", i))
		}
		fieldIdx[i] = fi
	}
	statelessIdx := prog.FieldIndex("stateless")

	samplers := make([]*indexSampler, statefulStages)
	for i := range samplers {
		samplers[i] = newIndexSampler(spec, regSize, rand.New(rand.NewSource(spec.Seed+int64(i)+1)))
	}

	arr := make([]core.Arrival, spec.Packets)
	slab := make([]int64, len(arr)*len(prog.Fields))
	for i := range arr {
		size := drawSize(spec, rng)
		cycle := clock.next(size)
		fields := fieldRow(slab, i, len(prog.Fields))
		stateless := spec.StatelessFraction > 0 && rng.Float64() < spec.StatelessFraction
		if stateless && statelessIdx >= 0 {
			fields[statelessIdx] = 1
		}
		for s := range samplers {
			samplers[s].maybeChurn(cycle)
			fields[fieldIdx[s]] = int64(samplers[s].draw())
		}
		arr[i] = core.Arrival{
			Cycle:  cycle,
			Port:   rng.Intn(spec.Ports),
			Size:   size,
			Fields: fields,
		}
	}
	sortArrivals(arr)
	return arr
}

// RandomFields drives an arbitrary program with uniformly random header
// field values in [0, 1024) at the spec's offered load — useful for fuzzing
// user programs through mp5sim without a program-specific binder.
func RandomFields(prog *ir.Program, spec Spec) []core.Arrival {
	spec = spec.withDefaults()
	rng := rand.New(rand.NewSource(spec.Seed))
	clock := newArrivalClock(spec.Pipelines, spec.Load)
	arr := make([]core.Arrival, spec.Packets)
	slab := make([]int64, len(arr)*len(prog.Fields))
	for i := range arr {
		size := drawSize(spec, rng)
		fields := fieldRow(slab, i, len(prog.Fields))
		for j := range fields {
			fields[j] = int64(rng.Intn(1024))
		}
		arr[i] = core.Arrival{
			Cycle:  clock.next(size),
			Port:   rng.Intn(spec.Ports),
			Size:   size,
			Fields: fields,
		}
	}
	sortArrivals(arr)
	return arr
}

// fieldRow returns row i of width w in slab: a trace's fields are one
// allocation, and a capped row reallocates on append instead of overrunning.
func fieldRow(slab []int64, i, w int) []int64 {
	return slab[i*w : (i+1)*w : (i+1)*w]
}

// sortArrivals enforces the (cycle, port) order the simulator requires; the
// clock emits non-decreasing cycles, so only same-cycle port ties need
// fixing (stable insertion keeps packet ids meaningful).
func sortArrivals(arr []core.Arrival) {
	for i := 1; i < len(arr); i++ {
		j := i
		for j > 0 && arr[j-1].Cycle == arr[j].Cycle && arr[j-1].Port > arr[j].Port {
			arr[j-1], arr[j] = arr[j], arr[j-1]
			j--
		}
	}
}
