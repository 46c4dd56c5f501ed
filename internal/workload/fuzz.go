package workload

import (
	"math/rand"

	"mp5/internal/core"
	"mp5/internal/ir"
)

// FuzzSpec parameterizes the randomized traces the differential fuzzing
// harness drives generated programs with. It layers three ordering hazards
// on top of Spec's arrival process and skew model: a bounded value domain
// (so data-dependent indices collide), packet bursts (back-to-back clones
// hammering the same state), and interleaved flows (recurring field
// templates revisiting the same indices from different ports).
type FuzzSpec struct {
	Spec
	// Domain bounds header-field values to [0, Domain); small domains
	// force index collisions and therefore ordering pressure (default
	// 1024).
	Domain int
	// Flows, when positive, draws each packet from one of this many
	// sticky field templates (a flow); fields mix the flow's base values
	// with fresh draws, so flows interleave on shared state.
	Flows int
	// BurstProb is the per-packet probability of starting a burst:
	// up to BurstLen-1 follow-up packets replay the same field vector at
	// consecutive arrivals (0 disables).
	BurstProb float64
	// BurstLen caps a burst's length (including its head packet).
	BurstLen int
}

func (fs FuzzSpec) withDefaults() FuzzSpec {
	fs.Spec = fs.Spec.withDefaults()
	if fs.Domain <= 0 {
		fs.Domain = 1024
	}
	return fs
}

// FuzzTrace generates a randomized arrival trace for an arbitrary compiled
// program: every header field is drawn from the spec's (possibly skewed)
// distribution over [0, Domain), shaped by flows and bursts. The trace is
// deterministic in the seed and sorted in the simulator's required
// (cycle, port) order.
func FuzzTrace(prog *ir.Program, fs FuzzSpec) []core.Arrival {
	fs = fs.withDefaults()
	spec := fs.Spec
	rng := rand.New(rand.NewSource(spec.Seed))
	clock := newArrivalClock(spec.Pipelines, spec.Load)
	// The index sampler doubles as the field-value sampler: skew over the
	// value domain translates into skew over every data-dependent index
	// the program computes from those fields.
	sampler := newIndexSampler(spec, fs.Domain, rand.New(rand.NewSource(spec.Seed+1)))

	var flows [][]int64
	if fs.Flows > 0 {
		flows = make([][]int64, fs.Flows)
		for i := range flows {
			base := make([]int64, len(prog.Fields))
			for j := range base {
				base[j] = int64(sampler.draw())
			}
			flows[i] = base
		}
	}

	arr := make([]core.Arrival, spec.Packets)
	slab := make([]int64, len(arr)*len(prog.Fields))
	burst := 0
	var burstFields []int64
	for i := range arr {
		size := drawSize(spec, rng)
		cycle := clock.next(size)
		sampler.maybeChurn(cycle)
		fields := fieldRow(slab, i, len(prog.Fields))
		if burst > 0 {
			copy(fields, burstFields)
			burst--
		} else {
			var base []int64
			if flows != nil {
				base = flows[rng.Intn(len(flows))]
			}
			for j := range fields {
				if base != nil && rng.Intn(2) == 0 {
					fields[j] = base[j]
				} else {
					fields[j] = int64(sampler.draw())
				}
			}
			if fs.BurstLen > 1 && fs.BurstProb > 0 && rng.Float64() < fs.BurstProb {
				burst = rng.Intn(fs.BurstLen-1) + 1
				burstFields = fields
			}
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
