package workload

import (
	"math/rand"

	"mp5/internal/core"
	"mp5/internal/ir"
)

// Flow is one transport flow in a flow-level workload.
type Flow struct {
	// ID is a stable flow identifier.
	ID int64
	// SrcPort/DstPort form the flow key programs hash on.
	SrcPort int64
	DstPort int64
	// BytesLeft is the remaining flow size.
	BytesLeft int
	// Port is the switch input port the flow arrives on.
	Port int
}

// PktCtx describes one packet being emitted by the flow engine; binders
// translate it into program header fields.
type PktCtx struct {
	// ID is the packet's position in the trace.
	ID int64
	// Cycle is the arrival cycle.
	Cycle int64
	// Size is the packet size in bytes.
	Size int
	// Seq is the packet's index within its flow.
	Seq int
	// Rng gives binders deterministic per-trace randomness for
	// program-specific fields (e.g. CONGA's utilization samples).
	Rng *rand.Rand
}

// Binder fills a packet's header fields for a specific application program
// given the flow and packet context.
type Binder func(f *Flow, p *PktCtx, fields []int64)

// webSearchCDF approximates the DCTCP web-search flow-size distribution
// [Alizadeh et al., SIGCOMM'10] as used throughout the datacenter
// literature: heavy-tailed, with most flows small and most bytes in a few
// large flows. Sizes in bytes against cumulative probability.
var webSearchCDF = []struct {
	bytes int
	cum   float64
}{
	{1e3, 0.00},
	{2e3, 0.05},
	{3e3, 0.10},
	{5e3, 0.20},
	{7e3, 0.30},
	{10e3, 0.40},
	{15e3, 0.48},
	{30e3, 0.53},
	{50e3, 0.60},
	{80e3, 0.66},
	{200e3, 0.72},
	{1e6, 0.78},
	{2e6, 0.85},
	{5e6, 0.92},
	{10e6, 0.96},
	{30e6, 1.00},
}

// sampleWebSearchFlowSize draws a flow size (bytes) from the web-search
// distribution by inverse-transform sampling with log-linear interpolation
// between CDF knots.
func sampleWebSearchFlowSize(rng *rand.Rand) int {
	u := rng.Float64()
	prev := webSearchCDF[0]
	for _, pt := range webSearchCDF[1:] {
		if u <= pt.cum {
			span := pt.cum - prev.cum
			frac := 0.5
			if span > 0 {
				frac = (u - prev.cum) / span
			}
			size := float64(prev.bytes) + frac*float64(pt.bytes-prev.bytes)
			return int(size)
		}
		prev = pt
	}
	return webSearchCDF[len(webSearchCDF)-1].bytes
}

// FlowSpec parameterizes a flow-level application trace (§4.4: bimodal
// packet sizes, web-search flow sizes, line-rate arrivals).
type FlowSpec struct {
	// Packets is the trace length.
	Packets int
	// Pipelines is k (sets the line rate).
	Pipelines int
	// Ports is the number of switch ports.
	Ports int
	// Load is the offered load relative to line rate (default 1.0).
	Load float64
	// ActiveFlows is the number of concurrently active flows the engine
	// maintains (default 64); when a flow finishes, a new one starts.
	ActiveFlows int
	// Seed makes the trace reproducible.
	Seed int64
}

func (s FlowSpec) withDefaults() FlowSpec {
	if s.Pipelines == 0 {
		s.Pipelines = core.DefaultPipelines
	}
	if s.Ports == 0 {
		s.Ports = core.DefaultPorts
	}
	if s.Load == 0 {
		s.Load = 1.0
	}
	if s.ActiveFlows == 0 {
		s.ActiveFlows = 64
	}
	return s
}

// Flows generates an application trace: a pool of concurrently active
// web-search-sized flows emits bimodally-sized packets at line rate; the
// binder maps each packet onto the program's header fields.
func Flows(prog *ir.Program, spec FlowSpec, bind Binder) []core.Arrival {
	spec = spec.withDefaults()
	rng := rand.New(rand.NewSource(spec.Seed))
	clock := newArrivalClock(spec.Pipelines, spec.Load)

	nextFlowID := int64(0)
	newFlow := func() *Flow {
		f := &Flow{
			ID:        nextFlowID,
			SrcPort:   int64(1024 + rng.Intn(60000)),
			DstPort:   int64(1 + rng.Intn(1024)),
			BytesLeft: sampleWebSearchFlowSize(rng),
			Port:      rng.Intn(spec.Ports),
		}
		nextFlowID++
		return f
	}
	active := make([]*Flow, spec.ActiveFlows)
	seqs := make(map[int64]int, spec.ActiveFlows)
	for i := range active {
		active[i] = newFlow()
	}

	sizeSpec := Spec{Sizes: SizeBimodal}
	arr := make([]core.Arrival, spec.Packets)
	slab := make([]int64, len(arr)*len(prog.Fields))
	for i := range arr {
		fi := rng.Intn(len(active))
		f := active[fi]
		size := drawSize(sizeSpec, rng)
		if size > f.BytesLeft {
			size = f.BytesLeft
		}
		if size < MinPacketSize {
			size = MinPacketSize
		}
		cycle := clock.next(size)
		fields := fieldRow(slab, i, len(prog.Fields))
		ctx := &PktCtx{
			ID:    int64(i),
			Cycle: cycle,
			Size:  size,
			Seq:   seqs[f.ID],
			Rng:   rng,
		}
		bind(f, ctx, fields)
		arr[i] = core.Arrival{
			Cycle:  cycle,
			Port:   f.Port,
			Size:   size,
			Fields: fields,
		}
		seqs[f.ID]++
		f.BytesLeft -= size
		if f.BytesLeft <= 0 {
			delete(seqs, f.ID)
			active[fi] = newFlow()
		}
	}
	sortArrivals(arr)
	return arr
}
