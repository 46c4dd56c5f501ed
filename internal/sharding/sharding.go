// Package sharding implements MP5's dynamically sharded shared memory (D2):
// the index-to-pipeline map, the per-index access and in-flight counters,
// the Figure-6 remap heuristic, and the LPT rebalancer used by the paper's
// "ideal" baseline (optimal bin packing stand-in).
package sharding

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"mp5/internal/ir"
)

// Policy selects the initial index-to-pipeline assignment.
type Policy int

const (
	// PolicyRoundRobin assigns index i of every sharded array to
	// pipeline i mod k.
	PolicyRoundRobin Policy = iota
	// PolicyRandom assigns each index to a uniformly random pipeline
	// (the paper's static-sharding baseline: "sharded randomly across
	// pipelines at compile time").
	PolicyRandom
	// PolicySinglePipe homes every index and every array in pipeline 0
	// (the naive all-state-in-one-pipeline design from D1).
	PolicySinglePipe
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyRoundRobin:
		return "round-robin"
	case PolicyRandom:
		return "random"
	case PolicySinglePipe:
		return "single-pipe"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Move records one register-entry migration between pipelines. The caller
// copies the register value from From to To when applying the move.
type Move struct {
	Reg  int
	Idx  int
	From int
	To   int
}

// Window counts one sharded register array's resolutions over one remap
// window (§3.4) and picks that window's Figure-6 migration. count[i] counts
// index i, agg[p] sums the counts of pipeline p's indices, and hot lists the
// indices counted, so a remap reads and resets only what the window touched.
// The simulator's Map keeps one per sharded array (the dataplane engine's
// placement is static); a Window is not safe for concurrent use.
type Window struct {
	count []int64
	hot   []int
	agg   []int64
}

// NewWindow returns an empty window for an array of size indices spread over
// k pipelines.
func NewWindow(size, k int) Window {
	return Window{count: make([]int64, size), agg: make([]int64, k)}
}

// Touch counts one resolution of index idx, whose live copy is in pipeline
// owner. The owner must not change before the window's next Pick or Reset.
func (w *Window) Touch(idx, owner int) {
	if w.count[idx] == 0 {
		w.hot = append(w.hot, idx)
	}
	w.count[idx]++
	w.agg[owner]++
}

// Reset clears the window.
func (w *Window) Reset() {
	for _, i := range w.hot {
		w.count[i] = 0
	}
	w.hot = w.hot[:0]
	clear(w.agg)
}

// Pick runs Figure 6 over the window and resets it: find the pipelines H and
// L with the highest and lowest aggregate counts (the lowest pipeline on a
// tie), let C be half their gap, and choose the index on H with the largest
// count below C (the lowest index on a tie) among those quiescent accepts —
// the paper's in-flight gate. It reports the index and the move H→L, or
// ok == false when no index qualifies. owner[i] is index i's pipeline; Pick
// does not change it. quiescent is asked only about candidates that would
// improve on the best so far.
func (w *Window) Pick(owner []int, quiescent func(int) bool) (idx, from, to int, ok bool) {
	h, l := 0, 0
	for p := 1; p < len(w.agg); p++ {
		if w.agg[p] > w.agg[h] {
			h = p
		}
		if w.agg[p] < w.agg[l] {
			l = p
		}
	}
	c := (w.agg[h] - w.agg[l]) / 2 // 0 when there is no gap: no candidate
	best, bestN := -1, int64(0)
	for _, i := range w.hot {
		n := w.count[i] // never 0 for a listed index
		w.count[i] = 0
		if owner[i] == h && n < c && (n > bestN || n == bestN && i < best) && quiescent(i) {
			best, bestN = i, n
		}
	}
	w.hot = w.hot[:0]
	clear(w.agg)
	return best, h, l, best >= 0
}

// regShard is the runtime state of one register array.
type regShard struct {
	sharded bool
	size    int
	// pipeOf[i] is the pipeline whose copy of index i is active.
	// Unsharded arrays use pipeOf[0] as the whole-array home.
	pipeOf []int
	// win counts a sharded array's resolutions since the last remap (§3.4).
	win Window
	// total[i] counts resolutions over the whole run (never reset) —
	// the source for hot-index telemetry reports.
	total []int64
	// ewma[i] smooths access counts across remap windows; the LPT
	// rebalancer uses it so single-window noise does not cause
	// pointless mass migrations.
	ewma []float64
	// inflight[i] counts packets resolved to index i that have not yet
	// performed the access; a remap may only move index i when zero.
	inflight []int64
}

func (r *regShard) slot(idx int) int {
	if !r.sharded {
		return 0
	}
	if idx < 0 || idx >= r.size {
		panic(fmt.Sprintf("sharding: index %d out of range [0,%d)", idx, r.size))
	}
	return idx
}

// Map is the index-to-pipeline map for one program instance. The paper
// replicates it read-only in every pipeline and updates it atomically from
// the background remap process; a single authoritative copy models that
// exactly in a simulator.
type Map struct {
	k     int
	regs  []regShard
	moves int64
	// moveBuf backs the slice Remap and RemapLPT return; New sizes it for
	// Remap's at most one move per array.
	moveBuf []Move
}

// Home is the pipeline an unsharded array lives in over k pipelines: stage
// mod k, so arrays sharing a stage share a pipeline (one packet may access
// them in one stage visit) while pinned state spreads across pipelines; 0
// for an array with no stage.
func Home(info *ir.RegInfo, k int) int {
	if info.Stage < 0 {
		return 0
	}
	return info.Stage % k
}

// New builds the map for program p over k pipelines. Unsharded arrays live
// in their Home pipeline. seed drives PolicyRandom.
func New(p *ir.Program, k int, policy Policy, seed int64) *Map {
	if k <= 0 {
		panic("sharding: need at least one pipeline")
	}
	rng := rand.New(rand.NewSource(seed))
	m := &Map{k: k, regs: make([]regShard, len(p.Regs)), moveBuf: make([]Move, 0, len(p.Regs))}
	for i := range p.Regs {
		info := &p.Regs[i]
		rs := &m.regs[i]
		rs.sharded = info.Sharded && policy != PolicySinglePipe
		rs.size = info.Size
		n := 1
		if rs.sharded {
			n = info.Size
		}
		rs.pipeOf = make([]int, n)
		if rs.sharded {
			rs.win = NewWindow(n, k)
		}
		rs.total = make([]int64, n)
		rs.ewma = make([]float64, n)
		rs.inflight = make([]int64, n)
		switch {
		case policy == PolicySinglePipe:
			// all zeros
		case rs.sharded && policy == PolicyRandom:
			for j := range rs.pipeOf {
				rs.pipeOf[j] = rng.Intn(k)
			}
		case rs.sharded: // round robin
			for j := range rs.pipeOf {
				rs.pipeOf[j] = j % k
			}
		default:
			rs.pipeOf[0] = Home(info, k)
		}
	}
	return m
}

// K returns the number of pipelines.
func (m *Map) K() int { return m.k }

// Sharded reports whether register array reg is sharded per-index.
func (m *Map) Sharded(reg int) bool { return m.regs[reg].sharded }

// PipeOf returns the pipeline holding the active copy of reg[idx].
// For unsharded arrays idx is ignored.
func (m *Map) PipeOf(reg, idx int) int {
	rs := &m.regs[reg]
	return rs.pipeOf[rs.slot(idx)]
}

// NoteResolved records that a packet has been resolved to access reg[idx]:
// it bumps the access counter (of a sharded array) and the in-flight counter.
func (m *Map) NoteResolved(reg, idx int) {
	rs := &m.regs[reg]
	s := rs.slot(idx)
	if rs.sharded {
		rs.win.Touch(s, rs.pipeOf[s])
	}
	rs.total[s]++
	rs.inflight[s]++
}

// NoteDone records that a resolved packet has performed (or abandoned, for
// drops) its access to reg[idx].
func (m *Map) NoteDone(reg, idx int) {
	rs := &m.regs[reg]
	s := rs.slot(idx)
	if rs.inflight[s] <= 0 {
		panic("sharding: in-flight counter underflow")
	}
	rs.inflight[s]--
}

// Inflight returns the current in-flight count for reg[idx].
func (m *Map) Inflight(reg, idx int) int64 {
	rs := &m.regs[reg]
	return rs.inflight[rs.slot(idx)]
}

// Moves returns the total number of entry migrations applied so far.
func (m *Map) Moves() int64 { return m.moves }

// Remap runs one iteration of the paper's Figure-6 heuristic (Window.Pick)
// for every sharded register array, moving only indices with zero in-flight
// packets, and resets the access counters. It returns the moves to apply;
// the caller must copy register values accordingly (the map is already
// updated). The slice is valid until the next Remap or RemapLPT.
func (m *Map) Remap() []Move {
	moves := m.moveBuf[:0]
	for reg := range m.regs {
		rs := &m.regs[reg]
		if !rs.sharded {
			continue
		}
		if idx, from, to, ok := rs.win.Pick(rs.pipeOf, func(i int) bool { return rs.inflight[i] == 0 }); ok {
			rs.pipeOf[idx] = to
			m.moves++
			moves = append(moves, Move{Reg: reg, Idx: idx, From: from, To: to})
		}
	}
	m.moveBuf = moves
	return moves
}

// RemapLPT rebalances every sharded array towards the bin-packing optimum,
// the stand-in for the paper's "optimal bin packing for dynamic state
// sharding" in the ideal baseline. It iterates best-fit moves from the
// heaviest to the lightest pipeline until the load gap closes (within the
// sampling noise of the measurement window), working on EWMA-smoothed
// access counts. The incremental form is deliberately sticky: unlike a
// from-scratch re-pack it never migrates state that is not part of the
// imbalance, so measurement noise cannot thrash placements. Indexes with
// in-flight packets stay put. Access counters reset afterwards. The slice
// is valid until the next Remap or RemapLPT.
func (m *Map) RemapLPT() []Move {
	moves := m.moveBuf[:0]
	for reg := range m.regs {
		rs := &m.regs[reg]
		if !rs.sharded {
			continue
		}
		var total float64
		for i := range rs.ewma {
			rs.ewma[i] = 0.5*rs.ewma[i] + float64(rs.win.count[i])
			total += rs.ewma[i]
		}
		if total > 0 {
			mean := total / float64(m.k)
			// Stop once the heaviest-lightest gap is within the
			// window's sampling noise.
			margin := 0.05 * mean
			if noise := 2 * math.Sqrt(mean); noise > margin {
				margin = noise
			}
			load := make([]float64, m.k)
			for i, pipe := range rs.pipeOf {
				load[pipe] += rs.ewma[i]
			}
			for step := 0; step < rs.size; step++ {
				h, l := 0, 0
				for p := 1; p < m.k; p++ {
					if load[p] > load[h] {
						h = p
					}
					if load[p] < load[l] {
						l = p
					}
				}
				gap := load[h] - load[l]
				if gap <= margin {
					break
				}
				// Best fit: the movable index on h whose load
				// is closest to half the gap (and below it, so
				// the move strictly shrinks the gap).
				best, bestGain := -1, 0.0
				for i, pipe := range rs.pipeOf {
					if pipe != h || rs.inflight[i] != 0 {
						continue
					}
					e := rs.ewma[i]
					if e <= 0 || e >= gap {
						continue
					}
					gain := e
					if e > gap/2 {
						gain = gap - e
					}
					if gain > bestGain {
						best, bestGain = i, gain
					}
				}
				if best < 0 {
					break
				}
				rs.pipeOf[best] = l
				load[h] -= rs.ewma[best]
				load[l] += rs.ewma[best]
				m.moves++
				moves = append(moves, Move{Reg: reg, Idx: best, From: h, To: l})
			}
		}
		rs.win.Reset()
	}
	m.moveBuf = moves
	return moves
}

// HotIndex is one entry of the hot-key report: a register index, its
// current home pipeline, and its cumulative resolution count.
type HotIndex struct {
	Reg   int
	Idx   int
	Pipe  int
	Count int64
}

// TopIndices returns the n most-resolved (register, index) slots across
// every array, hottest first (ties broken by register then index, so the
// report is deterministic). Unsharded arrays report as a single slot with
// Idx -1. Slots never resolved are omitted.
func (m *Map) TopIndices(n int) []HotIndex {
	var all []HotIndex
	for reg := range m.regs {
		rs := &m.regs[reg]
		if !rs.sharded {
			var sum int64
			for _, c := range rs.total {
				sum += c
			}
			if sum > 0 {
				all = append(all, HotIndex{Reg: reg, Idx: -1, Pipe: rs.pipeOf[0], Count: sum})
			}
			continue
		}
		for i, c := range rs.total {
			if c == 0 {
				continue
			}
			all = append(all, HotIndex{Reg: reg, Idx: i, Pipe: rs.pipeOf[i], Count: c})
		}
	}
	sort.Slice(all, func(a, b int) bool {
		x, y := all[a], all[b]
		if x.Count != y.Count {
			return x.Count > y.Count
		}
		if x.Reg != y.Reg {
			return x.Reg < y.Reg
		}
		return x.Idx < y.Idx
	})
	if n > 0 && len(all) > n {
		all = all[:n]
	}
	return all
}
