package sharding

import (
	"testing"
	"testing/quick"

	"mp5/internal/ir"
)

func prog2regs() *ir.Program {
	return &ir.Program{
		Fields: []string{"x"},
		Regs: []ir.RegInfo{
			{Name: "s", Size: 16, Sharded: true, Stage: 2},
			{Name: "p", Size: 8, Sharded: false, Stage: 3},
		},
	}
}

func TestInitialPolicies(t *testing.T) {
	p := prog2regs()
	rr := New(p, 4, PolicyRoundRobin, 1)
	for i := 0; i < 16; i++ {
		if rr.PipeOf(0, i) != i%4 {
			t.Fatalf("round robin broken at %d", i)
		}
	}
	// Unsharded array homes at stage mod k regardless of policy.
	if rr.PipeOf(1, 0) != 3%4 {
		t.Errorf("unsharded home = %d, want 3", rr.PipeOf(1, 0))
	}
	single := New(p, 4, PolicySinglePipe, 1)
	for i := 0; i < 16; i++ {
		if single.PipeOf(0, i) != 0 {
			t.Fatal("single-pipe policy leaked")
		}
	}
	if single.Sharded(0) {
		t.Error("single-pipe policy must unshard everything")
	}
	rnd := New(p, 4, PolicyRandom, 7)
	counts := map[int]int{}
	for i := 0; i < 16; i++ {
		pipe := rnd.PipeOf(0, i)
		if pipe < 0 || pipe >= 4 {
			t.Fatalf("random pipe %d out of range", pipe)
		}
		counts[pipe]++
	}
	if len(counts) < 2 {
		t.Error("random placement suspiciously degenerate")
	}
}

func TestCountersAndInflightGate(t *testing.T) {
	m := New(prog2regs(), 2, PolicyRoundRobin, 1)
	// Load index 1 heavily on its pipe, keep it in flight.
	for i := 0; i < 100; i++ {
		m.NoteResolved(0, 1)
	}
	for i := 0; i < 99; i++ {
		m.NoteDone(0, 1)
	}
	if m.Inflight(0, 1) != 1 {
		t.Fatalf("inflight = %d", m.Inflight(0, 1))
	}
	// Figure-6 wants to move something off pipe 1 (the hot one), but the
	// only loaded index is in flight and the rest have zero counters, so
	// no move may happen.
	moves := m.Remap()
	for _, mv := range moves {
		if mv.Idx == 1 && mv.Reg == 0 {
			t.Fatalf("moved an in-flight index: %+v", mv)
		}
	}
}

func TestRemapHeuristicBalances(t *testing.T) {
	m := New(prog2regs(), 2, PolicyRoundRobin, 1)
	// Indexes 0,2,4,6 on pipe 0; 1,3,5,7 on pipe 1 (round robin).
	// Load pipe 0 with 40 accesses spread over its indexes; pipe 1 zero.
	for _, idx := range []int{0, 2, 4, 6} {
		for i := 0; i < 10; i++ {
			m.NoteResolved(0, idx)
			m.NoteDone(0, idx)
		}
	}
	moves := m.Remap()
	if len(moves) != 1 {
		t.Fatalf("moves = %v, want exactly one per register per interval (Figure 6)", moves)
	}
	mv := moves[0]
	if mv.From != 0 || mv.To != 1 {
		t.Fatalf("move direction %+v, want hot→cold", mv)
	}
	// The moved index's counter (10) must be under C = (40-0)/2 = 20.
	if m.PipeOf(0, mv.Idx) != 1 {
		t.Error("map not updated")
	}
}

func TestRemapNoImbalanceNoMove(t *testing.T) {
	m := New(prog2regs(), 2, PolicyRoundRobin, 1)
	for idx := 0; idx < 16; idx++ {
		m.NoteResolved(0, idx)
		m.NoteDone(0, idx)
	}
	if moves := m.Remap(); len(moves) != 0 {
		t.Fatalf("balanced load still moved: %v", moves)
	}
}

func TestRemapLPTConverges(t *testing.T) {
	m := New(prog2regs(), 4, PolicySinglePipe, 1)
	_ = m
	// Single-pipe policy unshards; build a fresh map where everything
	// starts on pipe 0 via a skewed random... instead: round robin, then
	// overload one pipe artificially.
	m2 := New(prog2regs(), 4, PolicyRoundRobin, 1)
	// Heavy load on pipe 0's indexes only.
	for _, idx := range []int{0, 4, 8, 12} {
		for i := 0; i < 50; i++ {
			m2.NoteResolved(0, idx)
			m2.NoteDone(0, idx)
		}
	}
	moves := m2.RemapLPT()
	if len(moves) == 0 {
		t.Fatal("LPT made no moves under 4x imbalance")
	}
	// Counters were reset; judge from placements: each hot index carries
	// equal weight, so they should now be spread across pipes.
	hot := map[int]int{}
	for _, idx := range []int{0, 4, 8, 12} {
		hot[m2.PipeOf(0, idx)]++
	}
	if len(hot) < 3 {
		t.Errorf("hot indexes still clustered: %v", hot)
	}
}

func TestRemapLPTRespectsInflight(t *testing.T) {
	m := New(prog2regs(), 4, PolicyRoundRobin, 1)
	for i := 0; i < 100; i++ {
		m.NoteResolved(0, 0) // stays in flight
	}
	for _, mv := range m.RemapLPT() {
		if mv.Reg == 0 && mv.Idx == 0 {
			t.Fatalf("LPT moved in-flight index: %+v", mv)
		}
	}
	for i := 0; i < 100; i++ {
		m.NoteDone(0, 0)
	}
}

func TestUnshardedNeverMoves(t *testing.T) {
	m := New(prog2regs(), 4, PolicyRoundRobin, 1)
	for i := 0; i < 1000; i++ {
		m.NoteResolved(1, -1)
		m.NoteDone(1, -1)
	}
	for _, mv := range append(m.Remap(), m.RemapLPT()...) {
		if mv.Reg == 1 {
			t.Fatalf("unsharded array moved: %+v", mv)
		}
	}
}

func TestNoteDoneUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on underflow")
		}
	}()
	m := New(prog2regs(), 2, PolicyRoundRobin, 1)
	m.NoteDone(0, 0)
}

// TestInvariantOneActivePipePerIndex: after arbitrary remap sequences every
// index maps to exactly one valid pipeline (testing/quick over random load
// patterns).
func TestInvariantOneActivePipePerIndex(t *testing.T) {
	prop := func(loads []uint8, seed int64) bool {
		m := New(prog2regs(), 4, PolicyRandom, seed)
		for i, l := range loads {
			idx := i % 16
			for j := 0; j < int(l%32); j++ {
				m.NoteResolved(0, idx)
				m.NoteDone(0, idx)
			}
			if i%3 == 0 {
				m.Remap()
			} else if i%7 == 0 {
				m.RemapLPT()
			}
		}
		for idx := 0; idx < 16; idx++ {
			p := m.PipeOf(0, idx)
			if p < 0 || p >= 4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMovesCounter(t *testing.T) {
	m := New(prog2regs(), 2, PolicyRoundRobin, 1)
	for _, idx := range []int{0, 2, 4, 6} {
		for i := 0; i < 10; i++ {
			m.NoteResolved(0, idx)
			m.NoteDone(0, idx)
		}
	}
	n := len(m.Remap())
	if m.Moves() != int64(n) {
		t.Fatalf("Moves() = %d, want %d", m.Moves(), n)
	}
}

func TestPolicyStrings(t *testing.T) {
	for _, p := range []Policy{PolicyRoundRobin, PolicyRandom, PolicySinglePipe} {
		if p.String() == "" {
			t.Error("empty policy name")
		}
	}
}

func TestTopIndices(t *testing.T) {
	m := New(prog2regs(), 4, PolicyRoundRobin, 1)
	for i := 0; i < 7; i++ {
		m.NoteResolved(0, 3)
	}
	for i := 0; i < 2; i++ {
		m.NoteResolved(0, 9)
	}
	m.NoteResolved(0, 12)
	// Unsharded register: accesses aggregate into one Idx=-1 slot.
	for i := 0; i < 4; i++ {
		m.NoteResolved(1, i%8)
	}
	hot := m.TopIndices(3)
	if len(hot) != 3 {
		t.Fatalf("got %d entries, want 3", len(hot))
	}
	want := []HotIndex{
		{Reg: 0, Idx: 3, Pipe: 3, Count: 7},
		{Reg: 1, Idx: -1, Pipe: 3 % 4, Count: 4},
		{Reg: 0, Idx: 9, Pipe: 1, Count: 2},
	}
	for i, w := range want {
		if hot[i] != w {
			t.Errorf("entry %d = %+v, want %+v", i, hot[i], w)
		}
	}
	// Unlimited n returns every touched slot, still sorted.
	all := m.TopIndices(0)
	if len(all) != 4 {
		t.Fatalf("got %d entries, want 4", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].Count > all[i-1].Count {
			t.Fatal("not sorted by count")
		}
	}
}
