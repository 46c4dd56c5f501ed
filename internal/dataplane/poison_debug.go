//go:build mp5debug

package dataplane

// poisonPacket clobbers a packet as it enters the free list so any code
// still holding a reference fails loudly instead of reading stale-but-
// plausible data: the id becomes -1 (no live packet's, so it stands out in
// any access log it leaks into), the visit plan — and with it every ticket —
// is emptied and its cursor set out of range, and fields/temps are filled
// with a sentinel that corrupts any output it leaks into — the differential
// oracles then flag the run.
//
// The rest of the env's frame is deliberately NOT poisoned: it holds the
// bytecode VM's scratch slots and the constant pools it copied in when it
// fitted the env, which legitimately survive recycling (see
// ir.Env.ResetFor).
func poisonPacket(p *packet) {
	const sentinel = int64(-0x6b6b6b6b6b6b6b6b) // 0x9494...95 — "freed" junk
	p.id = -1
	p.vi = -1
	p.nextStage = -1
	p.span = nil
	for i := range p.env.Fields {
		p.env.Fields[i] = sentinel
	}
	for i := range p.env.Temps {
		p.env.Temps[i] = sentinel
	}
	p.visits = p.visits[:0]
}

// poisonEnabled reports whether this build poisons recycled packets.
const poisonEnabled = true
