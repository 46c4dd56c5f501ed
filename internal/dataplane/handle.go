package dataplane

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"mp5/internal/banzai"
	"mp5/internal/ir"
	"mp5/internal/ir/bytecode"
	"mp5/internal/sharding"
)

// Quota is a tenant-level admission token counter layered in front of the
// engine's (shared) window semaphore: the admitter takes quota tokens
// non-blocking *before* it blocks on the window, so a tenant that exhausted
// its quota sheds instead of stalling the serial admit loop — the
// noisy-neighbor isolation point. A Quota outlives any one program version:
// hot swap moves a tenant to a new Handle while in-flight packets of the old
// version still hold (and will return) the same quota's tokens.
//
// tryAcquire is admitter-serial; release runs on egressing workers — the CAS
// loop keeps the pair race-free without a lock on the egress path.
type Quota struct {
	cap  int64
	used atomic.Int64
}

// NewQuota builds a quota of n admission tokens. n <= 0 returns nil, the
// unlimited quota (every quota check is a nil test on the hot path).
func NewQuota(n int) *Quota {
	if n <= 0 {
		return nil
	}
	return &Quota{cap: int64(n)}
}

// tryAcquire takes up to want tokens without blocking and returns how many
// it got (0 = quota exhausted: the caller sheds).
func (q *Quota) tryAcquire(want int64) int64 {
	for {
		u := q.used.Load()
		free := q.cap - u
		if free <= 0 {
			return 0
		}
		n := want
		if n > free {
			n = free
		}
		if q.used.CompareAndSwap(u, u+n) {
			return n
		}
	}
}

// release returns n tokens (worker-side at egress, admitter-side at
// abort-retirement).
func (q *Quota) release(n int64) { q.used.Add(-n) }

// Cap returns the quota size.
func (q *Quota) Cap() int64 { return q.cap }

// InUse returns the tokens currently held (any goroutine).
func (q *Quota) InUse() int64 { return q.used.Load() }

// Handle is one loaded program's isolated runtime namespace on a shared
// engine: its compiled form, its ticket locks and shard placement, one
// private register file per worker, and its own packet/env pool (envs are
// program-shaped — the VM fits each one to this program's frame once, and
// ir.Env.ResetFor keeps that frame — so packets are never recycled across
// programs). Every mutable structure the single-program engine used to
// hold globally lives here, keyed by (handle, register) instead of
// (register) — the multi-tenant refactor.
//
// A Handle is immutable after AddProgram publishes it except for the
// structures its own packets flow through, each with its existing ownership
// rule: ticket state (the admitter issues, the owning pipeline serves; see
// slotState), wregs (the owning pipeline), the free list (its own mutex), and
// the atomics. Placement — the owner and slot tables — is fixed here.
type Handle struct {
	e       *Engine
	name    string
	version int
	prog    *ir.Program

	// plan is the resolve plan: every access site, flattened for resolve.
	plan []resolveStep
	// admRegs backs resolution-stage execution on the admitter (stateless
	// by construction, so only read-only match tables are consulted).
	admRegs *ir.RegFile
	// bc is this program's compiled form and vm the VM that runs it on the
	// admitter and every worker (a VM holds no state).
	bc *bytecode.Program
	vm *bytecode.VM
	// wregs[i] is worker i's private register file for this program — the
	// per-tenant register namespace. Only the indices the shard map assigns
	// to worker i hold the live copy.
	wregs []*ir.RegFile

	// shard holds every register array's placement and ticket locks.
	shard []regShard
	// log is the effective access order (RecordAccessOrder only); a slot's
	// sequence is appended to by the owner of its ticket lock.
	log *banzai.AccessLog

	quota *Quota

	// free is this program's packet free list (same bounded mutex-stack
	// discipline as the old engine-global list; see Engine docs). ready
	// holds the packets getPackets took off it for the chunk being
	// admitted (admitter-only).
	freeMu sync.Mutex
	free   []*packet
	ready  []*packet

	// record mirrors RecordOutputs||RecordAccessOrder: when set, idSeq
	// accumulates the global packet ids admitted through this handle, in
	// admission order. Per-handle verification (OutputsFor/AccessOrdersFor)
	// uses it to remap global ids to the dense per-handle arrival indices
	// 0..n-1 the single-pipeline reference keys by. Admitter-written, read
	// after Drain.
	record bool
	idSeq  []int64

	submitted atomic.Int64
	completed atomic.Int64
	shed      atomic.Int64
}

// newHandle builds (but does not publish) a handle for prog.
func newHandle(e *Engine, name string, version int, prog *ir.Program, quota *Quota) *Handle {
	if len(prog.Accesses) > 0 && prog.ResolutionStages == 0 {
		panic("dataplane: program has state accesses but no resolution stages (compile for TargetMP5)")
	}
	h := &Handle{
		e:       e,
		name:    name,
		version: version,
		prog:    prog,
		admRegs: ir.NewRegFile(prog),
		quota:   quota,
		record:  e.cfg.RecordOutputs || e.cfg.RecordAccessOrder,
		bc:      bytecode.MustCompile(prog),
	}
	h.vm = bytecode.NewVM(h.bc)
	h.free = make([]*packet, 0, e.cfg.Window)
	h.ready = make([]*packet, 0, e.cfg.Window)
	h.wregs = make([]*ir.RegFile, e.k)
	for i := range h.wregs {
		h.wregs[i] = ir.NewRegFile(prog)
	}
	// Seed != 0 selects the seeded placement policy: the balanced
	// round-robin assignment, deterministically shuffled once per distinct
	// array size, so arrays of equal size — typically indexed by the same
	// key — stay co-sharded and a packet visiting both never steers between
	// them. The version offset keeps every handle's placement deterministic
	// while still distinct across program versions; the first handle
	// (version 0) reproduces the single-program engine's placement exactly.
	var placeRng *rand.Rand
	if e.cfg.Seed != 0 {
		placeRng = rand.New(rand.NewSource(e.cfg.Seed + int64(version)))
	}
	bySize := map[int][]int{} // owner tables are immutable, so equal sizes share one
	h.shard = make([]regShard, len(prog.Regs))
	for r := range prog.Regs {
		info := &prog.Regs[r]
		sh := &h.shard[r]
		sh.sharded = info.Sharded
		sh.size = info.Size
		if !sh.sharded {
			sh.owner = []int{sharding.Home(info, e.k)}
		} else if sh.owner = bySize[info.Size]; sh.owner == nil {
			sh.owner = make([]int, info.Size)
			for i := range sh.owner {
				sh.owner[i] = i % e.k
			}
			if placeRng != nil {
				placeRng.Shuffle(len(sh.owner), func(i, j int) {
					sh.owner[i], sh.owner[j] = sh.owner[j], sh.owner[i]
				})
			}
			bySize[info.Size] = sh.owner
		}
	}
	if e.cfg.RecordAccessOrder {
		h.log = banzai.NewAccessLog(prog)
	}
	newPlacement(h.shard, e.k)
	h.plan = resolvePlan(prog, h.shard)
	return h
}

// Name returns the name the handle was registered under (the tenant name).
func (h *Handle) Name() string { return h.name }

// Version returns the handle's engine-wide registration sequence number.
func (h *Handle) Version() int { return h.version }

// Program returns the compiled program this handle runs.
func (h *Handle) Program() *ir.Program { return h.prog }

// Quota returns the handle's admission quota (nil = unlimited).
func (h *Handle) Quota() *Quota { return h.quota }

// HandleStats is one handle's live counters, in the shape the admin plane
// serves per tenant.
type HandleStats struct {
	Name      string `json:"name"`
	Version   int    `json:"version"`
	Submitted int64  `json:"submitted"`
	Completed int64  `json:"completed"`
	Shed      int64  `json:"quota_shed"`
	QuotaCap  int64  `json:"quota_cap"`   // 0 = unlimited
	QuotaUsed int64  `json:"quota_inuse"` // tokens held by in-flight packets
}

// Stats snapshots the handle's live counters (any goroutine).
func (h *Handle) Stats() HandleStats {
	st := HandleStats{
		Name:      h.name,
		Version:   h.version,
		Submitted: h.submitted.Load(),
		Completed: h.completed.Load(),
		Shed:      h.shed.Load(),
	}
	if h.quota != nil {
		st.QuotaCap = h.quota.Cap()
		st.QuotaUsed = h.quota.InUse()
	}
	return st
}

// getPackets readies n packets for getPacket: recycled ones off this
// handle's free list under one lock — one per admission chunk, not one per
// packet — and fresh ones shaped for this handle's program for the rest.
// Admitter-only.
func (h *Handle) getPackets(n int) {
	h.freeMu.Lock()
	m := min(n, len(h.free))
	tail := h.free[len(h.free)-m:]
	h.ready = append(h.ready, tail...)
	clear(tail)
	h.free = h.free[:len(h.free)-m]
	h.freeMu.Unlock()
	for _, p := range h.ready[len(h.ready)-m:] {
		p.h = h // poison-on-free may have clobbered it
	}
	for ; m < n; m++ {
		h.ready = append(h.ready, &packet{h: h, env: ir.NewEnv(h.prog)})
	}
}

// getPacket hands out a packet getPackets readied, readying one when none
// is left. Admitter-only.
func (h *Handle) getPacket() *packet {
	if len(h.ready) == 0 {
		h.getPackets(1)
	}
	n := len(h.ready) - 1
	p := h.ready[n]
	h.ready[n] = nil
	h.ready = h.ready[:n]
	return p
}

// putPackets recycles packets after their last observer is done with them (a
// pipeline's finished burst, or the admitter's abort-retirement) under one
// lock acquisition. poisonPacket is a no-op in release builds; under the
// mp5debug tag it clobbers the packet so any use-after-recycle fails loudly.
func (h *Handle) putPackets(ps ...*packet) {
	for _, p := range ps {
		poisonPacket(p)
	}
	h.freeMu.Lock()
	h.free = append(h.free, ps...)
	h.freeMu.Unlock()
}
