package ir

// RegFile is a flat register store holding every register array of one
// program, plus its read-only match tables (replicated from the program's
// control-plane configuration). It is the one register store every engine
// runs: the bytecode VM takes it concretely, so a register access is a
// direct, inlinable call; the tree-walking interpreter reaches it through
// RegStore. Indices are reduced modulo the array size (non-negative), the
// dataplane-safe semantics both executors share.
type RegFile struct {
	arrays   [][]int64
	tables   []map[[3]int64]int64
	defaults []int64
}

// NewRegFile allocates and initializes a register file for program p,
// replicating p's match-table entries (the control-plane state the paper
// assumes is installed identically before the run, §2.2.1).
func NewRegFile(p *Program) *RegFile {
	rf := &RegFile{arrays: make([][]int64, len(p.Regs))}
	for i := range p.Regs {
		r := &p.Regs[i]
		a := make([]int64, r.Size)
		for j := range a {
			a[j] = r.InitialValue(j)
		}
		rf.arrays[i] = a
	}
	rf.tables = make([]map[[3]int64]int64, len(p.Tables))
	rf.defaults = make([]int64, len(p.Tables))
	for i := range p.Tables {
		rf.tables[i] = make(map[[3]int64]int64)
		rf.defaults[i] = p.Tables[i].Default
	}
	for _, e := range p.TableEntries {
		rf.tables[e.Table][e.Keys] = e.Value
	}
	return rf
}

// ClampIndex reduces an arbitrary index into [0, size): the dataplane-safe
// wrap used by every register store in this repository, so the reference
// executor and the MP5 simulator agree on out-of-range accesses. An index
// already in range — nearly every one — returns without the integer divide.
func ClampIndex(idx int, size int) int {
	if size > 0 && uint(idx) < uint(size) {
		return idx
	}
	if size <= 0 {
		return 0
	}
	m := idx % size
	if m < 0 {
		m += size
	}
	return m
}

// ReadReg returns register array reg at index idx (clamped).
func (rf *RegFile) ReadReg(reg, idx int) int64 {
	a := rf.arrays[reg]
	return a[ClampIndex(idx, len(a))]
}

// WriteReg sets register array reg at index idx (clamped) to v.
func (rf *RegFile) WriteReg(reg, idx int, v int64) {
	a := rf.arrays[reg]
	a[ClampIndex(idx, len(a))] = v
}

// LookupTable matches keys exactly against the read-only match table tbl,
// returning the table's default on a miss.
func (rf *RegFile) LookupTable(tbl int, keys [3]int64) int64 {
	if v, ok := rf.tables[tbl][keys]; ok {
		return v
	}
	return rf.defaults[tbl]
}

// Array returns the backing slice of register array reg (live, not a copy).
func (rf *RegFile) Array(reg int) []int64 { return rf.arrays[reg] }

// Snapshot deep-copies the register state.
func (rf *RegFile) Snapshot() [][]int64 {
	out := make([][]int64, len(rf.arrays))
	for i, a := range rf.arrays {
		out[i] = append([]int64(nil), a...)
	}
	return out
}
