package ir

import "fmt"

// TableInfo describes one match table declared by the program (§2.1's
// first pipeline component). Match tables are populated by the control
// plane before the run and are read-only in the data plane, so — per the
// paper's functional-equivalence assumptions (§2.2.1) — their contents are
// identical on the single- and multi-pipelined switch, and MP5 replicates
// them in every pipeline for contention-free line-rate matching (§3.3 uses
// the same argument for the index-to-pipeline map).
type TableInfo struct {
	Name string
	ID   int
	// Keys is the number of match-key operands (1–3).
	Keys int
	// Default is the value produced on a miss.
	Default int64
}

// TableEntry is one control-plane-installed exact-match entry. Unused key
// slots are zero.
type TableEntry struct {
	Table int
	Keys  [3]int64
	Value int64
}

// InstallTable adds an exact-match entry to the named table. Entries are
// part of the program instance (the control-plane configuration the paper
// assumes is applied identically to both switches before the run); every
// register file built from the program replicates them.
func (p *Program) InstallTable(name string, value int64, keys ...int64) error {
	id := -1
	for i := range p.Tables {
		if p.Tables[i].Name == name {
			id = i
			break
		}
	}
	if id < 0 {
		return fmt.Errorf("ir: unknown table %q", name)
	}
	if len(keys) != p.Tables[id].Keys {
		return fmt.Errorf("ir: table %s takes %d keys, got %d", name, p.Tables[id].Keys, len(keys))
	}
	var k [3]int64
	copy(k[:], keys)
	p.TableEntries = append(p.TableEntries, TableEntry{Table: id, Keys: k, Value: value})
	return nil
}
