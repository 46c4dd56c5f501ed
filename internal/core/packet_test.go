package core

import (
	"testing"
	"unsafe"
)

// TestRecordSizes pins the packet store's record layouts, which set how much
// cold state serving a long-queued packet touches: a visit is 16 bytes, an
// access record 8 and a FIFO entry 24 (56, 16 and 32 when visits carried an
// access slice and entries pointed at their packets).
func TestRecordSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"visit", unsafe.Sizeof(visit{}), 16},
		{"visitAcc", unsafe.Sizeof(visitAcc{}), 8},
		{"fifoEntry", unsafe.Sizeof(fifoEntry{}), 24},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
}
