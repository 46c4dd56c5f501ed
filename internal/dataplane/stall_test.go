package dataplane

import (
	"sync/atomic"
	"testing"
	"time"

	"mp5/internal/apps"
	"mp5/internal/workload"
)

// TestWatchdogDetectsStall wedges every visit execution until the watchdog
// fires and checks the run aborts with Stalled instead of hanging: the
// liveness net every differential test implicitly relies on. It runs in both
// driver shapes: on one driver the admitter steps it itself inside Run (the
// window is far below the trace), so the wedge holds the admitter; on a
// driver per pipeline it holds the driver goroutines.
func TestWatchdogDetectsStall(t *testing.T) {
	prog, err := apps.Synthetic(2, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := workload.Synthetic(prog, workload.Spec{Packets: 200, Pipelines: 2, Seed: 1}, 2, 16)
	forDriverShapes(t, func(t *testing.T) {
		e := New(prog, Config{Workers: 2, Window: 16, StallTimeout: 50 * time.Millisecond})
		// Block every visit until the watchdog aborts the run; no packet can
		// egress meanwhile, which is exactly the no-progress condition it
		// detects.
		var admWedged, gorWedged atomic.Bool
		e.testBeforeExec = func(*packet) {
			if onDriverGoroutine() {
				gorWedged.Store(true)
			} else {
				admWedged.Store(true)
			}
			<-e.abort
		}
		done := make(chan *Result, 1)
		go func() { done <- e.Run(arrivals) }()
		select {
		case res := <-done:
			if one := len(e.drivers) == 1; admWedged.Load() != one || gorWedged.Load() == one {
				t.Fatalf("%d drivers: wedged admitter %v, goroutine %v — want the admitter alone on one driver, the goroutines alone on several",
					len(e.drivers), admWedged.Load(), gorWedged.Load())
			}
			if !res.Stalled {
				t.Fatalf("wedged run did not report a stall: %+v", res)
			}
			// A step wedged in the hook resumes when abort closes and may
			// finish the message in hand; everything else must be cut short.
			if res.Completed >= res.Injected {
				t.Fatalf("stalled run completed %d of %d packets", res.Completed, res.Injected)
			}
			checkBatonsFree(t, e)
		case <-time.After(10 * time.Second):
			t.Fatal("watchdog never aborted the wedged run")
		}
	})
}
