package telemetry_test

import (
	"bytes"
	"testing"

	"mp5/internal/apps"
	"mp5/internal/core"
	"mp5/internal/telemetry"
	"mp5/internal/workload"
)

// TestSamplerCycleJumps: the event-driven simulator core fast-forwards the
// clock across idle gaps, so consecutive trace events can be thousands of
// cycles apart. The recorder must still emit one sample per interval — the
// skipped intervals appear as explicit empty points, never as a gap or a
// panic.
func TestSamplerCycleJumps(t *testing.T) {
	var samples []telemetry.Sample
	s := telemetry.NewRecorder(nil, 100, 4, func(x telemetry.Sample) { samples = append(samples, x) })
	hook := s.Hook()
	hook(core.Event{Cycle: 5, Kind: core.EvAdmit, PktID: 0})
	hook(core.Event{Cycle: 1005, Kind: core.EvEgress, PktID: 0}) // 10-interval jump
	s.Close()
	if len(samples) != 11 {
		t.Fatalf("got %d samples, want 11 (no gaps across the jump)", len(samples))
	}
	for i, smp := range samples {
		if smp.Cycle != int64(i*100) {
			t.Fatalf("sample %d starts at cycle %d, want %d", i, smp.Cycle, i*100)
		}
	}
	if samples[0].Admitted != 1 || samples[10].Egressed != 1 {
		t.Fatalf("edge intervals miscounted: %+v / %+v", samples[0], samples[10])
	}
	for _, smp := range samples[1:10] {
		if smp.Admitted != 0 || smp.Egressed != 0 || smp.Execs != 0 {
			t.Fatalf("interval at cycle %d not empty: %+v", smp.Cycle, smp)
		}
	}
}

// TestSameSeedTelemetryIdentical: back-to-back runs of one seed must
// produce byte-identical telemetry JSONL (events and samples). This pins
// the pendingInserts retry-order determinism fix — with CrossLatency > 0
// and contended FIFOs the retry order is visible in same-cycle event
// interleavings, and it used to follow Go map iteration order.
func TestSameSeedTelemetryIdentical(t *testing.T) {
	prog, err := apps.Synthetic(3, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	trace := workload.Synthetic(prog, workload.Spec{
		Packets: 2500, Pipelines: 4, Pattern: workload.Skewed, Seed: 23,
	}, 3, 16)
	snapshot := func() []byte {
		var buf bytes.Buffer
		j := telemetry.NewJSONL(&buf)
		rec := telemetry.NewRecorder(nil, 50, 4, j.SampleSink())
		sim := core.NewSimulator(prog, core.Config{
			Arch: core.ArchMP5, Pipelines: 4, Seed: 3,
			CrossLatency: 4, FIFOCap: 3, ECNThreshold: 2,
			Trace: telemetry.Tee(j.EventHook(), rec.Hook()),
		})
		res := sim.Run(trace)
		rec.Close()
		j.Object(res)
		if err := j.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a := snapshot()
	for run := 0; run < 3; run++ {
		if b := snapshot(); !bytes.Equal(a, b) {
			t.Fatalf("run %d: telemetry snapshot diverged (%d vs %d bytes)", run, len(a), len(b))
		}
	}
}
