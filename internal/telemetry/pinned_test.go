package telemetry_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"mp5/internal/core"
	"mp5/internal/telemetry"
)

// pinnedTelemetry holds the SHA-256 digests of everything the simulator's
// telemetry renders for a fixed-seed run: the JSONL stream (events,
// samples and the run record), the Prometheus text, and the latency
// summary. A refactor of the consumers must reproduce them byte for byte;
// only a deliberate change of output re-pins (the failure prints the new
// digest).
var pinnedTelemetry = map[string]string{
	"mp5":           "f405745ba7b527dcdb55879caff82309359454b04bdd5b754e099701168d9959",
	"recirc-tiny":   "c07dbdef324366dc7f09766df23cf972fb7fdc738e4455b837674f663f02aca9",
	"mp5-tiny-fifo": "42c1c49a9dbd17dda706f52e11179cf4429dd8da104b568ce841fea0b0ff6716",
	"crosslat":      "afa481ad150f731f172a0a0f871cc2af2f28002c832eeebf852b9948230fd8cd",
}

// recordRun runs cfg on the shared skewed trace with the full telemetry
// stack attached, the way mp5sim wires it, and returns the three renderings.
func recordRun(t *testing.T, cfg core.Config) (*core.Result, []byte, string, telemetry.LatencySummary) {
	t.Helper()
	var buf bytes.Buffer
	j := telemetry.NewJSONL(&buf)
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder(reg, 100, cfg.Pipelines, j.SampleSink())
	cfg.Trace = telemetry.Tee(j.EventHook(), rec.Hook())
	sim, trace := setupRun(t, cfg, 3000)
	res := sim.Run(trace)
	rec.Close()
	sum := rec.Summary()
	if bad := rec.Reconcile(res); len(bad) > 0 {
		t.Fatalf("reconciliation failed: %v", bad)
	}
	j.Object(struct {
		Type    string                   `json:"type"`
		Result  *core.Result             `json:"result"`
		Latency telemetry.LatencySummary `json:"latency"`
	}{"run", res, sum})
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes(), reg.PromString(), sum
}

func TestTelemetryPinned(t *testing.T) {
	cases := []struct {
		name string
		cfg  core.Config
		// shows fails the case when the run does not exercise the path
		// it is here for.
		shows func(*core.Result) bool
	}{
		{"mp5", core.Config{Arch: core.ArchMP5, Pipelines: 4, Seed: 2},
			func(r *core.Result) bool { return r.ShardMoves > 0 && r.MaxFIFODepth > 1 }},
		{"recirc-tiny", core.Config{Arch: core.ArchRecirc, Pipelines: 4, Seed: 2, RecircIngressCap: 2},
			func(r *core.Result) bool { return r.DroppedIngress > 0 && r.Recirculations > 0 }},
		{"mp5-tiny-fifo", core.Config{Arch: core.ArchMP5, Pipelines: 4, Seed: 2, FIFOCap: 2},
			func(r *core.Result) bool { return r.DroppedPhantom > 0 }},
		{"crosslat", core.Config{Arch: core.ArchMP5, Pipelines: 4, Seed: 2, CrossLatency: 3},
			func(r *core.Result) bool { return r.Completed == r.Injected && r.MaxFIFODepth > 1 }},
	}
	for _, tc := range cases {
		res, stream, prom, sum := recordRun(t, tc.cfg)
		if !tc.shows(res) {
			t.Errorf("%s: run does not exercise its path: %+v", tc.name, res)
		}
		summary, err := json.Marshal(sum)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, part := range [][]byte{stream, []byte(prom), summary} {
			h.Write(part)
			h.Write([]byte{0})
		}
		if got, want := hex.EncodeToString(h.Sum(nil)), pinnedTelemetry[tc.name]; got != want {
			t.Errorf("%s: digest %s, pinned %s", tc.name, got, want)
		}
	}
}
