package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"mp5/internal/core"
	"mp5/internal/workload"
)

// digest hashes every observable of one run: the result summary, each trace
// event field by field, outputs, egress order, per-state access order and
// final registers (fmt prints maps in sorted key order, so the text is
// canonical).
func digest(o observables) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n", o.res)
	for _, e := range o.events {
		fmt.Fprintln(h, e.Cycle, int(e.Kind), e.PktID, e.Stage, e.Pipe, int(e.Cause), e.Reg, e.Idx)
	}
	fmt.Fprintf(h, "%v\n%v\n%v\n%v\n", o.out, o.egress, o.access, o.regs)
	return hex.EncodeToString(h.Sum(nil))
}

// pinnedDigests are the event-driven scheduler's observables, recorded before
// the simulator's phantom bookkeeping moved from id-keyed maps onto the
// packets' visit records. TestEventDrivenMatchesFullSweep compares two
// schedulers that share that bookkeeping, so it cannot see a change in both;
// these digests can. A deliberate behaviour change re-pins them and says why:
// the naive cases re-pinned when the access order began keying an unsharded
// array per clamped index, as the reference does, instead of as one whole-
// array state (their results and event streams did not move).
var pinnedDigests = map[string]string{
	"mp5-skewed/dense":            "7de3565b356c76ec3d0f05725be294e7abb58a03691b8b9e72feabd916293614",
	"mp5-skewed/sparse":           "ab7f1eb90c7ff61e581e7df75a743803f241fcec59f973a901e3b48dd968c3a1",
	"mp5-k1/dense":                "c5da71f1844c7ef46d064aebdc3b73894cc1155853f8cda241c96576214444ec",
	"mp5-k1/sparse":               "bab164ddd5ac36890037e0cdba9d95a8f5f0f542d757e90aae67479f18ab71da",
	"mp5-crosslat-fifocap/dense":  "52dde426b1175e28d5e9c083c9ec5599811dadc99f3c02caf4422dbafd86a42c",
	"mp5-crosslat-fifocap/sparse": "e849f902cd0a188233155f9fca936baec06ae3e79d0592d2b9da31ffeff597ee",
	"mp5-starve-ecn/dense":        "5cc3bae752a74be4c25d3a4e09143f792e86f86fea96f6089aa39caac5906595",
	"mp5-starve-ecn/sparse":       "e9ffee9d3d9172f448edee6cca7f5ea4d594f1c9248db3a4ee48c9eee4e4d86e",
	"nod4-fifocap/dense":          "41afb4a664607c41e310393f48474e69f6a02f148119b8ad4f078e5a201a672c",
	"nod4-fifocap/sparse":         "aa903d49269d3e88f6caa95e538a5160aa88bf831e17f7e9d73525b77a1591d0",
	"ideal/dense":                 "bbf2e38ca0dbf335609278e8e30b1c4bc3ca015ff92ceacd8e40d6c13e9f4cc3",
	"ideal/sparse":                "26358846528c64d033878e1b7286164d6f134aa4732a7724d01b5cc1cbc5bce8",
	"naive/dense":                 "595e1a3d90fe1ed4d8323b12c3cffb144924cc8ddbb2e649db188552088fa663",
	"naive/sparse":                "132059a06f02c558cd3cf4e908951d584b5ba8360a560d99027fd4c044a0a74a",
	"static-shard/dense":          "c9ed0d0af88c61ea498f2ab8c634342b8073ebc2b28bcd4a5e2d3944727a20c5",
	"static-shard/sparse":         "1af5219e69a09eef4f24b0cee9d7afac60c29281c855c9d39c0470cc88cd3a85",
	"recirc/dense":                "2b38272d419a9dee904e841d282576860ac5227932cb6040cc55996ec3855c13",
	"recirc/sparse":               "b1e0a939e7747947c5c074489262844c808ec2845fa99b7e212414da04006adc",
	"sim-skewed":                  "2952dbc17600694a23cf4de9f6cbcd1140bc410a19d06343fe24cab556f9accc",
}

// TestSimulatorObservablesPinned runs sweepCases on their dense and sparse
// traces, plus the sim-skewed benchmark shape (4 stateful stages × 512
// entries, k = 4, skewed) at 8,192 packets, and requires every run's
// observables to hash to the pinned digest.
func TestSimulatorObservablesPinned(t *testing.T) {
	check := func(name string, o observables) {
		if got, want := digest(o), pinnedDigests[name]; got != want {
			t.Errorf("%s: digest %s, pinned %s", name, got, want)
		}
	}
	for _, tc := range sweepCases {
		prog, dense := synthSetup(t, tc.stages, tc.regs, tc.cfg.Pipelines, 1500, workload.Skewed, tc.cfg.Seed)
		check(tc.name+"/dense", runObserved(prog, tc.cfg, dense, false))
		check(tc.name+"/sparse", runObserved(prog, tc.cfg, sparsify(dense, 64, 5000), false))
	}
	prog, trace := synthSetup(t, 4, 512, 4, 8192, workload.Skewed, 1)
	check("sim-skewed", runObserved(prog, core.Config{Arch: core.ArchMP5, Pipelines: 4, Seed: 1}, trace, false))
}
