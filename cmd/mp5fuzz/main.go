// Command mp5fuzz runs long offline differential-fuzzing sweeps: random
// Domino programs under random workloads, each checked against the
// single-pipeline reference on every order-preserving architecture, on the
// simulator behind a slow crossbar, and on the concurrent engines (final
// state, packet outputs, and C1 access order).
// Failures are minimized and written as JSONL artifacts that -repro replays.
//
// Examples:
//
//	mp5fuzz -cases 5000 -out failures.jsonl
//	mp5fuzz -cases 200 -archs mp5 -packets 2000 -k 8
//	mp5fuzz -repro failures.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"mp5/internal/core"
	"mp5/internal/fuzz"
	"mp5/internal/ir"
)

var archNames = map[string]core.Arch{
	"mp5":          core.ArchMP5,
	"mp5-nod4":     core.ArchMP5NoD4,
	"ideal":        core.ArchIdeal,
	"naive":        core.ArchNaive,
	"static-shard": core.ArchStaticShard,
	"recirc":       core.ArchRecirc,
}

// artifact is one JSONL failure record: everything needed to reproduce the
// failing run (the case pins the minimized program source verbatim).
type artifact struct {
	Type      string        `json:"type"`
	Engine    string        `json:"engine,omitempty"`
	Arch      string        `json:"arch"`
	Case      *fuzz.Case    `json:"case"`
	Failure   *fuzz.Failure `json:"failure"`
	Minimized bool          `json:"minimized"`
}

func main() {
	cases := flag.Int("cases", 1000, "number of random cases to sweep")
	seed := flag.Int64("seed", 1, "base seed (case i derives its seeds from seed+i)")
	packets := flag.Int("packets", 600, "packets per case")
	size := flag.Int("size", 0, "program size knob 1-8 (0 varies per case)")
	k := flag.Int("k", 0, "pipelines (0 varies over 2,4,8)")
	archList := flag.String("archs", "mp5,ideal,naive,static-shard",
		"comma-separated architectures to check against the reference")
	out := flag.String("out", "", "write JSONL failure artifacts to this file")
	shrinkBudget := flag.Int("shrink", 80, "shrink budget in candidate runs per failure (0 disables)")
	repro := flag.String("repro", "", "replay failure artifacts from this JSONL file instead of sweeping")
	engine := flag.String("engine", "", "restrict the sweep (or -repro replay) to one engine family: core, bytecode, dataplane, dataplane-mt, or screp (empty: all)")
	verbose := flag.Bool("v", false, "log every Nth case")
	flag.Parse()

	switch *engine {
	case "", fuzz.EngineCore, fuzz.EngineBytecode,
		fuzz.EngineDataplane, fuzz.EngineMultiTenant, fuzz.EngineScrep:
	default:
		fatal(fmt.Errorf("unknown engine %q", *engine))
	}

	var archs []core.Arch
	for _, name := range strings.Split(*archList, ",") {
		a, ok := archNames[strings.TrimSpace(name)]
		if !ok {
			fatal(fmt.Errorf("unknown architecture %q", name))
		}
		archs = append(archs, a)
	}

	var sink *json.Encoder
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		sink = json.NewEncoder(f)
	}

	if *repro != "" {
		os.Exit(reproduce(*repro, archs, *engine))
	}

	failures := 0
	for i := 0; i < *cases; i++ {
		s := *seed + int64(i)
		c := &fuzz.Case{
			ProgSeed:  int64(ir.Mix64(uint64(s))),
			Size:      pick(*size, int(s%8)+1),
			WorkSeed:  int64(ir.Mix64(uint64(s) ^ 0x9e37)),
			Packets:   *packets,
			Pipelines: pick(*k, []int{2, 4, 8}[s%3]),
		}
		fails := fuzz.RunEngines(c, archs, *engine)
		if *verbose && i%100 == 0 {
			fmt.Fprintf(os.Stderr, "mp5fuzz: case %d/%d, %d failures\n", i, *cases, failures)
		}
		for _, f := range fails {
			failures++
			rec := artifact{Type: "failure", Engine: f.Engine, Arch: f.Arch.String(), Case: c, Failure: f}
			if f.Reason != "compile" && *shrinkBudget > 0 {
				if min, mf := fuzz.ShrinkFailure(c, f, *shrinkBudget); mf != nil {
					rec.Case, rec.Failure, rec.Minimized = min, mf, true
				}
			}
			// Pin the program so the artifact replays without the
			// generator.
			if rec.Case.Source == "" {
				pinned := *rec.Case
				pinned.Source = pinned.SourceText()
				rec.Case = &pinned
			}
			fmt.Fprintf(os.Stderr, "mp5fuzz: case %d FAILED:\n%v\n", i, rec.Failure)
			if sink != nil {
				if err := sink.Encode(rec); err != nil {
					fatal(err)
				}
			}
		}
	}
	fmt.Printf("mp5fuzz: %d cases, %d failures\n", *cases, failures)
	if failures > 0 {
		os.Exit(1)
	}
}

// reproduce replays every artifact in path and reports whether each still
// fails; exit status 1 if any does (the bug is still live), 0 if all pass.
// A non-empty engine restricts each replay to that engine family (e.g.
// -engine=screp re-checks only the replication legs of each artifact).
func reproduce(path string, fallback []core.Arch, engine string) int {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	line, live, total := 0, 0, 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var rec artifact
		if err := json.Unmarshal([]byte(text), &rec); err != nil {
			fatal(fmt.Errorf("%s:%d: %v", path, line, err))
		}
		if rec.Case == nil {
			continue
		}
		archs := fallback
		if a, ok := archNames[rec.Arch]; ok {
			archs = []core.Arch{a}
		}
		total++
		fails := fuzz.RunEngines(rec.Case, archs, engine)
		if len(fails) > 0 {
			live++
			fmt.Printf("artifact %d: still failing\n%v\n", total, fails[0])
		} else {
			fmt.Printf("artifact %d: passes now\n", total)
		}
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	fmt.Printf("mp5fuzz: %d artifacts replayed, %d still failing\n", total, live)
	if live > 0 {
		return 1
	}
	return 0
}

// pick returns the flag value when set, else the varying default.
func pick(flagVal, varying int) int {
	if flagVal > 0 {
		return flagVal
	}
	return varying
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mp5fuzz:", err)
	os.Exit(1)
}
