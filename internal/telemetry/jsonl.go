package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"

	"mp5/internal/banzai"
	"mp5/internal/core"
)

// EventRecord is the JSONL rendering of one trace event. Kind and cause
// use their string names so the stream is self-describing; Stage/Pipe keep
// the -1 "not applicable" convention of core.Event.
type EventRecord struct {
	Type  string `json:"type"` // always "event"
	Cycle int64  `json:"cycle"`
	Kind  string `json:"kind"`
	Pkt   int64  `json:"pkt"`
	Stage int    `json:"stage"`
	Pipe  int    `json:"pipe"`
	Cause string `json:"cause,omitempty"`
	// State names the register slot of an "access" event as "rN[i]"
	// (matching the differential harness's order-oracle keys); absent for
	// every other kind.
	State string `json:"state,omitempty"`
}

// JSONL writes telemetry records — events, samples, and arbitrary tagged
// summary objects — as one JSON object per line. Safe for concurrent
// use: records from many goroutines (the concurrent dataplane's workers, or
// several simulators sharing one sink) serialize on an internal mutex, so
// lines never interleave mid-record.
type JSONL struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	err error
}

// NewJSONL wraps w in a buffered JSONL encoder. Call Flush when done.
func NewJSONL(w io.Writer) *JSONL {
	bw := bufio.NewWriterSize(w, 1<<16)
	return &JSONL{bw: bw, enc: json.NewEncoder(bw)}
}

func (j *JSONL) write(v any) {
	j.mu.Lock()
	if j.err == nil {
		j.err = j.enc.Encode(v)
	}
	j.mu.Unlock()
}

// EventHook returns a trace consumer streaming every event as JSONL.
func (j *JSONL) EventHook() func(core.Event) {
	return func(e core.Event) {
		rec := EventRecord{
			Type: "event", Cycle: e.Cycle, Kind: e.Kind.String(),
			Pkt: e.PktID, Stage: e.Stage, Pipe: e.Pipe,
			Cause: e.Cause.String(),
		}
		if e.Kind == core.EvAccess {
			rec.State = banzai.AccessKey(e.Reg, e.Idx)
		}
		j.write(rec)
	}
}

// SampleSink returns a Recorder sink writing each interval as JSONL.
func (j *JSONL) SampleSink() func(Sample) {
	return func(s Sample) { j.write(s) }
}

// Object writes one arbitrary record (e.g. a tagged end-of-run summary).
func (j *JSONL) Object(v any) { j.write(v) }

// Flush drains the buffer and reports the first error encountered on any
// write.
func (j *JSONL) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	return j.bw.Flush()
}
