package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call (or group of calls) the harness made into a layer.
// Spans live in memory for the whole run and are written at exit.
type span struct {
	Run     string `json:"run"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 at the root
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since process start
	EndNs   int64  `json:"end_ns"`
}

// recorder collects the harness's own spans. begin/end keep a parent stack
// for the main goroutine; beginUnder names the parent, for goroutines.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	run   string
	spans []span
	stack []int
}

func newRecorder(run string) *recorder {
	return &recorder{t0: time.Now(), run: run}
}

func (r *recorder) beginUnder(parent int, name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{Run: r.run, ID: id, Parent: parent, Name: name, StartNs: int64(time.Since(r.t0))})
	return id
}

func (r *recorder) begin(name string) int {
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := r.beginUnder(parent, name)
	r.stack = append(r.stack, id)
	return id
}

// end closes span id and returns its duration. Spans opened with begin
// close in stack order.
func (r *recorder) end(id int) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	sp := &r.spans[id]
	sp.EndNs = int64(time.Since(r.t0))
	if n := len(r.stack); n > 0 && r.stack[n-1] == id {
		r.stack = r.stack[:n-1]
	}
	return time.Duration(sp.EndNs - sp.StartNs)
}

// current returns the innermost open span of the main goroutine.
func (r *recorder) current() int {
	if n := len(r.stack); n > 0 {
		return r.stack[n-1]
	}
	return -1
}

// median returns the median duration of the closed spans called name, or 0
// when there is none.
func (r *recorder) median(name string) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var ds []float64
	for _, sp := range r.spans {
		if sp.Name == name && sp.EndNs > 0 {
			ds = append(ds, float64(sp.EndNs-sp.StartNs))
		}
	}
	if len(ds) == 0 {
		return 0
	}
	return time.Duration(median(ds))
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// median returns the middle of xs (the mean of the middle two), 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
