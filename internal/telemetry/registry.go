// Package telemetry is the observability layer of the reproduction: a
// lightweight metrics registry (counters, gauges, windowed histograms with
// quantile extraction) with a Prometheus-text snapshot, the Recorder that
// folds the simulator's trace-event stream into metrics, per-interval
// samples and a latency summary, and a JSONL sink for all of it.
//
// The Recorder and the JSONL event hook are pure core.Config.Trace
// subscribers — the simulator hot loop gains no new hooks, and a nil
// *Registry (telemetry disabled) makes every metric operation a
// nil-receiver no-op with zero allocation.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"mp5/internal/stats"
)

// desc is the shared metric metadata.
type desc struct {
	name string
	help string
}

// metric is anything the registry can snapshot.
type metric interface {
	describe() desc
	typ() string
	// write renders the metric's sample lines (no HELP/TYPE headers).
	write(w io.Writer)
}

// Registry holds an ordered set of named metrics. A nil *Registry is the
// disabled state: every New* constructor returns nil and every metric
// method on a nil receiver is a no-op.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	byName  map[string]bool
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]bool)}
}

func (r *Registry) register(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	d := m.describe()
	if r.byName[d.name] {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", d.name))
	}
	r.byName[d.name] = true
	r.metrics = append(r.metrics, m)
}

// WriteProm renders every registered metric in Prometheus text exposition
// format, in registration order.
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	ms := append([]metric(nil), r.metrics...)
	r.mu.Unlock()
	var b strings.Builder
	for _, m := range ms {
		d := m.describe()
		fmt.Fprintf(&b, "# HELP %s %s\n", d.name, d.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", d.name, m.typ())
		m.write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// PromString renders the snapshot as a string (convenience for tests and
// CLI output).
func (r *Registry) PromString() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	r.WriteProm(&b)
	return b.String()
}

// ---- Counter ----

// Counter is a monotonically increasing int64 metric. All methods are safe
// on a nil receiver (telemetry disabled) and safe for concurrent use.
type Counter struct {
	v atomic.Int64
	d desc
}

// NewCounter registers a counter. Returns nil when r is nil.
func (r *Registry) NewCounter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{d: desc{name, help}}
	r.register(c)
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n must be non-negative; this is not checked on the hot path).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) describe() desc { return c.d }
func (c *Counter) typ() string    { return "counter" }
func (c *Counter) write(w io.Writer) {
	fmt.Fprintf(w, "%s %d\n", c.d.name, c.v.Load())
}

// ---- CounterVec ----

// CounterVec is a counter partitioned by one label.
type CounterVec struct {
	mu       sync.Mutex
	d        desc
	label    string
	children map[string]*atomic.Int64
}

// NewCounterVec registers a labelled counter family. Returns nil when r is
// nil.
func (r *Registry) NewCounterVec(name, help, label string) *CounterVec {
	if r == nil {
		return nil
	}
	v := &CounterVec{d: desc{name, help}, label: label, children: make(map[string]*atomic.Int64)}
	r.register(v)
	return v
}

// Add adds n to the child with the given label value.
func (v *CounterVec) Add(labelValue string, n int64) {
	if v == nil {
		return
	}
	v.mu.Lock()
	c, ok := v.children[labelValue]
	if !ok {
		c = &atomic.Int64{}
		v.children[labelValue] = c
	}
	v.mu.Unlock()
	c.Add(n)
}

// Inc adds one to the child with the given label value.
func (v *CounterVec) Inc(labelValue string) { v.Add(labelValue, 1) }

// Value returns the child's count (0 when absent or nil).
func (v *CounterVec) Value(labelValue string) int64 {
	if v == nil {
		return 0
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.children[labelValue]; ok {
		return c.Load()
	}
	return 0
}

// Total sums every child.
func (v *CounterVec) Total() int64 {
	if v == nil {
		return 0
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	var n int64
	for _, c := range v.children {
		n += c.Load()
	}
	return n
}

func (v *CounterVec) describe() desc { return v.d }
func (v *CounterVec) typ() string    { return "counter" }
func (v *CounterVec) write(w io.Writer) {
	v.mu.Lock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s{%s=%q} %d\n", v.d.name, v.label, k, v.children[k].Load())
	}
	v.mu.Unlock()
}

// ---- Gauge ----

// Gauge is a float64 metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
	d    desc
}

// NewGauge registers a gauge. Returns nil when r is nil.
func (r *Registry) NewGauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	g := &Gauge{d: desc{name, help}}
	r.register(g)
	return g
}

// Set stores x.
func (g *Gauge) Set(x float64) {
	if g == nil {
		return
	}
	g.bits.Store(floatBits(x))
}

// Value returns the stored value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return bitsFloat(g.bits.Load())
}

func (g *Gauge) describe() desc { return g.d }
func (g *Gauge) typ() string    { return "gauge" }
func (g *Gauge) write(w io.Writer) {
	fmt.Fprintf(w, "%s %s\n", g.d.name, formatFloat(g.Value()))
}

// ---- GaugeFunc ----

// GaugeFunc is a gauge whose value is computed at scrape time by a
// callback — the right shape for values the runtime already maintains
// (uptime, channel depths): the hot path pays nothing and /metrics is
// always current, even on an idle daemon.
type GaugeFunc struct {
	d  desc
	fn func() float64
}

// NewGaugeFunc registers a callback gauge. fn must be safe to call from
// any goroutine at any time after registration. Returns nil when r is nil.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) *GaugeFunc {
	if r == nil {
		return nil
	}
	g := &GaugeFunc{d: desc{name, help}, fn: fn}
	r.register(g)
	return g
}

// Value evaluates the callback (0 on nil).
func (g *GaugeFunc) Value() float64 {
	if g == nil {
		return 0
	}
	return g.fn()
}

func (g *GaugeFunc) describe() desc { return g.d }
func (g *GaugeFunc) typ() string    { return "gauge" }
func (g *GaugeFunc) write(w io.Writer) {
	fmt.Fprintf(w, "%s %s\n", g.d.name, formatFloat(g.fn()))
}

// ---- GaugeVec ----

// GaugeVec is a gauge partitioned by an ordered list of labels (rendered in
// insertion order of children, sorted by label values for determinism).
type GaugeVec struct {
	mu       sync.Mutex
	d        desc
	labels   []string
	children map[string]float64
}

// NewGaugeVec registers a labelled gauge family. Returns nil when r is nil.
func (r *Registry) NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	v := &GaugeVec{d: desc{name, help}, labels: labels, children: make(map[string]float64)}
	r.register(v)
	return v
}

// Set stores x for the child with the given label values (must match the
// label count).
func (v *GaugeVec) Set(x float64, labelValues ...string) {
	if v == nil {
		return
	}
	if len(labelValues) != len(v.labels) {
		panic(fmt.Sprintf("telemetry: %s wants %d labels, got %d", v.d.name, len(v.labels), len(labelValues)))
	}
	v.mu.Lock()
	v.children[strings.Join(labelValues, "\x00")] = x
	v.mu.Unlock()
}

func (v *GaugeVec) describe() desc { return v.d }
func (v *GaugeVec) typ() string    { return "gauge" }
func (v *GaugeVec) write(w io.Writer) {
	v.mu.Lock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		vals := strings.Split(k, "\x00")
		pairs := make([]string, len(vals))
		for i, lv := range vals {
			pairs[i] = fmt.Sprintf("%s=%q", v.labels[i], lv)
		}
		fmt.Fprintf(w, "%s{%s} %s\n", v.d.name, strings.Join(pairs, ","), formatFloat(v.children[k]))
	}
	v.mu.Unlock()
}

// ---- Windowed histogram ----

// Histogram is a windowed distribution metric: observations land in the
// current window, Rotate moves it to the previous one, and quantile
// extraction merges the two — so quantiles reflect roughly the last one to
// two windows while sum/count/max stay cumulative. Rendered as a
// Prometheus summary (quantile samples plus _sum/_count/_max).
type Histogram struct {
	mu        sync.Mutex
	d         desc
	quantiles []float64
	cur, prev *stats.Histogram
	count     int64
	sum       float64
	max       float64
}

// NewHistogram registers a windowed histogram over [lo, hi) with n buckets,
// exposing the given quantiles. Returns nil when r is nil.
func (r *Registry) NewHistogram(name, help string, lo, hi float64, n int, quantiles ...float64) *Histogram {
	if r == nil {
		return nil
	}
	if len(quantiles) == 0 {
		quantiles = []float64{0.5, 0.9, 0.99}
	}
	h := &Histogram{
		d:         desc{name, help},
		quantiles: quantiles,
		cur:       stats.NewHistogram(lo, hi, n),
		prev:      stats.NewHistogram(lo, hi, n),
	}
	r.register(h)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(x float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.cur.Add(x)
	h.count++
	h.sum += x
	if x > h.max {
		h.max = x
	}
	h.mu.Unlock()
}

// Rotate starts a new window: the current window becomes the previous one
// and the old previous window is discarded.
func (h *Histogram) Rotate() {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.prev, h.cur = h.cur, h.prev
	for i := range h.cur.Buckets {
		h.cur.Buckets[i] = 0
	}
	h.cur.Under, h.cur.Over = 0, 0
	h.mu.Unlock()
}

// Quantile extracts the q-th quantile over the merged current + previous
// windows (NaN when empty, 0 on nil).
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	merged := stats.NewHistogram(h.cur.Lo, h.cur.Hi, len(h.cur.Buckets))
	merged.Merge(h.cur)
	merged.Merge(h.prev)
	return merged.Quantile(q)
}

// Count returns the cumulative observation count.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the cumulative sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Max returns the cumulative maximum observation (0 when empty or nil).
func (h *Histogram) Max() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

func (h *Histogram) describe() desc { return h.d }
func (h *Histogram) typ() string    { return "summary" }
func (h *Histogram) write(w io.Writer) {
	for _, q := range h.quantiles {
		fmt.Fprintf(w, "%s{quantile=%q} %s\n", h.d.name, formatFloat(q), formatFloat(h.Quantile(q)))
	}
	h.mu.Lock()
	fmt.Fprintf(w, "%s_sum %s\n", h.d.name, formatFloat(h.sum))
	fmt.Fprintf(w, "%s_count %d\n", h.d.name, h.count)
	fmt.Fprintf(w, "%s_max %s\n", h.d.name, formatFloat(h.max))
	h.mu.Unlock()
}

// ---- small helpers ----

func floatBits(x float64) uint64 { return math.Float64bits(x) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }

func formatFloat(x float64) string { return fmt.Sprintf("%g", x) }
