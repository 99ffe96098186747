// Package telemetry provides campaign observability: a small,
// dependency-free metrics registry (atomic counters, gauges and
// fixed-bucket histograms with a stable-ordered Snapshot), a buffered
// per-cell JSONL trace writer, and an HTTP handler exposing the registry
// in Prometheus text format alongside expvar and net/http/pprof.
//
// Everything is nil-safe: every method on a nil *Registry, *Counter,
// *Gauge, *Histogram, *Tracer or *Campaign returns immediately and
// allocates nothing, so the campaign hot path can call telemetry
// unconditionally and a disabled campaign costs zero (enforced by
// TestDisabledSamplePathZeroAllocs).
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by n (n may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DurationBuckets is the default latency histogram layout, in seconds:
// exponential from 1 ms to 30 s, sized for per-injection sample times
// (typically milliseconds) through whole-cell runtimes.
var DurationBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// Histogram counts observations in fixed buckets (plus an implicit +Inf
// bucket) and tracks their sum, all lock-free.
type Histogram struct {
	bounds  []float64 // ascending upper bounds
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomic.Uint64 // float64 bits, CAS-added
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// merge folds externally-accumulated observations into the histogram: one
// non-negative count delta per bucket (+Inf last, len(bounds)+1 entries)
// and the corresponding value-sum delta. The federation path uses it to
// republish worker histograms; a length mismatch drops the batch rather
// than corrupting bucket alignment.
func (h *Histogram) merge(deltas []int64, sumDelta float64) {
	if h == nil || len(deltas) != len(h.buckets) {
		return
	}
	var n int64
	for i, d := range deltas {
		if d <= 0 {
			continue
		}
		h.buckets[i].Add(d)
		n += d
	}
	if n == 0 && sumDelta == 0 {
		return
	}
	h.count.Add(n)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+sumDelta)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Registry is a named collection of metrics. Collectors are created on
// first use and live for the registry's lifetime; Snapshot and
// WritePrometheus render a consistent, stable-ordered view at any time,
// including while the campaign is still recording.
//
// Metric names may embed Prometheus-style labels directly, e.g.
// `samples_total{outcome="masked"}`: the registry treats the full string
// as the key and the exporters emit it verbatim (merging histogram `le`
// labels as needed).
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil registry
// returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use (later calls reuse the original layout). A nil
// registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{bounds: bounds, buckets: make([]atomic.Int64, len(bounds)+1)}
		r.histograms[name] = h
	}
	return h
}

// Kind discriminates metric types in a Snapshot.
type Kind int

// Metric kinds, in Snapshot order within one name collision class.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Bucket is one cumulative histogram bucket: the count of observations at
// or below UpperBound.
type Bucket struct {
	UpperBound float64
	Count      int64
}

// Metric is one entry of a registry snapshot.
type Metric struct {
	Name    string
	Kind    Kind
	Value   float64  // counter/gauge value; histogram sum
	Count   int64    // histogram observation count
	Buckets []Bucket // histogram only; cumulative, +Inf last
}

// Snapshot returns every metric sorted by name (stable across calls), so
// exporters, tests and the status line see a deterministic view. A nil
// registry returns nil.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Metric, 0, len(r.counters)+len(r.gauges)+len(r.histograms))
	for name, c := range r.counters {
		out = append(out, Metric{Name: name, Kind: KindCounter, Value: float64(c.Value())})
	}
	for name, g := range r.gauges {
		out = append(out, Metric{Name: name, Kind: KindGauge, Value: float64(g.Value())})
	}
	for name, h := range r.histograms {
		m := Metric{Name: name, Kind: KindHistogram, Value: h.Sum(), Count: h.Count()}
		cum := int64(0)
		for i, b := range h.bounds {
			cum += h.buckets[i].Load()
			m.Buckets = append(m.Buckets, Bucket{UpperBound: b, Count: cum})
		}
		cum += h.buckets[len(h.bounds)].Load()
		m.Buckets = append(m.Buckets, Bucket{UpperBound: math.Inf(1), Count: cum})
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): one # TYPE line per metric family, histograms
// expanded into cumulative _bucket/_sum/_count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	lastFamily := ""
	for _, m := range r.Snapshot() {
		family := baseName(m.Name)
		if family != lastFamily {
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", family, m.Kind); err != nil {
				return err
			}
			lastFamily = family
		}
		switch m.Kind {
		case KindHistogram:
			for _, b := range m.Buckets {
				le := "+Inf"
				if !math.IsInf(b.UpperBound, 1) {
					le = formatFloat(b.UpperBound)
				}
				labels := withLabel(m.Name, `le="`+le+`"`)[len(family):]
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", family, labels, b.Count); err != nil {
					return err
				}
			}
			labels := m.Name[len(family):]
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", family, labels, formatFloat(m.Value)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", family, labels, m.Count); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "%s %s\n", m.Name, formatFloat(m.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// baseName strips an embedded label set: `x_total{a="b"}` -> `x_total`.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// withLabel merges one extra label pair into a possibly-labeled name:
// withLabel(`x{a="b"}`, `le="1"`) -> `x{a="b",le="1"}`.
func withLabel(name, label string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:len(name)-1] + "," + label + "}"
	}
	return name + "{" + label + "}"
}

// formatFloat renders a float the way Prometheus clients expect: integral
// values without an exponent or trailing zeros.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
