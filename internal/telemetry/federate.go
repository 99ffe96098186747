package telemetry

import (
	"math"
	"strings"
	"sync"
)

// Worker metrics federation: worker-side registries vanish when the worker
// process exits, so workers piggyback compact snapshots of their registry
// on the dispatch protocol (heartbeats and submits) and the coordinator
// merges them into its own registry. One scrape of the coordinator's
// /metrics then shows the whole fleet: every worker series re-published
// under a `worker="<id>"` label, plus fleet aggregates under the reserved
// `worker="fleet"` label (a distinct label value rather than the bare
// series name, so federated data can never collide with — or double-count
// against — counters the coordinator tracks authoritatively itself, like
// gefin_cells_completed_total).
//
// The wire carries absolute values, not increments: the worker-side
// DeltaTracker only decides WHICH series to send (the ones that changed
// since the last send — the "delta" on the wire), while the coordinator's
// Federator derives increments by differencing against the last absolute
// value it saw from that worker. A restarted worker's counters restart
// from zero; the Federator detects the regression and counts the new value
// as the increment, so published series stay monotonic and nothing the old
// incarnation reported is counted twice or lost.

// FleetWorker is the reserved worker-label value for fleet-aggregated
// series. Worker ids must not use it.
const FleetWorker = "fleet"

// WireMetric is one series in a federated snapshot: absolute values, with
// histograms flattened to finite bucket bounds plus per-bucket
// (non-cumulative) counts, the +Inf bucket last — cumulative counts and
// infinite bounds do not survive JSON.
type WireMetric struct {
	Name  string  `json:"name"`
	Kind  Kind    `json:"kind"`
	Value float64 `json:"value"`           // counter/gauge value; histogram sum
	Count int64   `json:"count,omitempty"` // histogram observation count
	// Bounds are the histogram's finite upper bounds; Buckets holds one
	// count per bound plus the +Inf bucket, len(Bounds)+1 long.
	Bounds  []float64 `json:"bounds,omitempty"`
	Buckets []int64   `json:"buckets,omitempty"`
}

// DeltaTracker watches a registry and renders the series that changed
// since the last call, as absolute-valued WireMetrics. The zero value is
// ready; a nil tracker (or nil registry) always reports nothing.
type DeltaTracker struct {
	mu   sync.Mutex
	reg  *Registry
	last map[string]wireKey
}

// wireKey is the change-detection fingerprint of one series.
type wireKey struct {
	value float64
	count int64
}

// NewDeltaTracker returns a tracker over reg.
func NewDeltaTracker(reg *Registry) *DeltaTracker {
	return &DeltaTracker{reg: reg, last: make(map[string]wireKey)}
}

// Delta returns every series whose value changed since the previous Delta
// call (all of them, on the first). The returned values are absolute.
func (d *DeltaTracker) Delta() []WireMetric {
	if d == nil || d.reg == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []WireMetric
	for _, m := range d.reg.Snapshot() {
		k := wireKey{value: m.Value, count: m.Count}
		if prev, ok := d.last[m.Name]; ok && prev == k {
			continue
		}
		d.last[m.Name] = k
		wm := WireMetric{Name: m.Name, Kind: m.Kind, Value: m.Value, Count: m.Count}
		if m.Kind == KindHistogram {
			// De-cumulate the snapshot's buckets; drop the +Inf bound but
			// keep its count as the final bucket.
			prev := int64(0)
			for _, b := range m.Buckets {
				wm.Buckets = append(wm.Buckets, b.Count-prev)
				prev = b.Count
				if !math.IsInf(b.UpperBound, 1) {
					wm.Bounds = append(wm.Bounds, b.UpperBound)
				}
			}
		}
		out = append(out, wm)
	}
	return out
}

// Federator merges worker snapshots into a target registry. Safe for
// concurrent use; a nil federator discards merges.
type Federator struct {
	mu     sync.Mutex
	target *Registry
	// last holds, per worker, the last absolute value seen for each series
	// — the subtrahend for increment derivation and restart detection.
	last map[string]map[string]WireMetric
}

// NewFederator returns a federator publishing into target.
func NewFederator(target *Registry) *Federator {
	return &Federator{target: target, last: make(map[string]map[string]WireMetric)}
}

// Merge ingests one worker's snapshot: per-worker labeled series are
// brought up to the reported absolute values, and the derived increments
// are added to the worker="fleet" aggregates. Monotonic merge: a counter
// or histogram that went backwards means the worker restarted, and the new
// absolute value is taken as the increment since then.
func (f *Federator) Merge(worker string, ms []WireMetric) {
	if f == nil || worker == "" || len(ms) == 0 {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	prev, ok := f.last[worker]
	if !ok {
		prev = make(map[string]WireMetric)
		f.last[worker] = prev
	}
	for _, m := range ms {
		wlabel := `worker="` + worker + `"`
		switch m.Kind {
		case KindCounter:
			inc := m.Value - prev[m.Name].Value
			if inc < 0 { // worker restart: its counter began again at zero
				inc = m.Value
			}
			f.target.Counter(withLabel(m.Name, wlabel)).Add(int64(inc))
			f.target.Counter(withLabel(m.Name, `worker="`+FleetWorker+`"`)).Add(int64(inc))
		case KindGauge:
			f.target.Gauge(withLabel(m.Name, wlabel)).Set(int64(m.Value))
			// Fleet gauge: sum of the latest value from every worker.
			var sum int64
			for w, series := range f.last {
				if w == worker {
					continue
				}
				if g, ok := series[m.Name]; ok {
					sum += int64(g.Value)
				}
			}
			f.target.Gauge(withLabel(m.Name, `worker="`+FleetWorker+`"`)).Set(sum + int64(m.Value))
		case KindHistogram:
			p := prev[m.Name]
			deltas := make([]int64, len(m.Buckets))
			restart := m.Count < p.Count || len(p.Buckets) != len(m.Buckets)
			var sumDelta float64
			if restart || p.Buckets == nil {
				copy(deltas, m.Buckets)
				sumDelta = m.Value
			} else {
				for i := range m.Buckets {
					d := m.Buckets[i] - p.Buckets[i]
					if d < 0 {
						restart = true
						break
					}
					deltas[i] = d
				}
				if restart {
					copy(deltas, m.Buckets)
					sumDelta = m.Value
				} else {
					sumDelta = m.Value - p.Value
				}
			}
			f.target.Histogram(withLabel(m.Name, wlabel), m.Bounds).merge(deltas, sumDelta)
			f.target.Histogram(withLabel(m.Name, `worker="`+FleetWorker+`"`), m.Bounds).merge(deltas, sumDelta)
		}
		prev[m.Name] = m
	}
}

// Workers returns how many distinct worker ids have ever merged.
func (f *Federator) Workers() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.last)
}

// splitWorkerLabel separates a worker label from a series name:
// `x{outcome="sdc",worker="w1"}` -> (`x{outcome="sdc"}`, "w1"), and a name
// without one comes back unchanged with worker "". Summarize uses it to
// fold fleet aggregates into the campaign summary while skipping the
// per-worker mirrors that would double-count them.
func splitWorkerLabel(name string) (base, worker string) {
	i := strings.Index(name, `worker="`)
	if i < 1 { // absent, or not preceded by a brace/comma: not a label
		return name, ""
	}
	rest := name[i+len(`worker="`):]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return name, ""
	}
	worker = rest[:j]
	// Remove the label pair plus its separator: either `{worker="w"}` whole
	// (only label) or a leading `,`/trailing `,` inside a larger set.
	switch {
	case name[i-1] == '{' && strings.HasPrefix(rest[j+1:], "}"):
		base = name[:i-1] + rest[j+1+1:]
	case name[i-1] == ',':
		base = name[:i-1] + rest[j+1:]
	default: // worker="..." first with more labels after: drop trailing comma
		base = name[:i] + strings.TrimPrefix(rest[j+1:], ",")
	}
	return base, worker
}
