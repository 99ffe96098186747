package telemetry

import (
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("c_total") != c {
		t.Fatal("Counter did not return the existing collector")
	}

	g := r.Gauge("g")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}

	h := r.Histogram("h_seconds", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("histogram count = %d, want 5", got)
	}
	if got := h.Sum(); math.Abs(got-102.65) > 1e-9 {
		t.Fatalf("histogram sum = %g, want 102.65", got)
	}
}

func TestSnapshotStableOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("zzz_total").Inc()
	r.Gauge("aaa").Set(1)
	r.Histogram("mmm_seconds", []float64{1}).Observe(0.5)
	r.Counter(`bbb_total{outcome="x"}`).Add(3)

	var names []string
	for _, m := range r.Snapshot() {
		names = append(names, m.Name)
	}
	want := []string{`aaa`, `bbb_total{outcome="x"}`, `mmm_seconds`, `zzz_total`}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("snapshot order = %v, want %v", names, want)
	}

	// Histogram buckets are cumulative with a trailing +Inf.
	for _, m := range r.Snapshot() {
		if m.Kind != KindHistogram {
			continue
		}
		if len(m.Buckets) != 2 || !math.IsInf(m.Buckets[1].UpperBound, 1) {
			t.Fatalf("histogram buckets = %+v", m.Buckets)
		}
		if m.Buckets[0].Count != 1 || m.Buckets[1].Count != 1 {
			t.Fatalf("cumulative counts = %+v", m.Buckets)
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter(`gefin_samples_total{outcome="masked"}`).Add(10)
	r.Counter(`gefin_samples_total{outcome="sdc"}`).Add(2)
	r.Gauge("gefin_cells_expected").Set(3)
	h := r.Histogram("gefin_sample_duration_seconds", []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE gefin_samples_total counter\n",
		"gefin_samples_total{outcome=\"masked\"} 10\n",
		"gefin_samples_total{outcome=\"sdc\"} 2\n",
		"# TYPE gefin_cells_expected gauge\n",
		"gefin_cells_expected 3\n",
		"# TYPE gefin_sample_duration_seconds histogram\n",
		"gefin_sample_duration_seconds_bucket{le=\"0.01\"} 1\n",
		"gefin_sample_duration_seconds_bucket{le=\"0.1\"} 2\n",
		"gefin_sample_duration_seconds_bucket{le=\"+Inf\"} 3\n",
		"gefin_sample_duration_seconds_sum 5.055\n",
		"gefin_sample_duration_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\ngot:\n%s", want, out)
		}
	}
	// One TYPE line per family even with several labeled series.
	if n := strings.Count(out, "# TYPE gefin_samples_total"); n != 1 {
		t.Errorf("TYPE line for samples_total emitted %d times", n)
	}
}

// TestLabeledHistogramExposition: a histogram whose name carries labels
// (federated worker series, the per-workload index build time) renders
// its _sum and _count with the labels after the suffix, as Prometheus
// expects, not `name{...}_sum`.
func TestLabeledHistogramExposition(t *testing.T) {
	c := NewCampaign(nil)
	c.LiveIndexBuilt("sha", 1500*time.Millisecond)
	var sb strings.Builder
	if err := c.Registry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE gefin_live_index_build_seconds histogram\n",
		"gefin_live_index_build_seconds_bucket{workload=\"sha\",le=\"2.5\"} 1\n",
		"gefin_live_index_build_seconds_sum{workload=\"sha\"} 1.5\n",
		"gefin_live_index_build_seconds_count{workload=\"sha\"} 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\ngot:\n%s", want, out)
		}
	}
}

// TestSampleExitAndAuditSeries: every recorded exit is counted under its
// label, and the audit counter exists (at 0) once any sample was audited.
func TestSampleExitAndAuditSeries(t *testing.T) {
	c := NewCampaign(nil)
	for _, exit := range []string{ExitResolved, ExitResolved, ExitAudited, ExitConverged, ExitRan, ""} {
		c.RecordSample(&SampleRecord{Outcome: "masked", Exit: exit})
	}
	c.RecordAudit(false)
	want := map[string]int64{ExitResolved: 2, ExitAudited: 1, ExitConverged: 1, ExitRan: 1}
	var total int64
	for _, m := range c.Registry.Snapshot() {
		if strings.HasPrefix(m.Name, MetricSampleExits) {
			total += int64(m.Value)
		}
	}
	for exit, n := range want {
		if got := c.Registry.Counter(MetricSampleExits + `{exit="` + exit + `"}`).Value(); got != n {
			t.Errorf("exit %q counted %d, want %d", exit, got, n)
		}
	}
	if total != 5 {
		t.Errorf("%d exits counted, want 5 (a record without an exit counts none)", total)
	}
	found := false
	for _, m := range c.Registry.Snapshot() {
		found = found || m.Name == MetricAuditMismatches
	}
	if !found || c.Registry.Counter(MetricAuditMismatches).Value() != 0 {
		t.Fatal("a clean audit must publish the mismatch counter at 0")
	}
	c.RecordAudit(true)
	if got := c.Registry.Counter(MetricAuditMismatches).Value(); got != 1 {
		t.Fatalf("mismatch counter = %d, want 1", got)
	}
}

func TestNilRegistryAndCollectorsAreNoops(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	r.Histogram("x", DurationBuckets).Observe(1)
	if r.Snapshot() != nil {
		t.Fatal("nil registry produced a snapshot")
	}

	var (
		c *Counter
		g *Gauge
		h *Histogram
	)
	c.Add(1)
	g.Add(1)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil collectors reported values")
	}
}

// TestDisabledSamplePathZeroAllocs pins the disabled-telemetry contract:
// the per-sample recording path on a nil *Campaign allocates nothing, so
// library users who never enable telemetry pay zero on the hot path.
func TestDisabledSamplePathZeroAllocs(t *testing.T) {
	var c *Campaign
	rec := SampleRecord{Outcome: "masked", DurationNS: 1000, CyclesSkipped: 42}
	allocs := testing.AllocsPerRun(1000, func() {
		c.RecordSample(&rec)
		c.RecordCellQueue(time.Millisecond)
		c.WorkerBusy(1)
		c.FlushCell(nil, nil)
	})
	if allocs != 0 {
		t.Fatalf("disabled sample path allocates %.1f objects per run, want 0", allocs)
	}
	if c.Enabled() || c.Tracing() {
		t.Fatal("nil campaign reports enabled")
	}
}

func TestCampaignSummarize(t *testing.T) {
	c := NewCampaign(nil)
	for i := 0; i < 3; i++ {
		c.RecordSample(&SampleRecord{Outcome: "masked", DurationNS: 1e6, CyclesSkipped: 100, Checkpoint: 2})
	}
	c.RecordSample(&SampleRecord{Outcome: "sdc", DurationNS: 2e6, Checkpoint: 0})
	c.FlushCell(nil, nil)
	c.SetGridShape(4, 400, 2, 8)

	s := c.Summarize()
	if s.Samples != 4 || s.ByOutcome["masked"] != 3 || s.ByOutcome["sdc"] != 1 {
		t.Fatalf("summary samples = %+v", s)
	}
	if s.Cells != 1 || s.CellsExpected != 4 || s.SamplesExpected != 400 {
		t.Fatalf("summary cells = %+v", s)
	}
	if s.CheckpointHits != 3 || s.CheckpointMiss != 1 {
		t.Fatalf("summary checkpoints = %+v", s)
	}

	var nilC *Campaign
	if got := nilC.Summarize(); got.Samples != 0 || got.ByOutcome != nil {
		t.Fatalf("nil campaign summary = %+v", got)
	}
}

func TestHandlerEndpoints(t *testing.T) {
	c := NewCampaign(nil)
	c.RecordSample(&SampleRecord{Outcome: "masked", DurationNS: 1e6, CyclesSkipped: 10})
	srv := httptest.NewServer(Handler(c.Registry, func() Health {
		return Health{Role: "local", UptimeSeconds: 1.5,
			Campaign: map[string]any{"samples": 1}}
	}))
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	metrics := get("/metrics")
	if !strings.Contains(metrics, `gefin_samples_total{outcome="masked"} 1`) ||
		!strings.Contains(metrics, "gefin_checkpoint_hits_total 1") {
		t.Fatalf("metrics output:\n%s", metrics)
	}
	// The build-info gauge is published into the registry as a side effect:
	// constant 1 with version and Go toolchain labels.
	if !strings.Contains(metrics, MetricBuildInfo+`{version="`) ||
		!strings.Contains(metrics, `go="go`) {
		t.Fatalf("metrics output missing %s:\n%s", MetricBuildInfo, metrics)
	}
	healthz := get("/healthz")
	if !strings.Contains(healthz, `"role":"local"`) ||
		!strings.Contains(healthz, `"uptime_seconds":1.5`) ||
		!strings.Contains(healthz, `"samples":1`) {
		t.Fatalf("healthz output:\n%s", healthz)
	}
	vars := get("/debug/vars")
	if !strings.Contains(vars, `"campaign"`) || !strings.Contains(vars, "gefin_checkpoint_hits_total") {
		t.Fatalf("expvar output missing campaign variable:\n%.400s", vars)
	}
	if idx := get("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Fatalf("pprof index:\n%.200s", idx)
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c_total").Inc()
				r.Histogram("h_seconds", DurationBuckets).Observe(0.01)
				r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c_total").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h_seconds", DurationBuckets).Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}
