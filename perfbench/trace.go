package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mbusim/internal/dispatch"
)

// Layers are the mbusim packages the benchmark drives. Every span carries
// the layer whose public function it wraps, so a layer's self time is the
// time spent in calls into it minus the time of spans nested inside them.
var layers = []string{"core", "workloads", "sim", "cache", "tlb", "forensics", "liveness", "telemetry", "dispatch"}

// span is one timed call; its id is its index in recorder.spans plus 1.
type span struct {
	parent     int
	layer      string
	start, end time.Duration
}

// recorder keeps spans in memory until the run ends. A nil recorder is the
// untraced run: every method is a no-op apart from running the wrapped call.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(layer string, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{parent: parent, layer: layer, start: now, end: -1})
	return len(r.spans)
}

// finish closes span id and returns its duration.
func (r *recorder) finish(id int) time.Duration {
	if r == nil || id == 0 {
		return 0
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.end = now
	return s.end - s.start
}

// do runs f inside a span and returns the span's duration. On a nil
// recorder f still runs and its wall time is returned, so callers time
// layer calls the same way whether or not they trace.
func (r *recorder) do(layer string, parent int, f func()) time.Duration {
	if r == nil {
		t := time.Now()
		f()
		return time.Since(t)
	}
	id := r.begin(layer, parent)
	f()
	return r.finish(id)
}

// selfTimes returns each layer's self time: the summed duration of its
// spans minus the part covered by their direct children.
func (r *recorder) selfTimes() map[string]time.Duration {
	out := make(map[string]time.Duration, len(layers))
	for _, l := range layers {
		out[l] = 0
	}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if s.end < 0 {
			continue
		}
		out[s.layer] += s.end - s.start
		if s.parent > 0 {
			out[r.spans[s.parent-1].layer] -= s.end - s.start
		}
	}
	return out
}

func (r *recorder) count() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// traceSink wraps the io.Writer handed to telemetry.NewTracer: it counts
// the bytes the tracer writes, records each Write as a telemetry span
// nested in the campaign span that caused it, and keeps a copy of the
// records for the per-sample metrics.
type traceSink struct {
	w      io.Writer
	rec    *recorder
	parent atomic.Int64 // span id of the campaign or cell currently running
	mu     sync.Mutex
	writes int
	bytes  int64
	busy   time.Duration
	kept   bytes.Buffer
}

func newSink(rec *recorder) *traceSink { return &traceSink{w: io.Discard, rec: rec} }

func (t *traceSink) Write(p []byte) (int, error) {
	var n int
	var err error
	d := t.rec.do("telemetry", int(t.parent.Load()), func() { n, err = t.w.Write(p) })
	t.mu.Lock()
	t.writes++
	t.bytes += int64(n)
	t.busy += d
	t.kept.Write(p[:n])
	t.mu.Unlock()
	return n, err
}

// httpStats accumulates what the wrapping RoundTripper sees: latency per
// dispatch operation, failed calls, lease replies and worker busy time.
type httpStats struct {
	mu        sync.Mutex
	lat       map[string][]float64 // op -> latencies in ms
	calls     int
	failed    int
	leases    int
	waits     int
	busy      time.Duration
	firstSeen map[string]bool // workers that have made a lease call
}

func newHTTPStats() *httpStats {
	return &httpStats{lat: make(map[string][]float64), firstSeen: make(map[string]bool)}
}

func (s *httpStats) joined() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.firstSeen)
}

// opOf names the dispatch operation a request performs.
func opOf(req *http.Request) string {
	p := req.URL.Path
	switch {
	case p == dispatch.PathLease:
		return "lease"
	case p == dispatch.PathSubmit:
		return "submit"
	case p == dispatch.PathHeartbeat:
		return "heartbeat"
	case p == dispatch.PathAbandon:
		return "abandon"
	case p == dispatch.PathCampaigns && req.Method == http.MethodPost:
		return "admit"
	case strings.HasSuffix(p, "/results"):
		return "results"
	case strings.HasSuffix(p, "/events"):
		return "events"
	case strings.HasPrefix(p, dispatch.PathCampaigns+"/") && req.Method == http.MethodGet:
		return "status"
	}
	return "other"
}

// timedTransport is the RoundTripper set on Worker.Client and
// Client.HTTPClient. Every call counts toward attempted operations and a
// refused or non-2xx call toward failed ones, traced or not; with a
// recorder it also records a dispatch span per call, reads lease replies
// to count StatusWait answers, and marks the worker busy from a granted
// lease to the start of its submit.
type timedTransport struct {
	base   http.RoundTripper
	rec    *recorder
	stats  *httpStats
	worker string // empty for clients

	// Worker-side cell span, opened when a lease is granted and closed when
	// the submit starts: the time the worker spends inside core.
	cellSpan  int
	cellStart time.Time
	sink      *traceSink
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	op := opOf(req)
	if t.worker != "" && op == "submit" && !t.cellStart.IsZero() {
		t.rec.finish(t.cellSpan)
		t.stats.mu.Lock()
		t.stats.busy += time.Since(t.cellStart)
		t.stats.mu.Unlock()
		t.cellStart = time.Time{}
	}
	start := time.Now()
	id := 0
	if op != "events" {
		// An events long-poll waits for the campaign to end; that is
		// waiting, not time spent in the dispatch layer.
		id = t.rec.begin("dispatch", 0)
	}
	resp, err := t.base.RoundTrip(req)
	var body []byte
	if err == nil && (op == "lease" || op == "results" || op == "events") {
		// Read the body inside the timed span: a lease reply is inspected
		// for its status, and a results download is not done until its
		// bytes are in.
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(body))
	}
	t.rec.finish(id)
	ms := float64(time.Since(start).Nanoseconds()) / 1e6

	t.stats.mu.Lock()
	defer t.stats.mu.Unlock()
	if req.Context().Err() != nil {
		return resp, err // the caller gave up: shutdown, not a failed call
	}
	t.stats.calls++
	if err != nil || resp.StatusCode < 200 || resp.StatusCode > 299 {
		t.stats.failed++
		status := "no response"
		if err == nil {
			status = resp.Status
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s %s failed: %s %v\n", req.Method, req.URL.Path, status, err)
		return resp, err
	}
	if op != "events" {
		t.stats.lat[op] = append(t.stats.lat[op], ms)
	}
	if op == "lease" {
		t.stats.firstSeen[t.worker] = true
		var rep dispatch.LeaseReply
		if json.Unmarshal(body, &rep) == nil {
			t.stats.leases++
			switch rep.Status {
			case dispatch.StatusWait:
				t.stats.waits++
			case dispatch.StatusLease:
				t.cellStart = time.Now()
				t.cellSpan = t.rec.begin("core", 0)
				if t.sink != nil {
					t.sink.parent.Store(int64(t.cellSpan))
				}
			}
		}
	}
	return resp, nil
}

// quantile is the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
