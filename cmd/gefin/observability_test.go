package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mbusim/internal/core"
	"mbusim/internal/dispatch"
	"mbusim/internal/telemetry"
)

// rawLease and rawSubmit drive the dispatch protocol over HTTP directly, so
// a test can play a worker without running any cells.
func rawLease(t *testing.T, url, worker string) *dispatch.LeaseReply {
	t.Helper()
	var rep dispatch.LeaseReply
	postJSON(t, url+dispatch.PathLease, &dispatch.LeaseRequest{Worker: worker}, &rep)
	if rep.Status != dispatch.StatusLease {
		t.Fatalf("lease = %+v", rep)
	}
	return &rep
}

func rawSubmit(t *testing.T, url, worker string, lease *dispatch.LeaseReply, res *core.Result) {
	t.Helper()
	var rep dispatch.SubmitReply
	postJSON(t, url+dispatch.PathSubmit, &dispatch.SubmitRequest{
		Worker: worker, LeaseID: lease.LeaseID, Campaign: lease.Campaign, Cell: lease.Cell, Result: res}, &rep)
	if rep.Status != dispatch.StatusAccepted {
		t.Fatalf("submit = %+v", rep)
	}
}

func postJSON(t *testing.T, url string, req, rep any) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(rep); err != nil {
		t.Fatal(err)
	}
}

// oneCell is the arg list for the first cell of tinyGrid, so a later
// tinyGrid -resume run picks up exactly where it left off.
func oneCell(extra ...string) []string {
	return append([]string{"-comp", "L1D", "-workload", "stringSearch", "-faults", "1", "-samples", "3", "-q"}, extra...)
}

// readEventsFile parses an on-disk event log, failing the test on error.
func readEventsFile(t *testing.T, path string) *telemetry.EventList {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	el, err := telemetry.ReadEvents(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("event log unreadable: %v\n%s", err, data)
	}
	return el
}

// TestEventLogSurvivesRestartAndResume is the durability test: a campaign
// writes an event log, is "restarted" (a second process resumes the results
// file), and the continued log keeps strictly monotonic sequence numbers
// across both sessions — including when the first session's final line was
// torn mid-write by a crash.
func TestEventLogSurvivesRestartAndResume(t *testing.T) {
	dir := t.TempDir()
	outPath := filepath.Join(dir, "results.json")
	evPath := filepath.Join(dir, "events.jsonl")

	// Session 1: one cell of the grid.
	code, _, stderr := runGefin(t, oneCell("-out", outPath, "-events", evPath)...)
	if code != 0 {
		t.Fatalf("session 1 failed: %d (%s)", code, stderr)
	}
	first := readEventsFile(t, evPath)
	if n := len(first.Events); n < 3 { // campaign_start, cell_done, campaign_done
		t.Fatalf("session 1 logged %d events: %+v", n, first.Events)
	}

	// Crash injection: a torn half-line at the tail, as a SIGKILL mid-write
	// would leave. The resumed session must cut it off, not refuse or append
	// garbage after it.
	if err := os.WriteFile(evPath, append(readFile(t, evPath), []byte(`{"seq":999,"t`)...), 0o644); err != nil {
		t.Fatal(err)
	}

	// Session 2: resume the remaining two cells, continuing the log.
	code, _, stderr = runGefin(t, tinyGrid("-out", outPath, "-resume", "-events", evPath)...)
	if code != 0 {
		t.Fatalf("session 2 failed: %d (%s)", code, stderr)
	}

	el := readEventsFile(t, evPath)
	if el.Truncated != 0 {
		t.Fatalf("final log still has a truncated line: %+v", el)
	}
	var lastSeq uint64
	starts, dones := 0, 0
	for _, ev := range el.Events {
		if ev.Seq <= lastSeq {
			t.Fatalf("seq %d after %d: log not strictly monotonic across restart", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		switch ev.Type {
		case telemetry.EventCampaignStart:
			starts++
		case telemetry.EventCellDone:
			dones++
		}
	}
	if starts != 2 {
		t.Fatalf("campaign_start events = %d, want 2 (one per session)", starts)
	}
	if dones != 3 {
		t.Fatalf("cell_done events = %d, want 3 (1 + 2 resumed)", dones)
	}
}

// TestTraceSurvivesRestartAndResume is the trace twin of the event-log
// durability test: a resumed campaign continues the first session's trace,
// cutting the half line a crash left at its tail, instead of starting the
// file over.
func TestTraceSurvivesRestartAndResume(t *testing.T) {
	dir := t.TempDir()
	outPath := filepath.Join(dir, "results.json")
	trPath := filepath.Join(dir, "trace.jsonl")

	// Session 1: one cell of the grid, three samples.
	code, _, stderr := runGefin(t, oneCell("-out", outPath, "-trace", trPath)...)
	if code != 0 {
		t.Fatalf("session 1 failed: %d (%s)", code, stderr)
	}
	if err := os.WriteFile(trPath, append(readFile(t, trPath), []byte(`{"type":"sample","co`)...), 0o644); err != nil {
		t.Fatal(err)
	}

	// Session 2: resume the remaining two cells, continuing the trace.
	code, _, stderr = runGefin(t, tinyGrid("-out", outPath, "-resume", "-trace", trPath)...)
	if code != 0 {
		t.Fatalf("session 2 failed: %d (%s)", code, stderr)
	}
	tr, err := telemetry.ReadTraceTyped(bytes.NewReader(readFile(t, trPath)))
	if err != nil {
		t.Fatalf("trace unreadable after resume: %v", err)
	}
	if len(tr.Samples) != 9 || tr.Truncated != 0 {
		t.Fatalf("trace after resume: %d samples, %d truncated; want 9 (3 + 6 resumed), 0",
			len(tr.Samples), tr.Truncated)
	}
	cells := map[int]int{}
	for _, rec := range tr.Samples {
		cells[rec.Faults]++
	}
	if cells[1] != 3 || cells[2] != 3 || cells[3] != 3 {
		t.Fatalf("samples per cardinality = %v, want 3 each", cells)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestWatchModelRendering pins the dashboard: a fixed event stream must
// render to exactly this text.
func TestWatchModelRendering(t *testing.T) {
	m := newWatchModel()
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	sec := int64(time.Second)
	evs := []telemetry.Event{
		{Seq: 1, TimeNS: base, Type: telemetry.EventCampaignStart, Cell: -1, Cells: 3},
		{Seq: 2, TimeNS: base, Type: telemetry.EventWorkerJoin, Worker: "w1", Cell: -1},
		{Seq: 3, TimeNS: base, Type: telemetry.EventCellLeased, Worker: "w1", Cell: 0,
			Comp: "L1D", Workload: "CRC32", Faults: 2},
		{Seq: 4, TimeNS: base + 1*sec, Type: telemetry.EventWorkerJoin, Worker: "w2", Cell: -1},
		{Seq: 5, TimeNS: base + 1*sec, Type: telemetry.EventCellLeased, Worker: "w2", Cell: 1,
			Comp: "L2", Workload: "matrixMult", Faults: 1},
		{Seq: 6, TimeNS: base + 4*sec, Type: telemetry.EventCellDone, Worker: "w1", Cell: 0,
			Samples: 100, Counts: map[string]int{"masked": 75, "sdc": 25}},
		{Seq: 7, TimeNS: base + 5*sec, Type: telemetry.EventLeaseExpired, Worker: "w2", Cell: 1},
		{Seq: 8, TimeNS: base + 5*sec, Type: telemetry.EventCellRetried, Cell: 1, Retries: 1},
		{Seq: 9, TimeNS: base + 6*sec, Type: telemetry.EventCellLeased, Worker: "w1", Cell: 1,
			Comp: "L2", Workload: "matrixMult", Faults: 1},
	}
	for _, ev := range evs {
		m.apply(ev)
	}
	got := renderWatch(m)
	want := strings.Join([]string{
		"watch: 1/3 cells, 100 samples (0.17 cells/s), 1 leases expired, 1 cells retried | eta 12s",
		"  outcomes: masked 75.0% sdc 25.0%",
		"  workers: 2 live",
		"    w1                   busy cell 1 (L2/matrixMult/1-bit)        1 cells done",
		"    w2                   idle                                     0 cells done",
		"",
	}, "\n")
	if got != want {
		t.Fatalf("dashboard snapshot:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// Campaign end flips the header to a terminal state.
	m.apply(telemetry.Event{Seq: 10, TimeNS: base + 9*sec, Type: telemetry.EventCampaignDone,
		Cell: -1, Cells: 3})
	if out := renderWatch(m); !strings.Contains(out, "| complete") {
		t.Fatalf("done dashboard missing completion marker:\n%s", out)
	}
	if !m.done {
		t.Fatal("model did not record campaign end")
	}
}

// TestWatchStreamsFromCoordinator drives runWatch against a live
// coordinator: it must render the campaign as events arrive and exit 0 at
// campaign_done.
func TestWatchStreamsFromCoordinator(t *testing.T) {
	specs := []core.Spec{
		{Workload: "stringSearch", Component: core.CompL1D, Faults: 1, Samples: 3, Seed: 1},
	}
	tel := telemetry.NewCampaign(nil)
	tel.Events = telemetry.NewEventLog(nil, 0)
	svc, err := dispatch.NewService(t.TempDir(), dispatch.ServiceOptions{Tel: tel})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.FleetMux())
	defer srv.Close()
	if _, _, err := svc.Submit(&dispatch.SubmitCampaignRequest{Specs: specs}, nil, nil); err != nil {
		t.Fatal(err)
	}

	var out, errB bytes.Buffer
	watchDone := make(chan int, 1)
	go func() { watchDone <- runWatch(&out, &errB, srv.URL) }()

	// A fabricated worker completes the only cell.
	rep := rawLease(t, srv.URL, "w1")
	res := &core.Result{Spec: specs[0], GoldenCycles: 100, TargetBits: 64}
	res.Counts[core.EffectMasked] = specs[0].Samples
	rawSubmit(t, srv.URL, "w1", rep, res)

	select {
	case code := <-watchDone:
		if code != 0 {
			t.Fatalf("watch exit = %d (stderr: %s)", code, errB.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("watch never saw campaign_done; output so far:\n%s", out.String())
	}
	rendered := out.String()
	for _, want := range []string{"1/1 cells", "w1", "masked 100.0%"} {
		if !strings.Contains(rendered, want) {
			t.Fatalf("watch output missing %q:\n%s", want, rendered)
		}
	}
}

// TestStatusLineFleet: coordinator summaries grow a fleet section.
func TestStatusLineFleet(t *testing.T) {
	s := telemetry.Summary{
		Samples: 10, SamplesExpected: 100,
		ByOutcome: map[string]int64{"masked": 10},
		Cells:     1, CellsExpected: 10,
		WorkersLive: 2, WorkersSeen: 3, CellsLeased: 2,
		LeasesExpired: 1, CellsRetried: 1,
	}
	line := statusLine(s, 10*time.Second)
	for _, want := range []string{"fleet 2/3 workers live", "2 leased", "1 expired", "1 retried"} {
		if !strings.Contains(line, want) {
			t.Errorf("fleet status missing %q: %s", want, line)
		}
	}
	// A purely local summary must not render an empty fleet section.
	s.WorkersLive, s.WorkersSeen, s.CellsLeased, s.LeasesExpired, s.CellsRetried = 0, 0, 0, 0, 0
	if line := statusLine(s, 10*time.Second); strings.Contains(line, "fleet") {
		t.Errorf("local status grew a fleet section: %s", line)
	}
}
