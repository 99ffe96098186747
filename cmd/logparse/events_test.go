package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mbusim/internal/core"
	"mbusim/internal/telemetry"
)

// writeEventLog marshals events to a JSONL file.
func writeEventLog(t *testing.T, dir string, evs []telemetry.Event) string {
	t.Helper()
	var b strings.Builder
	for _, ev := range evs {
		line, err := json.Marshal(&ev)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	path := filepath.Join(dir, "events.jsonl")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// chaosEvents is a two-worker campaign where w2 dies holding cell 1: lease,
// expiry, retry, reassignment to w1, completion.
func chaosEvents() []telemetry.Event {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	sec := int64(time.Second)
	return []telemetry.Event{
		{Seq: 1, TimeNS: base, Type: telemetry.EventCampaignStart, Cell: -1, Cells: 2},
		{Seq: 2, TimeNS: base, Type: telemetry.EventWorkerJoin, Worker: "w1", Cell: -1},
		{Seq: 3, TimeNS: base, Type: telemetry.EventCellLeased, Worker: "w1", Cell: 0,
			Comp: "L1D", Workload: "CRC32", Faults: 1, Lease: 1},
		{Seq: 4, TimeNS: base + 1*sec, Type: telemetry.EventWorkerJoin, Worker: "w2", Cell: -1},
		{Seq: 5, TimeNS: base + 1*sec, Type: telemetry.EventCellLeased, Worker: "w2", Cell: 1,
			Comp: "L1D", Workload: "CRC32", Faults: 2, Lease: 2},
		{Seq: 6, TimeNS: base + 3*sec, Type: telemetry.EventCellDone, Worker: "w1", Cell: 0,
			Comp: "L1D", Workload: "CRC32", Faults: 1, Samples: 4,
			Counts: map[string]int{"masked": 4}},
		{Seq: 7, TimeNS: base + 6*sec, Type: telemetry.EventLeaseExpired, Worker: "w2", Cell: 1,
			Comp: "L1D", Workload: "CRC32", Faults: 2, Lease: 2},
		{Seq: 8, TimeNS: base + 6*sec, Type: telemetry.EventCellRetried, Cell: 1,
			Comp: "L1D", Workload: "CRC32", Faults: 2, Retries: 1},
		{Seq: 9, TimeNS: base + 7*sec, Type: telemetry.EventCellLeased, Worker: "w1", Cell: 1,
			Comp: "L1D", Workload: "CRC32", Faults: 2, Lease: 3},
		{Seq: 10, TimeNS: base + 9*sec, Type: telemetry.EventCellDone, Worker: "w1", Cell: 1,
			Comp: "L1D", Workload: "CRC32", Faults: 2, Samples: 4,
			Counts: map[string]int{"masked": 3, "sdc": 1}},
		{Seq: 11, TimeNS: base + 9*sec, Type: telemetry.EventCampaignDone, Cell: -1, Cells: 2},
	}
}

// chaosResults builds the results file matching chaosEvents.
func chaosResults(t *testing.T, dir string) string {
	t.Helper()
	rs := core.NewResultSet()
	r1 := &core.Result{Spec: core.Spec{Workload: "CRC32", Component: "L1D", Faults: 1, Samples: 4}}
	r1.Counts[core.EffectMasked] = 4
	r2 := &core.Result{Spec: core.Spec{Workload: "CRC32", Component: "L1D", Faults: 2, Samples: 4}}
	r2.Counts[core.EffectMasked] = 3
	r2.Counts[core.EffectSDC] = 1
	rs.Add(r1)
	rs.Add(r2)
	path := filepath.Join(dir, "results.json")
	if err := rs.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestAnalyzeEventsTimelineAndCrossCheck(t *testing.T) {
	dir := t.TempDir()
	evPath := writeEventLog(t, dir, chaosEvents())
	resPath := chaosResults(t, dir)

	code, stdout, stderr := runLogparse(t, "", "-events", evPath, "-results", resPath)
	if code != 0 {
		t.Fatalf("exit=%d stderr=%s", code, stderr)
	}
	for _, want := range []string{
		"2 cells completed, campaign complete",
		"cross-check: event log and " + resPath + " agree (2 cells)",
		"workers (2):",
	} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("output missing %q:\n%s", want, stdout)
		}
	}
	// Cell 1's chaos story: two leases, one expiry, one retry, finished by w1.
	var cell1 string
	for _, line := range strings.Split(stdout, "\n") {
		if strings.HasPrefix(line, "1 ") {
			cell1 = line
		}
	}
	if cell1 == "" {
		t.Fatalf("no timeline row for cell 1:\n%s", stdout)
	}
	fields := strings.Fields(cell1)
	// cell comp workload k leases expired retried lifetime worker
	if fields[4] != "2" || fields[5] != "1" || fields[6] != "1" || fields[8] != "w1" {
		t.Fatalf("cell 1 timeline = %q", cell1)
	}
	// Lifetime: first lease at +1s, done at +9s.
	if fields[7] != "8s" {
		t.Fatalf("cell 1 lifetime = %q, want 8s", fields[7])
	}
	// w2 never completed anything.
	if !strings.Contains(stdout, "w2") {
		t.Fatalf("worker table missing w2:\n%s", stdout)
	}
}

func TestAnalyzeEventsDetectsMismatches(t *testing.T) {
	dir := t.TempDir()

	// Results file missing a cell the log says completed.
	evPath := writeEventLog(t, dir, chaosEvents())
	rs := core.NewResultSet()
	r := &core.Result{Spec: core.Spec{Workload: "CRC32", Component: "L1D", Faults: 1, Samples: 4}}
	r.Counts[core.EffectMasked] = 4
	rs.Add(r)
	partial := filepath.Join(dir, "partial.json")
	if err := rs.Save(partial); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runLogparse(t, "", "-events", evPath, "-results", partial)
	if code != 1 || !strings.Contains(stderr, "results file has no such cell") {
		t.Fatalf("missing-cell mismatch: exit=%d stderr=%s", code, stderr)
	}

	// Non-monotonic sequence numbers are corruption.
	evs := chaosEvents()
	evs[3].Seq = 2
	badPath := filepath.Join(dir, "bad")
	if err := os.Mkdir(badPath, 0o755); err != nil {
		t.Fatal(err)
	}
	evPath = writeEventLog(t, badPath, evs)
	code, _, stderr = runLogparse(t, "", "-events", evPath)
	if code != 1 || !strings.Contains(stderr, "strictly monotonic") {
		t.Fatalf("seq regression: exit=%d stderr=%s", code, stderr)
	}

	// A cell completed twice is an accounting bug.
	evs = chaosEvents()
	dup := evs[9]
	evs = append(evs, telemetry.Event{Seq: 12, TimeNS: dup.TimeNS, Type: dup.Type,
		Worker: dup.Worker, Cell: dup.Cell, Comp: dup.Comp, Workload: dup.Workload,
		Faults: dup.Faults, Samples: dup.Samples})
	dupPath := filepath.Join(dir, "dup")
	if err := os.Mkdir(dupPath, 0o755); err != nil {
		t.Fatal(err)
	}
	evPath = writeEventLog(t, dupPath, evs)
	code, _, stderr = runLogparse(t, "", "-events", evPath)
	if code != 1 || !strings.Contains(stderr, "completed 2 times") {
		t.Fatalf("double completion: exit=%d stderr=%s", code, stderr)
	}
}

func TestAnalyzeEventsToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	evPath := writeEventLog(t, dir, chaosEvents())
	f, err := os.OpenFile(evPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"seq":12,"t_ns":99,"ty`)
	f.Close()

	code, stdout, stderr := runLogparse(t, "", "-events", evPath)
	if code != 0 {
		t.Fatalf("torn tail must not fail analysis: exit=%d stderr=%s", code, stderr)
	}
	if !strings.Contains(stderr, "skipped 1 truncated final line") {
		t.Fatalf("truncation note missing: %s", stderr)
	}
	if !strings.Contains(stdout, "2 cells completed") {
		t.Fatalf("analysis output:\n%s", stdout)
	}
}

// serviceEvents interleaves two campaigns over one shared fleet, the way a
// campaign service's log looks: both campaigns use cell index 0, which must
// NOT read as one cell completing twice.
func serviceEvents() []telemetry.Event {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	sec := int64(time.Second)
	return []telemetry.Event{
		{Seq: 1, TimeNS: base, Type: telemetry.EventCampaignQueued, Campaign: "c000000", Tenant: "alpha", Cell: -1, Cells: 1},
		{Seq: 2, TimeNS: base, Type: telemetry.EventCampaignState, Campaign: "c000000", Tenant: "alpha", Cell: -1, Detail: "running"},
		{Seq: 3, TimeNS: base, Type: telemetry.EventCampaignStart, Campaign: "c000000", Cell: -1, Cells: 1},
		{Seq: 4, TimeNS: base + 1*sec, Type: telemetry.EventCampaignQueued, Campaign: "c000001", Tenant: "beta", Cell: -1, Cells: 1},
		{Seq: 5, TimeNS: base + 1*sec, Type: telemetry.EventCampaignState, Campaign: "c000001", Tenant: "beta", Cell: -1, Detail: "running"},
		{Seq: 6, TimeNS: base + 1*sec, Type: telemetry.EventCampaignStart, Campaign: "c000001", Cell: -1, Cells: 1},
		{Seq: 7, TimeNS: base + 1*sec, Type: telemetry.EventCellLeased, Campaign: "c000000", Worker: "w1", Cell: 0,
			Comp: "L1D", Workload: "CRC32", Faults: 1, Lease: 1},
		{Seq: 8, TimeNS: base + 2*sec, Type: telemetry.EventCellLeased, Campaign: "c000001", Worker: "w1", Cell: 0,
			Comp: "DTLB", Workload: "CRC32", Faults: 2, Lease: 2},
		{Seq: 9, TimeNS: base + 3*sec, Type: telemetry.EventCellDone, Campaign: "c000000", Worker: "w1", Cell: 0,
			Comp: "L1D", Workload: "CRC32", Faults: 1, Samples: 4, Counts: map[string]int{"masked": 4}},
		{Seq: 10, TimeNS: base + 3*sec, Type: telemetry.EventCampaignDone, Campaign: "c000000", Cell: -1, Cells: 1},
		{Seq: 11, TimeNS: base + 3*sec, Type: telemetry.EventCampaignState, Campaign: "c000000", Tenant: "alpha", Cell: -1, Detail: "done"},
		{Seq: 12, TimeNS: base + 4*sec, Type: telemetry.EventCellDone, Campaign: "c000001", Worker: "w1", Cell: 0,
			Comp: "DTLB", Workload: "CRC32", Faults: 2, Samples: 4, Counts: map[string]int{"masked": 3, "sdc": 1}},
		{Seq: 13, TimeNS: base + 4*sec, Type: telemetry.EventCampaignDone, Campaign: "c000001", Cell: -1, Cells: 1},
		{Seq: 14, TimeNS: base + 4*sec, Type: telemetry.EventCampaignState, Campaign: "c000001", Tenant: "beta", Cell: -1, Detail: "done"},
	}
}

// TestAnalyzeEventsMultiCampaign: a shared service log is keyed per
// campaign — colliding cell indexes across campaigns are distinct cells,
// the summary counts campaigns by final state, and the timeline grows a
// campaign column.
func TestAnalyzeEventsMultiCampaign(t *testing.T) {
	dir := t.TempDir()
	evPath := writeEventLog(t, dir, serviceEvents())

	code, stdout, stderr := runLogparse(t, "", "-events", evPath)
	if code != 0 {
		t.Fatalf("exit=%d stderr=%s stdout=%s", code, stderr, stdout)
	}
	if strings.Contains(stderr, "completed 2 times") {
		t.Fatalf("colliding cell indexes across campaigns misread as a double completion:\n%s", stderr)
	}
	if !strings.Contains(stdout, "2 cells completed across 2 campaigns: 2 done") {
		t.Fatalf("multi-campaign summary missing:\n%s", stdout)
	}
	if !strings.Contains(stdout, "campaign") || !strings.Contains(stdout, "c000001") {
		t.Fatalf("timeline lacks the campaign column:\n%s", stdout)
	}
}

// TestAnalyzeEventsCampaignFilter: -campaign narrows analysis to one
// campaign's slice, which is also how -results cross-checks a per-campaign
// results file out of a shared log.
func TestAnalyzeEventsCampaignFilter(t *testing.T) {
	dir := t.TempDir()
	evPath := writeEventLog(t, dir, serviceEvents())

	rs := core.NewResultSet()
	r := &core.Result{Spec: core.Spec{Workload: "CRC32", Component: "L1D", Faults: 1, Samples: 4}}
	r.Counts[core.EffectMasked] = 4
	rs.Add(r)
	resPath := filepath.Join(dir, "c000000.json")
	if err := rs.Save(resPath); err != nil {
		t.Fatal(err)
	}

	// Without -campaign the cross-check is ambiguous and refuses.
	code, _, stderr := runLogparse(t, "", "-events", evPath, "-results", resPath)
	if code != 2 || !strings.Contains(stderr, "add -campaign") {
		t.Fatalf("multi-campaign -results: exit=%d stderr=%s", code, stderr)
	}

	code, stdout, stderr := runLogparse(t, "", "-events", evPath, "-campaign", "c000000", "-results", resPath)
	if code != 0 {
		t.Fatalf("exit=%d stderr=%s", code, stderr)
	}
	if !strings.Contains(stdout, "1 cells completed, campaign complete") {
		t.Fatalf("filtered slice should read as a single campaign:\n%s", stdout)
	}
	if !strings.Contains(stdout, "agree (1 cells)") {
		t.Fatalf("cross-check missing:\n%s", stdout)
	}
	if strings.Contains(stdout, "DTLB") {
		t.Fatalf("filter leaked the other campaign's cells:\n%s", stdout)
	}

	code, _, stderr = runLogparse(t, "", "-events", evPath, "-campaign", "c999999")
	if code != 1 || !strings.Contains(stderr, "no events for campaign") {
		t.Fatalf("unknown campaign filter: exit=%d stderr=%s", code, stderr)
	}

	code, _, stderr = runLogparse(t, "", "-campaign", "c000000")
	if code != 2 || !strings.Contains(stderr, "needs -events") {
		t.Fatalf("-campaign without -events: exit=%d stderr=%s", code, stderr)
	}
}

// TestAnalyzeEventsLocalResume: a local run resumed into the same log
// numbers its pending cells from 0 again, so two sessions reuse index 0
// for different cells. Cells are told apart by their spec: the log agrees
// with the results file, and no cell reads as completed twice.
func TestAnalyzeEventsLocalResume(t *testing.T) {
	dir := t.TempDir()
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	sec := int64(time.Second)
	done := func(seq uint64, at int64, cell, k int) telemetry.Event {
		return telemetry.Event{Seq: seq, TimeNS: base + at*sec, Type: telemetry.EventCellDone, Cell: cell,
			Comp: "L1D", Workload: "CRC32", Faults: k, Samples: 4, Counts: map[string]int{"masked": 4}}
	}
	evPath := writeEventLog(t, dir, []telemetry.Event{
		// Session 1: the 1-bit cell alone.
		{Seq: 1, TimeNS: base, Type: telemetry.EventCampaignStart, Cell: -1, Cells: 1},
		done(2, 1, 0, 1),
		{Seq: 3, TimeNS: base + sec, Type: telemetry.EventCampaignDone, Cell: -1, Cells: 1},
		// Session 2: -all -resume runs the other two as cells 0 and 1.
		{Seq: 4, TimeNS: base + 2*sec, Type: telemetry.EventCampaignStart, Cell: -1, Cells: 2},
		done(5, 3, 0, 2),
		done(6, 4, 1, 3),
		{Seq: 7, TimeNS: base + 4*sec, Type: telemetry.EventCampaignDone, Cell: -1, Cells: 2},
	})
	rs := core.NewResultSet()
	for k := 1; k <= 3; k++ {
		r := &core.Result{Spec: core.Spec{Workload: "CRC32", Component: "L1D", Faults: k, Samples: 4}}
		r.Counts[core.EffectMasked] = 4
		rs.Add(r)
	}
	resPath := filepath.Join(dir, "results.json")
	if err := rs.Save(resPath); err != nil {
		t.Fatal(err)
	}

	code, stdout, stderr := runLogparse(t, "", "-events", evPath, "-results", resPath)
	if code != 0 {
		t.Fatalf("exit=%d stderr=%s stdout=%s", code, stderr, stdout)
	}
	for _, want := range []string{"3 cells completed, campaign complete", "agree (3 cells)"} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("output missing %q:\n%s", want, stdout)
		}
	}
}
