package dispatch

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mbusim/internal/core"
	"mbusim/internal/jsonl"
)

func journalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "journal.jsonl")
}

func mustAppend(t *testing.T, j *Journal, rec JournalRecord) {
	t.Helper()
	if err := j.Append(rec); err != nil {
		t.Fatal(err)
	}
}

func TestJournalAppendReplay(t *testing.T) {
	path := journalPath(t)
	j, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	specs := []core.Spec{{Workload: "stringSearch", Component: core.CompL1D,
		Faults: 2, Samples: 4, Seed: 3}}
	mustAppend(t, j, JournalRecord{Op: JournalOpSubmit, ID: "c000000",
		Tenant: "acme", Name: "nightly", Retries: 3, Specs: specs, TimeNS: 7})
	mustAppend(t, j, JournalRecord{Op: JournalOpState, ID: "c000000",
		State: StateRunning, TimeNS: 9})
	j.Close()

	j2, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want 2", len(recs))
	}
	sub := recs[0]
	if sub.Op != JournalOpSubmit || sub.ID != "c000000" || sub.Tenant != "acme" ||
		sub.Name != "nightly" || sub.Retries != 3 || len(sub.Specs) != 1 {
		t.Fatalf("submit record corrupted by round-trip: %+v", sub)
	}
	if !sub.Specs[0].Equivalent(specs[0]) {
		t.Fatalf("replayed spec not equivalent: %+v", sub.Specs[0])
	}
	if st := recs[1]; st.Op != JournalOpState || st.State != StateRunning {
		t.Fatalf("state record corrupted by round-trip: %+v", st)
	}
	// The reopened journal appends after the replayed records, not over them.
	mustAppend(t, j2, JournalRecord{Op: JournalOpState, ID: "c000000", State: StateDone})
	_, recs, err = OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[2].State != StateDone {
		t.Fatalf("append after reopen lost records: %+v", recs)
	}
}

// TestJournalTornTail: a crash mid-append leaves a partial final line. Open
// must drop it (the record was never acknowledged), truncate the file back
// to a line boundary, and accept new appends — the crashed submitter's
// retry lands as a fresh record, idempotently.
func TestJournalTornTail(t *testing.T) {
	path := journalPath(t)
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, JournalRecord{Op: JournalOpSubmit, ID: "c000000"})
	j.Close()
	if err := os.WriteFile(path, append(readFile(t, path),
		[]byte(`{"op":"submit","id":"c0000`)...), 0o644); err != nil {
		t.Fatal(err)
	}

	j2, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("torn tail should be tolerated: %v", err)
	}
	if len(recs) != 1 || recs[0].ID != "c000000" {
		t.Fatalf("replay after torn tail = %+v, want the one whole record", recs)
	}
	if tail := readFile(t, path); strings.Contains(string(tail), "c0000\"") ||
		!strings.HasSuffix(string(tail), "\n") {
		t.Fatalf("torn tail not truncated: %q", tail)
	}
	// The retry is re-accepted and lands cleanly after the truncation point.
	mustAppend(t, j2, JournalRecord{Op: JournalOpSubmit, ID: "c000001"})
	j2.Close()
	_, recs, err = OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1].ID != "c000001" {
		t.Fatalf("append after torn-tail recovery = %+v", recs)
	}
}

// TestJournalMidstreamCorruption: a bad line with more data after it is
// damage, not an interrupted append, and must fail the open loudly.
func TestJournalMidstreamCorruption(t *testing.T) {
	path := journalPath(t)
	data := `{"op":"submit","id":"c000000"}` + "\n" +
		`NOT JSON` + "\n" +
		`{"op":"state","id":"c000000","state":"running"}` + "\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := OpenJournal(path)
	if err == nil {
		t.Fatal("mid-stream corruption should fail the open")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("corruption error should name the line: %v", err)
	}
}

// TestJournalSyncsBeforeAck: Append must not return before the bytes are
// fsynced — the acknowledgement IS the durability promise.
func TestJournalSyncsBeforeAck(t *testing.T) {
	synced := 0
	orig := jfsync
	jfsync = func(l *jsonl.Log) error { synced++; return orig(l) }
	defer func() { jfsync = orig }()

	j, _, err := OpenJournal(journalPath(t))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	mustAppend(t, j, JournalRecord{Op: JournalOpSubmit, ID: "c000000"})
	if synced != 1 {
		t.Fatalf("Append fsynced %d times, want 1", synced)
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
