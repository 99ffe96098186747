package dispatch

import (
	"encoding/json"
	"fmt"

	"mbusim/internal/core"
	"mbusim/internal/jsonl"
)

// The campaign journal is the service's crash-safe source of truth for
// WHAT was asked of it: every accepted submission and every campaign state
// transition is one JSONL record, appended through the jsonl.Log shared
// with the event log and the trace, and fsynced before the client hears
// "accepted" — of the three, only the journal pays for the sync.
// Cell-level progress deliberately does NOT live here: the per-campaign
// ResultSet files already record it atomically, so a restarted service
// replays the journal to rebuild the campaign set and then loads each live
// campaign's results file to mark covered cells done, byte-identically to
// the pre-crash state.
//
// A crash can only ever tear the FINAL line; jsonl.Open truncates it and
// carries on — the record was never acknowledged, so the client's retry
// re-submits it idempotently. Mid-stream corruption fails the open.

// Journal ops.
const (
	JournalOpSubmit = "submit" // a campaign admitted into the queue
	JournalOpState  = "state"  // a campaign state transition
)

// JournalRecord is one line of the campaign journal.
type JournalRecord struct {
	Op     string `json:"op"`
	ID     string `json:"id"`
	TimeNS int64  `json:"t_ns"`

	// Submit fields.
	Tenant  string      `json:"tenant,omitempty"`
	Name    string      `json:"name,omitempty"`
	Retries int         `json:"retries,omitempty"` // per-campaign retry budget, 0 = service default
	Specs   []core.Spec `json:"specs,omitempty"`

	// State fields.
	State  string `json:"state,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// jfsync is the journal's sync call, indirected so tests can observe that
// appends really sync before they are acknowledged.
var jfsync = (*jsonl.Log).Sync

// Journal appends campaign records durably to one file.
type Journal struct {
	log *jsonl.Log
}

// OpenJournal opens (creating if absent) the journal at path, returning
// the intact records for replay. A torn final line — the signature of a
// crash mid-append — is truncated away; the interrupted record was never
// acknowledged, so dropping it is correct, and the submitter's retry will
// be accepted as a fresh campaign. A malformed line with more data after
// it is corruption and fails the open.
func OpenJournal(path string) (*Journal, []JournalRecord, error) {
	var recs []JournalRecord
	log, err := jsonl.Open(path, func(line []byte) error {
		var rec JournalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("dispatch: journal %w", err)
	}
	return &Journal{log: log}, recs, nil
}

// Append writes one record as a single line and fsyncs it. Only after
// Append returns may the service acknowledge the action the record
// describes — that ordering is the whole crash-recovery guarantee.
func (j *Journal) Append(rec JournalRecord) error {
	line, err := json.Marshal(&rec)
	if err != nil {
		return err
	}
	if _, err := j.log.Write(append(line, '\n')); err != nil {
		return err
	}
	return jfsync(j.log)
}

// Close closes the journal file.
func (j *Journal) Close() error { return j.log.Close() }
