package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"mbusim/internal/jsonl"
)

// Trace schema versions. v1 traces hold untyped sample records; v2 records
// carry a "type" field ("sample", "forensics", ...) so one stream can mix
// record kinds. Readers treat a missing type as "sample" and skip unknown
// types, so v2 readers accept v1 files and future record kinds degrade
// gracefully.
const (
	RecordSample    = "sample"
	RecordForensics = "forensics"
)

// SampleRecord is one line of the campaign trace: the complete event record
// of a single fault-injection sample, following the per-fault event-record
// style of Jaulmes et al. Records are written as JSONL — one JSON object
// per line — so traces stream, append, and survive interrupts.
type SampleRecord struct {
	Type      string `json:"type,omitempty"` // RecordSample; empty in v1 files
	Component string `json:"comp"`
	Workload  string `json:"workload"`
	Faults    int    `json:"faults"`
	Sample    int    `json:"sample"` // index within the cell, 0..Samples-1
	Seed      uint64 `json:"seed"`   // campaign seed of the cell

	InjectCycle uint64 `json:"inject_cycle"`
	MaskBits    int    `json:"mask_bits"` // live bits after protection filtering

	// Checkpoint is the index of the golden checkpoint the run was
	// fast-forwarded from (-1 when checkpointing was disabled);
	// CyclesSkipped is the golden prefix that was not replayed.
	Checkpoint    int    `json:"checkpoint"`
	CyclesSkipped uint64 `json:"cycles_skipped"`

	Outcome    string `json:"outcome"`
	DurationNS int64  `json:"duration_ns"` // wall-clock time of the sample

	// Exit is how the sample ended (ExitResolved, ExitAudited,
	// ExitConverged or ExitRan); empty in traces written before it existed.
	Exit string `json:"exit,omitempty"`
}

// Sample exits: how a sample's run ended.
const (
	// ExitResolved: decided at injection time without simulating the
	// post-inject tail — by the protection filter, or because the golden
	// liveness index shows no flipped bit is ever read.
	ExitResolved = "resolved"
	// ExitAudited: resolved by the liveness index, then simulated anyway
	// by the runtime audit; the outcome is the simulated one.
	ExitAudited = "resolved-audited"
	// ExitConverged: the faulty machine matched a golden checkpoint
	// bit for bit, so the rest of the run was the golden run.
	ExitConverged = "converged"
	// ExitRan: simulated to its end (stop, cycle limit or watchdog).
	ExitRan = "ran"
)

// FateRecord is the schema-v2 forensics record paired with one sample: the
// resolved lifecycle of the injected fault mask (see internal/forensics).
// The tracer writes each cell's fate record immediately after its sample
// record, so a trace with forensics enabled alternates the two types.
type FateRecord struct {
	Type      string `json:"type"` // RecordForensics
	Component string `json:"comp"`
	Workload  string `json:"workload"`
	Faults    int    `json:"faults"`
	Sample    int    `json:"sample"`
	Seed      uint64 `json:"seed"`

	InjectCycle uint64   `json:"inject_cycle"`
	Mask        [][2]int `json:"mask"` // [row, col] of every flipped bit

	// Fate is the lifecycle class: never-touched, overwritten, refilled,
	// read-then-masked, read-then-sdc, written-back or diverged.
	Fate string `json:"fate"`
	// FirstTouchLat is cycles from injection to the first event involving
	// a corrupted bit; -1 if nothing ever touched one.
	FirstTouchLat int64 `json:"first_touch_lat"`
	// DivergeCycle is the first architectural-divergence cycle seen by the
	// lockstep shadow machine (full mode only); 0 = none observed.
	DivergeCycle uint64 `json:"diverge_cycle,omitempty"`

	Outcome string `json:"outcome"`
}

// Tracer writes sample records to an underlying stream in per-cell batches.
// WriteCell serializes and writes a whole cell's records in one call, so —
// like the results file — the trace only ever contains complete cells: a
// cancelled cell's records are simply never flushed. After the first write
// error the tracer latches it (Err) and drops further batches.
type Tracer struct {
	mu  sync.Mutex
	w   io.Writer
	err error
}

// NewTracer returns a tracer writing JSONL to w. A nil tracer is a valid
// no-op sink.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{w: w}
}

// OpenTrace opens path for appending trace batches through jsonl.Open,
// continuing an existing trace after cutting its torn tail. Records are
// checked, not kept, so reopening a large trace costs no memory.
func OpenTrace(path string) (*jsonl.Log, error) {
	return jsonl.Open(path, func(line []byte) error { return new(Trace).add(line) })
}

// WriteCell appends one cell's records to the trace as a single write.
// fates, when non-empty, are interleaved after their sample record (matched
// by sample index; both slices must be sorted by it). Safe for concurrent
// use; a nil tracer discards the batch.
func (t *Tracer) WriteCell(recs []SampleRecord, fates []FateRecord) {
	if t == nil || len(recs) == 0 {
		return
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf) // Encode appends the newline JSONL needs
	var err error
	fi := 0
	for i := range recs {
		recs[i].Type = RecordSample
		err = errors.Join(err, enc.Encode(&recs[i]))
		// A sample's fates follow it; the last sample takes any left over.
		for fi < len(fates) && (fates[fi].Sample <= recs[i].Sample || i == len(recs)-1) {
			fates[fi].Type = RecordForensics
			err = errors.Join(err, enc.Encode(&fates[fi]))
			fi++
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err == nil {
		if err == nil {
			_, err = t.w.Write(buf.Bytes())
		}
		t.err = err
	}
}

// Err returns the first write error, if any.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Trace is the typed content of a schema-v2 (or v1) trace stream.
type Trace struct {
	Samples []SampleRecord
	Fates   []FateRecord
	// Unknown counts records whose "type" the reader does not understand;
	// they are skipped, not errors, so newer traces stay parseable.
	Unknown int
	// Truncated counts a malformed final line, skipped rather than failing
	// the read: a process killed mid-write (the crash case this package's
	// per-cell flushing otherwise guards against at cell granularity) can
	// leave a partial last line, and every complete record before it is
	// still good data. A malformed line with records after it is still an
	// error — that is corruption, not truncation.
	Truncated int
}

// ReadTrace parses a JSONL trace stream back into sample records, e.g. for
// cmd/logparse or round-trip tests. It accepts mixed v1/v2 files: untyped
// lines are treated as samples, forensics and unknown record types are
// skipped. Blank lines are skipped; a malformed line fails with its line
// number.
func ReadTrace(r io.Reader) ([]SampleRecord, error) {
	tr, err := ReadTraceTyped(r)
	if err != nil {
		return nil, err
	}
	return tr.Samples, nil
}

// ReadTraceTyped parses a JSONL trace stream, dispatching each line on its
// "type" field. Untyped lines (schema v1) are samples; unknown types are
// counted and skipped rather than erroring, so readers built today survive
// record kinds added tomorrow. A malformed FINAL line — what a crashed or
// killed writer leaves behind — is skipped and counted in Trace.Truncated
// instead of failing the whole read; a malformed line followed by more
// data still fails with its line number.
func ReadTraceTyped(r io.Reader) (*Trace, error) {
	tr := &Trace{}
	var err error
	if tr.Truncated, err = jsonl.Scan(r, tr.add); err != nil {
		return nil, fmt.Errorf("telemetry: trace %w", err)
	}
	return tr, nil
}

// add decodes one trace line into tr, dispatching on its "type".
func (tr *Trace) add(line []byte) error {
	var hdr struct {
		Type string `json:"type"`
	}
	if err := json.Unmarshal(line, &hdr); err != nil {
		return err
	}
	switch hdr.Type {
	case "", RecordSample:
		var rec SampleRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		tr.Samples = append(tr.Samples, rec)
	case RecordForensics:
		var rec FateRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		tr.Fates = append(tr.Fates, rec)
	default:
		tr.Unknown++
	}
	return nil
}
