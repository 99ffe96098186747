package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"mbusim/internal/core"
	"mbusim/internal/telemetry"
)

// Worker leases cells from a coordinator and runs them through the normal
// core.Run path (checkpoints, telemetry, forensics all apply). It streams
// heartbeats while a cell runs, reconnects with exponential backoff and
// jitter when the coordinator is unreachable, and on cancellation drains
// gracefully: the in-flight cell is abandoned back to the coordinator.
type Worker struct {
	// ID is the worker's stable identity (e.g. host:pid); the coordinator
	// keys heartbeats and the live-worker gauge on it.
	ID string
	// URL is the coordinator base URL, e.g. "http://10.0.0.1:9321".
	URL string
	// Client is the HTTP client; nil means a default with a 10s timeout.
	Client *http.Client
	// Tel, when non-nil, records the worker's sample/cell metrics exactly
	// as a local campaign would.
	Tel *telemetry.Campaign
	// OnCell, when non-nil, observes each cell this worker completed and
	// submitted (progress display).
	OnCell func(cell int, spec core.Spec, res *core.Result)
	// Artifacts, when non-nil, brings each leased cell's workload up from a
	// cached or coordinator-served checkpoint artifact before the cell
	// runs, instead of re-deriving the golden reference locally. Failures
	// inside it fall back to local derivation; nil skips the artifact path
	// entirely.
	Artifacts *ArtifactCache
	// Backoff shapes reconnection delays; zero value = defaults.
	Backoff Backoff
	// MaxDowntime is how long the coordinator may stay unreachable before
	// the worker gives up with an error. Default 2 minutes.
	MaxDowntime time.Duration

	// delta watches Tel's registry so each heartbeat and submit piggybacks
	// only the series that changed since the last send. Run initializes it;
	// a nil tracker (Tel disabled) sends nothing.
	delta *telemetry.DeltaTracker
}

const defaultMaxDowntime = 2 * time.Minute

// errCampaignDone flows from runCell to Run when a submit reply reported
// the campaign over, turning into Run's normal nil return.
var errCampaignDone = fmt.Errorf("dispatch: campaign done")

func (w *Worker) client() *http.Client {
	if w.Client != nil {
		return w.Client
	}
	return &http.Client{Timeout: 10 * time.Second}
}

func (w *Worker) maxDowntime() time.Duration {
	if w.MaxDowntime > 0 {
		return w.MaxDowntime
	}
	return defaultMaxDowntime
}

// Run leases and executes cells until the coordinator reports the campaign
// done (returns nil), ctx is cancelled (returns ctx.Err() after abandoning
// any held lease), or the coordinator stays unreachable past MaxDowntime.
func (w *Worker) Run(ctx context.Context) error {
	if w.Tel != nil && w.delta == nil {
		// The info gauge guarantees the first heartbeat carries a series,
		// so the coordinator shows this worker even before its first cell
		// has recorded anything.
		w.Tel.SetWorkerInfo()
		w.delta = telemetry.NewDeltaTracker(w.Tel.Registry)
	}
	for {
		var rep LeaseReply
		if err := w.post(ctx, PathLease, &LeaseRequest{Worker: w.ID}, &rep); err != nil {
			return err
		}
		switch rep.Status {
		case StatusDone:
			return nil
		case StatusWait:
			pause := rep.RetryAfter
			if pause <= 0 {
				pause = 500 * time.Millisecond
			}
			if !SleepCtx(ctx, pause) {
				return ctx.Err()
			}
		case StatusLease:
			switch err := w.runCell(ctx, &rep); err {
			case nil:
			case errCampaignDone:
				return nil
			default:
				return err
			}
		default:
			return fmt.Errorf("dispatch: unexpected lease status %q", rep.Status)
		}
	}
}

// runCell executes one leased cell under a heartbeat, then submits the
// result (or the failure). Losing the lease mid-run cancels the cell: the
// coordinator has already reassigned it and dedup-on-submit makes any
// completed work safe to deliver anyway.
func (w *Worker) runCell(ctx context.Context, l *LeaseReply) error {
	cellCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var lost atomic.Bool
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		interval := l.TTL / 3
		if interval <= 0 {
			interval = time.Second
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-cellCtx.Done():
				return
			case <-t.C:
				var rep HeartbeatReply
				// One attempt per beat, no backoff: a missed beat is
				// absorbed by the lease TTL (3 beats per TTL), and a dead
				// coordinator is discovered by the next lease/submit.
				err := w.postOnce(cellCtx, PathHeartbeat,
					&HeartbeatRequest{Worker: w.ID, LeaseID: l.LeaseID,
						Campaign: l.Campaign, Metrics: w.delta.Delta()}, &rep)
				if err == nil && rep.Status == StatusExpired {
					lost.Store(true)
					cancel()
					return
				}
			}
		}
	}()

	if w.Artifacts != nil {
		// Best-effort: a failed Ensure leaves the workload to derive its
		// golden state locally inside the run below.
		_ = w.Artifacts.Ensure(l.Spec.Workload)
	}

	var res *core.Result
	runErr := core.RunGridWithTelemetry(cellCtx, []core.Spec{l.Spec}, 0,
		func(_ int, r *core.Result) { res = r }, w.Tel)
	cancel()
	<-hbDone

	switch {
	case ctx.Err() != nil:
		// Draining (SIGINT/SIGTERM): hand the unfinished cell straight
		// back so the coordinator reassigns it without waiting for the
		// TTL or burning a retry. Best-effort on a fresh short context —
		// if it fails, lease expiry covers it.
		actx, acancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer acancel()
		var rep AbandonReply
		_ = w.postOnce(actx, PathAbandon,
			&AbandonRequest{Worker: w.ID, LeaseID: l.LeaseID, Campaign: l.Campaign}, &rep)
		return ctx.Err()
	case res != nil:
		// Completed — submit even if the lease was lost along the way:
		// the result is deterministic for the spec, so the coordinator
		// accepts it if the cell is still open and dedups it if not.
		var rep SubmitReply
		if err := w.post(ctx, PathSubmit, &SubmitRequest{Worker: w.ID,
			LeaseID: l.LeaseID, Campaign: l.Campaign, Cell: l.Cell, Result: res,
			Metrics: w.delta.Delta()}, &rep); err != nil {
			return err
		}
		if w.OnCell != nil {
			w.OnCell(l.Cell, l.Spec, res)
		}
		if rep.CampaignDone {
			// This was the campaign's last cell: exit now rather than race
			// the coordinator's shutdown with another lease request.
			return errCampaignDone
		}
		return nil
	case lost.Load():
		// Lease expired under us and the run was cancelled incomplete:
		// drop it and lease something else.
		return nil
	case runErr != nil:
		// The cell itself failed (panicking sample, simulator error).
		// Report it — the coordinator charges the cell's retry budget —
		// and keep working; if the campaign dies of it, the next lease
		// request returns done and Run exits.
		var rep SubmitReply
		if err := w.post(ctx, PathSubmit, &SubmitRequest{Worker: w.ID,
			LeaseID: l.LeaseID, Campaign: l.Campaign, Cell: l.Cell, Err: runErr.Error(),
			Metrics: w.delta.Delta()}, &rep); err != nil {
			return err
		}
		if rep.CampaignDone {
			return errCampaignDone
		}
		return nil
	}
	// RunGrid returned no error and no result: impossible for a one-spec
	// grid, but fail loudly rather than spin.
	return fmt.Errorf("dispatch: cell %d produced neither result nor error", l.Cell)
}

// retryAfterError is a 429 from the server: not an outage, but an explicit
// "come back later" with the server's suggested pause.
type retryAfterError struct {
	path  string
	after time.Duration
}

func (e *retryAfterError) Error() string {
	return fmt.Sprintf("dispatch: %s: HTTP 429, retry after %v", e.path, e.after)
}

// maxRetryAfter caps how long a server-suggested Retry-After is honored —
// a misconfigured or adversarial header must not park the client forever.
const maxRetryAfter = 30 * time.Second

// post sends one request, retrying with backoff while the coordinator is
// unreachable, until MaxDowntime elapses or ctx is cancelled. A typed 4xx
// rejection (TerminalError) returns immediately: the server is healthy and
// said no — burning the downtime budget repeating the same doomed request
// would only delay the inevitable. A 429 is retried on the server's
// Retry-After schedule (capped exponential backoff underneath).
func (w *Worker) post(ctx context.Context, path string, req, rep any) error {
	start := time.Now()
	var lastErr error
	for attempt := 0; ; attempt++ {
		lastErr = w.postOnce(ctx, path, req, rep)
		if lastErr == nil {
			return nil
		}
		var term *TerminalError
		if errors.As(lastErr, &term) {
			return lastErr
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Since(start) >= w.maxDowntime() {
			return fmt.Errorf("dispatch: coordinator %s unreachable for %v: %w",
				w.URL, w.maxDowntime(), lastErr)
		}
		delay := w.Backoff.Delay(attempt, nil)
		var ra *retryAfterError
		if errors.As(lastErr, &ra) && ra.after > delay {
			delay = min(ra.after, maxRetryAfter)
		}
		if !SleepCtx(ctx, delay) {
			return ctx.Err()
		}
	}
}

// postOnce sends one JSON POST and decodes the JSON reply, no retries.
// Non-200 statuses are classified: 429 → retryAfterError (back off and
// retry), other 4xx → TerminalError (the request is permanently rejected),
// 5xx and transport failures → plain errors (transient, retry).
func (w *Worker) postOnce(ctx context.Context, path string, req, rep any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, w.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := w.client().Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return classifyHTTPError(path, resp)
	}
	return json.NewDecoder(resp.Body).Decode(rep)
}

// classifyHTTPError turns a non-200 reply into the right error flavor for
// the retry loop, consuming (a bounded prefix of) the body for the reason.
func classifyHTTPError(path string, resp *http.Response) error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode == http.StatusTooManyRequests {
		after := 2 * time.Second
		if s := resp.Header.Get("Retry-After"); s != "" {
			if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
				after = time.Duration(secs) * time.Second
			}
		}
		return &retryAfterError{path: path, after: after}
	}
	if resp.StatusCode >= 400 && resp.StatusCode < 500 {
		term := &TerminalError{Path: path, Status: resp.StatusCode,
			Msg: strings.TrimSpace(string(raw))}
		var ae APIError
		if json.Unmarshal(raw, &ae) == nil && ae.Code != "" {
			term.Code, term.Msg = ae.Code, ae.Error
		}
		if term.Msg == "" {
			term.Msg = http.StatusText(resp.StatusCode)
		}
		return term
	}
	return fmt.Errorf("dispatch: %s: HTTP %d", path, resp.StatusCode)
}

// SleepCtx pauses for d, returning false if ctx was cancelled first.
func SleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
