package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"mbusim/internal/core"
	"mbusim/internal/telemetry"
)

// Service is the one HTTP coordinator: clients POST campaigns into a
// durable queue, one shared worker fleet is multiplexed round-robin across
// every running campaign (each a Coordinator cell table), and the whole
// thing survives SIGKILL — the journal (accepted submissions + state
// transitions) and the per-campaign ResultSet files are replayed on
// restart, rebuilding queued, running and finished campaigns exactly,
// so the final results are byte-identical to an uninterrupted run. A
// one-shot grid (`gefin -serve` with grid flags) is the same service with
// its grid submitted in-process (Submit) and drained when it ends (Drain).
//
// Admission control keeps it honest under load: the queue has a bounded
// depth, each tenant is capped on live campaigns and live cells, and a
// bounced submission gets 429 + Retry-After rather than silent queuing.
// Degradation is graceful rather than binary: campaigns move through
// queued/running/paused/done/failed/cancelled states, pause and cancel
// drain leases back without charging the cells' retry budgets, and a
// campaign that exhausts a cell's budget fails alone — the service and
// the other campaigns keep going.

// Campaign states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StatePaused    = "paused"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// terminalState reports whether a campaign in this state will never run
// again.
func terminalState(s string) bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// ServiceOptions tunes a Service. The zero value means the defaults below.
type ServiceOptions struct {
	// LeaseTTL and MaxRetries are handed to every campaign's coordinator
	// (MaxRetries as the default retry budget when a submission names none).
	LeaseTTL   time.Duration
	MaxRetries int
	// QueueDepth bounds how many campaigns may sit in the queued state;
	// submissions past it bounce with 429 queue_full. Default 64.
	QueueDepth int
	// MaxActive bounds how many campaigns run concurrently over the shared
	// fleet; the rest wait in the queue. Default 4.
	MaxActive int
	// TenantCampaigns caps one tenant's live (queued+running+paused)
	// campaigns. Default 8.
	TenantCampaigns int
	// TenantCells caps one tenant's live cells across its live campaigns.
	// Default 4096.
	TenantCells int
	// Tel receives the service gauges/counters and the shared event log.
	Tel *telemetry.Campaign
}

const (
	defaultQueueDepth      = 64
	defaultMaxActive       = 4
	defaultTenantCampaigns = 8
	defaultTenantCells     = 4096
)

// SubmitCampaignRequest is the body of POST /campaigns.
type SubmitCampaignRequest struct {
	// Tenant identifies the submitter for admission quotas; empty means
	// "default".
	Tenant string `json:"tenant,omitempty"`
	// Name, when set, makes the submission idempotent per tenant: while a
	// live campaign with this name exists, re-submitting returns it instead
	// of queuing a duplicate (the retry-after-a-crash story).
	Name string `json:"name,omitempty"`
	// Retries overrides the per-cell retry budget; 0 means the service
	// default.
	Retries int         `json:"retries,omitempty"`
	Specs   []core.Spec `json:"specs"`
}

// CampaignInfo is the status of one campaign (GET /campaigns, GET
// /campaigns/{id}, and the body of every accepted transition).
type CampaignInfo struct {
	ID          string `json:"id"`
	Tenant      string `json:"tenant"`
	Name        string `json:"name,omitempty"`
	State       string `json:"state"`
	Cells       int    `json:"cells"`
	Done        int    `json:"done"`
	Leased      int    `json:"leased,omitempty"`
	Retries     int    `json:"retries,omitempty"` // retry charges spent so far
	Budget      int    `json:"budget"`            // per-cell retry budget
	Detail      string `json:"detail,omitempty"`  // terminal error, when failed
	SubmittedNS int64  `json:"submitted_ns"`
	FinishedNS  int64  `json:"finished_ns,omitempty"`
}

// svcCampaign is the service's record of one campaign.
type svcCampaign struct {
	id     string
	tenant string
	name   string
	budget int
	specs  []core.Spec
	state  string
	detail string

	submittedNS int64
	finishedNS  int64

	// rs is the campaign's canonical result set, shared with coord once the
	// campaign starts; the coordinator's serialized OnCell is the only
	// writer after that.
	rs    *core.ResultSet
	coord *Coordinator
	// onCell, set by an in-process Submit, observes each newly completed
	// cell after the service has saved the results file.
	onCell func(cell int, res *core.Result)
	// stop is closed when the campaign reaches a terminal state (or the
	// service closes): it wakes Wait, and the watcher of a cancelled
	// campaign, whose coordinator never finishes on its own — its cells
	// just sit pending.
	stop    chan struct{}
	stopped bool

	// flushErr is set by OnCell when persisting the results file fails;
	// the watcher folds it into the campaign's fate.
	flushErr error
}

// halt wakes the campaign's watcher and waiters for good. Callers hold the
// service lock.
func (c *svcCampaign) halt() {
	if !c.stopped {
		c.stopped = true
		close(c.stop)
	}
}

// Service is a durable multi-campaign coordinator. All state transitions,
// its coordinators' included, happen under one mutex; the HTTP handlers,
// the sweep loop and the per-campaign watchers share it.
type Service struct {
	opts ServiceOptions
	dir  string
	tel  *telemetry.Campaign

	mu        sync.Mutex
	journal   *Journal
	campaigns map[string]*svcCampaign
	order     []string // submission order; also the round-robin ring
	rr        int      // round-robin cursor into order
	nextID    int
	workers   map[string]time.Time // worker -> last contact (service-wide)
	joined    map[string]bool
	// draining, once Drain is called, sends every worker home.
	draining bool

	// fed merges worker metric snapshots exactly once per delivery.
	fed *telemetry.Federator

	// now is the service clock, swappable so tests pin timestamps.
	now func() time.Time
}

// NewService opens (creating if needed) the service state directory —
// DIR/journal.jsonl plus DIR/results/<id>.json — replays the journal, and
// resumes every live campaign from its results file. Replay is idempotent:
// running it twice over the same directory rebuilds the same state.
func NewService(dir string, opts ServiceOptions) (*Service, error) {
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = defaultLeaseTTL
	}
	if opts.MaxRetries <= 0 {
		opts.MaxRetries = defaultMaxRetries
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = defaultQueueDepth
	}
	if opts.MaxActive <= 0 {
		opts.MaxActive = defaultMaxActive
	}
	if opts.TenantCampaigns <= 0 {
		opts.TenantCampaigns = defaultTenantCampaigns
	}
	if opts.TenantCells <= 0 {
		opts.TenantCells = defaultTenantCells
	}
	if err := os.MkdirAll(filepath.Join(dir, "results"), 0o755); err != nil {
		return nil, err
	}
	journal, recs, err := OpenJournal(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		return nil, err
	}
	var reg *telemetry.Registry
	if opts.Tel != nil {
		reg = opts.Tel.Registry
	}
	s := &Service{
		opts:      opts,
		dir:       dir,
		tel:       opts.Tel,
		journal:   journal,
		campaigns: make(map[string]*svcCampaign),
		workers:   make(map[string]time.Time),
		joined:    make(map[string]bool),
		fed:       telemetry.NewFederator(reg),
		now:       time.Now,
	}
	if err := s.replay(recs); err != nil {
		journal.Close()
		return nil, err
	}
	return s, nil
}

// replay rebuilds the campaign set from journal records, then resumes
// every live campaign from its results file. No state counters are
// re-incremented and no lifecycle events re-emitted — the event log
// already recorded the first life — except the campaign_start of each
// rebuilt coordinator, which opens its new session; the gauges are brought
// current.
func (s *Service) replay(recs []JournalRecord) error {
	for _, rec := range recs {
		switch rec.Op {
		case JournalOpSubmit:
			c := &svcCampaign{
				id: rec.ID, tenant: rec.Tenant, name: rec.Name,
				budget: rec.Retries, specs: rec.Specs,
				state: StateQueued, submittedNS: rec.TimeNS,
				rs: core.NewResultSet(), stop: make(chan struct{}),
			}
			if c.budget <= 0 {
				c.budget = s.opts.MaxRetries
			}
			s.campaigns[c.id] = c
			s.order = append(s.order, c.id)
			// IDs are sequential ("c000017"): continue numbering after the
			// highest replayed one.
			if len(rec.ID) > 1 {
				if n, err := strconv.Atoi(rec.ID[1:]); err == nil && n >= s.nextID {
					s.nextID = n + 1
				}
			}
		case JournalOpState:
			c, ok := s.campaigns[rec.ID]
			if !ok {
				return fmt.Errorf("dispatch: journal: state %q for unknown campaign %s", rec.State, rec.ID)
			}
			c.state, c.detail = rec.State, rec.Detail
			if terminalState(rec.State) {
				c.finishedNS = rec.TimeNS
			}
		default:
			return fmt.Errorf("dispatch: journal: unknown op %q", rec.Op)
		}
	}
	// Resume: load every live campaign's results file (completed cells
	// survive the crash there, not in the journal) and rebuild the
	// coordinators of campaigns that were running or paused. A campaign
	// whose results already cover the grid finishes instantly through the
	// normal watcher path and is journaled done — the crash landed between
	// the last cell and the transition record.
	for _, id := range s.order {
		c := s.campaigns[id]
		if terminalState(c.state) {
			continue
		}
		rs, err := core.LoadResultSet(s.resultsPath(c.id))
		if err == nil {
			c.rs = rs
		} else if !os.IsNotExist(err) {
			return err
		}
		if c.state == StateRunning || c.state == StatePaused {
			if err := s.buildCoordinatorLocked(c); err != nil {
				return err
			}
		}
	}
	s.scheduleLocked()
	s.refreshGaugesLocked()
	return nil
}

func (s *Service) resultsPath(id string) string {
	return filepath.Join(s.dir, "results", id+".json")
}

// buildCoordinatorLocked attaches a fresh coordinator (and its watcher) to
// a campaign, resuming from whatever c.rs already covers. campaign_start
// goes out first, so a grid the results already cover still logs its
// start before the immediate campaign_done.
func (s *Service) buildCoordinatorLocked(c *svcCampaign) error {
	rs, path := c.rs, s.resultsPath(c.id)
	s.tel.Emit(telemetry.Event{Type: telemetry.EventCampaignStart,
		Campaign: c.id, Cell: -1, Cells: len(rs.Pending(c.specs))})
	coord, err := newCoordinator(c.specs, rs, coordOptions{
		LeaseTTL:   s.opts.LeaseTTL,
		MaxRetries: c.budget,
		Tel:        s.tel,
		Campaign:   c.id,
		// OnCell runs inside a submit handler that holds s.mu, so the
		// flush below never races itself — and must not take s.mu again.
		OnCell: func(cell int, res *core.Result) {
			if err := rs.Save(path); err != nil && c.flushErr == nil {
				c.flushErr = err
			}
			s.tel.CampaignCellDone(c.id, c.tenant)
			if c.onCell != nil {
				c.onCell(cell, res)
			}
		},
	})
	if err != nil {
		return err
	}
	coord.now = func() time.Time { return s.now() }
	c.coord = coord
	go s.watch(c, coord)
	return nil
}

// watch waits for one campaign's coordinator to finish and records its
// fate. Cancellation closes c.stop instead — the coordinator never
// finishes then, its cells just stay pending.
func (s *Service) watch(c *svcCampaign, coord *Coordinator) {
	select {
	case <-coord.Done():
	case <-c.stop:
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if terminalState(c.state) {
		return
	}
	err := coord.Err()
	if err == nil && c.flushErr != nil {
		err = fmt.Errorf("campaign complete but results not durable: %w", c.flushErr)
	}
	if err != nil {
		s.transitionLocked(c, StateFailed, err.Error())
	} else {
		s.transitionLocked(c, StateDone, "")
	}
	s.scheduleLocked()
	s.refreshGaugesLocked()
}

// transitionLocked journals and applies one state transition. The journal
// append is best-effort here: an unwritable journal must not wedge a
// finished campaign, and replay self-heals (a campaign replayed as running
// whose results cover the grid immediately re-finishes and re-journals).
// Admission — where durability is the contract — writes the journal first
// and refuses on failure; see handleSubmitCampaign.
func (s *Service) transitionLocked(c *svcCampaign, state, detail string) {
	_ = s.journal.Append(JournalRecord{
		Op: JournalOpState, ID: c.id, TimeNS: s.now().UnixNano(),
		State: state, Detail: detail,
	})
	c.state, c.detail = state, detail
	if terminalState(state) {
		c.finishedNS = s.now().UnixNano()
		c.halt()
	}
	s.tel.CampaignEntered(state)
	s.tel.Emit(telemetry.Event{Type: telemetry.EventCampaignState,
		Campaign: c.id, Tenant: c.tenant, Cell: -1, Detail: state})
}

// scheduleLocked promotes queued campaigns to running, oldest first, while
// there is an active slot free.
func (s *Service) scheduleLocked() {
	active := 0
	for _, id := range s.order {
		if s.campaigns[id].state == StateRunning {
			active++
		}
	}
	for _, id := range s.order {
		if active >= s.opts.MaxActive {
			return
		}
		c := s.campaigns[id]
		if c.state != StateQueued {
			continue
		}
		if c.coord == nil {
			if err := s.buildCoordinatorLocked(c); err != nil {
				s.transitionLocked(c, StateFailed, err.Error())
				continue
			}
		}
		s.transitionLocked(c, StateRunning, "")
		active++
	}
}

// refreshGaugesLocked republishes the service-level gauges: queue depth,
// live campaigns, live workers and leased cells across all coordinators.
func (s *Service) refreshGaugesLocked() {
	var queued, live, leased int64
	for _, c := range s.campaigns {
		switch c.state {
		case StateQueued:
			queued++
			live++
		case StateRunning, StatePaused:
			live++
			if c.coord != nil {
				leased += int64(len(c.coord.leases))
			}
		}
	}
	s.tel.SetQueueDepth(queued)
	s.tel.SetCampaignsLive(live)
	s.tel.SetDispatchWorkers(int64(len(s.workers)))
	s.tel.SetDispatchLeased(leased)
}

// touchWorkerLocked records contact from a worker, emitting worker_join
// once per id.
func (s *Service) touchWorkerLocked(worker string) {
	if worker == "" {
		return
	}
	s.workers[worker] = s.now()
	if !s.joined[worker] {
		s.joined[worker] = true
		s.tel.DispatchWorkerSeen()
		s.tel.Emit(telemetry.Event{Type: telemetry.EventWorkerJoin, Worker: worker, Cell: -1})
	}
}

// dropWorkerLocked removes a worker from the live set, emitting
// worker_leave with the reason.
func (s *Service) dropWorkerLocked(worker, why string) {
	if _, ok := s.workers[worker]; !ok {
		return
	}
	delete(s.workers, worker)
	s.tel.Emit(telemetry.Event{Type: telemetry.EventWorkerLeave, Worker: worker, Cell: -1, Detail: why})
}

// Sweep expires stale leases in every running campaign and drops workers
// silent past the live window. Run calls it every LeaseTTL/4.
func (s *Service) Sweep() {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	for _, c := range s.campaigns {
		if c.state == StateRunning && c.coord != nil {
			c.coord.Sweep()
		}
	}
	for w, last := range s.workers {
		if now.Sub(last) > workerLiveWindow*s.opts.LeaseTTL {
			s.dropWorkerLocked(w, "silent past live window")
		}
	}
	s.refreshGaugesLocked()
}

// Run drives the sweep loop until ctx is cancelled. Campaign completion is
// event-driven (per-campaign watchers); Run only has to expire leases and
// keep the gauges fresh.
func (s *Service) Run(ctx context.Context) error {
	tick := time.NewTicker(s.opts.LeaseTTL / 4)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
			s.Sweep()
		}
	}
}

// Drain sends the fleet home: from now on every lease is answered
// StatusDone and every submit reply carries CampaignDone, and each worker
// so told leaves the live set with worker_leave "campaign over". It returns
// once the live set is empty, or when timeout or ctx expires. Serving
// through this window lets tail workers learn the run is over instead of
// finding a closed port and retrying into their MaxDowntime. Only a
// one-shot grid drains; a persistent service's fleet outlives every
// campaign.
func (s *Service) Drain(ctx context.Context, timeout time.Duration) {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		s.mu.Lock()
		n := len(s.workers)
		s.mu.Unlock()
		if n == 0 {
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-deadline.C:
			return
		case <-tick.C:
		}
	}
}

// Close closes the journal and stops the campaign watchers. In-flight
// handlers racing Close may lose their journal append — the same torn-tail
// story a crash leaves, which replay already tolerates.
func (s *Service) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.campaigns {
		c.halt()
	}
	return s.journal.Close()
}

// infoLocked snapshots one campaign for the status API.
func (s *Service) infoLocked(c *svcCampaign) CampaignInfo {
	info := CampaignInfo{
		ID: c.id, Tenant: c.tenant, Name: c.name, State: c.state,
		Cells: len(c.specs), Budget: c.budget, Detail: c.detail,
		SubmittedNS: c.submittedNS, FinishedNS: c.finishedNS,
	}
	if c.coord != nil {
		st := c.coord.Stats()
		info.Done, info.Leased, info.Retries = st.Done, st.Leased, st.Retries
	} else if c.state == StateDone {
		// A replayed finished campaign has no coordinator (its results stay
		// on disk); its grid is by definition fully covered.
		info.Done = len(c.specs)
	}
	return info
}

// FleetMux returns the worker-facing routes: the dispatch protocol,
// multiplexed across campaigns by the Campaign field workers echo from
// their lease, and the /dispatch/events stream. A one-shot grid serves
// only these — its one campaign is submitted in-process.
func (s *Service) FleetMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc(PathLease, handle(s.lease))
	mux.HandleFunc(PathHeartbeat, routed(s, func(c *svcCampaign, req *HeartbeatRequest) *HeartbeatReply {
		if c.coord == nil || terminalState(c.state) {
			// The lease is gone with its campaign; the worker cancels the
			// cell and asks for another lease. Not an error — campaigns
			// ending under live workers is the service's normal rhythm.
			return &HeartbeatReply{Status: StatusExpired}
		}
		return c.coord.heartbeat(req)
	}))
	mux.HandleFunc(PathSubmit, routed(s, func(c *svcCampaign, req *SubmitRequest) *SubmitReply {
		// Work for a finished campaign is discarded.
		rep := &SubmitReply{Status: StatusStale}
		if c.coord != nil && !terminalState(c.state) {
			rep = c.coord.submit(req)
		}
		// The fleet persists across campaigns: only a drain sends a
		// worker home.
		if rep.CampaignDone = s.draining; rep.CampaignDone {
			s.dropWorkerLocked(req.Worker, "campaign over")
		}
		return rep
	}))
	mux.HandleFunc(PathAbandon, routed(s, func(c *svcCampaign, req *AbandonRequest) *AbandonReply {
		if c.coord == nil || terminalState(c.state) {
			return &AbandonReply{Status: StatusExpired}
		}
		return c.coord.abandon(req)
	}))
	mux.HandleFunc(PathEvents, eventsHandler(s.tel, ""))
	return mux
}

// Mux returns the service's HTTP handler: the FleetMux routes plus the
// campaign API under /campaigns.
func (s *Service) Mux() *http.ServeMux {
	mux := s.FleetMux()
	mux.HandleFunc("POST "+PathCampaigns, s.handleSubmitCampaign)
	mux.HandleFunc("GET "+PathCampaigns, s.handleList)
	mux.HandleFunc("GET "+PathCampaigns+"/{id}", s.handleStatus)
	mux.HandleFunc("GET "+PathCampaigns+"/{id}/results", s.handleResults)
	mux.HandleFunc("GET "+PathCampaigns+"/{id}/events", s.handleEvents)
	mux.HandleFunc("POST "+PathCampaigns+"/{id}/{action}", s.handleAction)
	return mux
}

// maxEventWait caps how long one /dispatch/events long-poll may hang; the
// client just re-polls with the same since on an empty body.
const maxEventWait = 30 * time.Second

// eventsHandler serves GET ?since=<seq>[&wait=<dur>]: JSONL of every event
// with Seq > since, long-polling up to wait (default 10s) when none exist
// yet. 404 when no event log is attached. A non-empty campaign filters the
// stream to that campaign's events — the long-poll keeps draining the
// shared log until a matching event arrives or the wait expires, advancing
// the caller's cursor past the non-matching ones either way.
func eventsHandler(tel *telemetry.Campaign, campaign string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		var log *telemetry.EventLog
		if tel != nil {
			log = tel.Events
		}
		if log == nil {
			http.Error(w, "event log disabled", http.StatusNotFound)
			return
		}
		var since uint64
		if s := r.URL.Query().Get("since"); s != "" {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				http.Error(w, "bad since: "+err.Error(), http.StatusBadRequest)
				return
			}
			since = v
		}
		wait := 10 * time.Second
		if s := r.URL.Query().Get("wait"); s != "" {
			d, err := time.ParseDuration(s)
			if err != nil {
				http.Error(w, "bad wait: "+err.Error(), http.StatusBadRequest)
				return
			}
			wait = min(d, maxEventWait)
		}
		deadline := time.Now().Add(wait)
		var out []telemetry.Event
		for {
			evs := log.WaitSince(r.Context(), since, time.Until(deadline))
			for _, ev := range evs {
				since = ev.Seq
				if campaign == "" || ev.Campaign == campaign {
					out = append(out, ev)
				}
			}
			if len(out) > 0 || len(evs) == 0 || !time.Now().Before(deadline) {
				break
			}
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		for _, ev := range out {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
	}
}

// handle adapts a typed request/reply function to an http.HandlerFunc.
func handle[Req, Rep any](f func(*Req) *Rep) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req Req
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(f(&req))
	}
}

// writeAPIError sends a typed JSON error body. retryAfter > 0 adds the
// Retry-After header (whole seconds, rounded up) a 429 promises.
func writeAPIError(w http.ResponseWriter, status int, code, msg string, retryAfter time.Duration) {
	if retryAfter > 0 {
		secs := int(retryAfter.Round(time.Second) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(APIError{Code: code, Error: msg})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// validName reports whether a tenant or campaign name is safe to embed in
// metric labels and file paths.
func validName(s string) bool {
	if len(s) > 64 {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.', r == ':':
		default:
			return false
		}
	}
	return true
}

// handleSubmitCampaign is POST /campaigns: decode, then Submit.
func (s *Service) handleSubmitCampaign(w http.ResponseWriter, r *http.Request) {
	var req SubmitCampaignRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeAPIError(w, http.StatusBadRequest, ErrCodeBadRequest, err.Error(), 0)
		return
	}
	info, created, err := s.Submit(&req, nil, nil)
	var term *TerminalError
	switch {
	case errors.As(err, &term):
		var retryAfter time.Duration
		if term.Status == http.StatusTooManyRequests {
			// Retry-After tracks the lease TTL: by then at least one sweep
			// has run and some campaign has likely made progress.
			retryAfter = s.opts.LeaseTTL
		}
		writeAPIError(w, term.Status, term.Code, term.Msg, retryAfter)
	case err != nil:
		writeAPIError(w, http.StatusInternalServerError, "journal_error", err.Error(), 0)
	case created:
		writeJSON(w, http.StatusCreated, info)
	default:
		writeJSON(w, http.StatusOK, info)
	}
}

// refuse builds an admission refusal.
func refuse(status int, code, format string, args ...any) error {
	return &TerminalError{Path: PathCampaigns, Status: status, Code: code, Msg: fmt.Sprintf(format, args...)}
}

// Submit validates, admits, journals and queues one campaign: the one
// admission path, behind POST /campaigns and a one-shot grid alike. The
// journal append happens before the campaign exists — acknowledgement IS
// the durability promise — and a failed append refuses the submission. A
// refusal is a *TerminalError carrying the HTTP status and code POST
// /campaigns answers; created is false when a named resubmission returned
// the live campaign instead.
//
// rs, when non-nil, seeds the campaign's result set: every cell it already
// covers counts as done (a resumed one-shot grid), while cell indexes still
// span the whole of req.Specs. onCell, when non-nil, observes each newly
// completed cell after the service saved its results file; it runs under
// the service's lock, so calls are serialized and must not call back in.
func (s *Service) Submit(req *SubmitCampaignRequest, rs *core.ResultSet, onCell func(cell int, res *core.Result)) (info CampaignInfo, created bool, err error) {
	tenant := req.Tenant
	if tenant == "" {
		tenant = "default"
	}
	if !validName(tenant) || !validName(req.Name) {
		return info, false, refuse(http.StatusBadRequest, ErrCodeBadRequest,
			"tenant and name must be [A-Za-z0-9._:-], at most 64 chars")
	}
	if req.Retries < 0 {
		return info, false, refuse(http.StatusBadRequest, ErrCodeBadRequest, "retries must be >= 0")
	}
	if len(req.Specs) == 0 {
		return info, false, refuse(http.StatusBadRequest, ErrCodeInvalidSpec, "no cells in submission")
	}
	seen := make(map[core.CellKey]bool, len(req.Specs))
	for i, spec := range req.Specs {
		if err := spec.Validate(); err != nil {
			return info, false, refuse(http.StatusBadRequest, ErrCodeInvalidSpec, "spec %d: %v", i, err)
		}
		k := spec.Key()
		if seen[k] {
			return info, false, refuse(http.StatusBadRequest, ErrCodeInvalidSpec,
				"spec %d: duplicate cell %s/%s/%d-bit", i, k.Component, k.Workload, k.Faults)
		}
		seen[k] = true
	}

	s.mu.Lock()
	defer s.mu.Unlock()

	// Idempotent named resubmission: the client that crashed between its
	// POST and our 201 retries the same name and gets the live campaign
	// back instead of a duplicate.
	if req.Name != "" {
		for _, id := range s.order {
			c := s.campaigns[id]
			if c.tenant == tenant && c.name == req.Name && !terminalState(c.state) {
				return s.infoLocked(c), false, nil
			}
		}
	}

	// Admission control.
	var queued, tenantLive, tenantCells int
	for _, c := range s.campaigns {
		if terminalState(c.state) {
			continue
		}
		if c.state == StateQueued {
			queued++
		}
		if c.tenant == tenant {
			tenantLive++
			tenantCells += len(c.specs)
		}
	}
	switch {
	case queued >= s.opts.QueueDepth:
		s.tel.AdmissionRejected(tenant, ErrCodeQueueFull)
		return info, false, refuse(http.StatusTooManyRequests, ErrCodeQueueFull,
			"campaign queue full (%d queued)", queued)
	case tenantLive >= s.opts.TenantCampaigns:
		s.tel.AdmissionRejected(tenant, ErrCodeTenantCampaigns)
		return info, false, refuse(http.StatusTooManyRequests, ErrCodeTenantCampaigns,
			"tenant %s at its live-campaign limit (%d)", tenant, tenantLive)
	case tenantCells+len(req.Specs) > s.opts.TenantCells:
		s.tel.AdmissionRejected(tenant, ErrCodeTenantCells)
		return info, false, refuse(http.StatusTooManyRequests, ErrCodeTenantCells,
			"tenant %s would exceed its live-cell limit (%d live + %d submitted > %d)",
			tenant, tenantCells, len(req.Specs), s.opts.TenantCells)
	}

	budget := req.Retries
	if budget <= 0 {
		budget = s.opts.MaxRetries
	}
	if rs == nil {
		rs = core.NewResultSet()
	}
	id := fmt.Sprintf("c%06d", s.nextID)
	now := s.now().UnixNano()
	// Durability before acknowledgement: the journal line is what replay
	// rebuilds the campaign from.
	if err := s.journal.Append(JournalRecord{
		Op: JournalOpSubmit, ID: id, TimeNS: now,
		Tenant: tenant, Name: req.Name, Retries: budget, Specs: req.Specs,
	}); err != nil {
		return info, false, err
	}
	s.nextID++
	c := &svcCampaign{
		id: id, tenant: tenant, name: req.Name, budget: budget,
		specs: req.Specs, state: StateQueued, submittedNS: now,
		rs: rs, onCell: onCell, stop: make(chan struct{}),
	}
	s.campaigns[id] = c
	s.order = append(s.order, id)
	s.tel.CampaignEntered(StateQueued)
	s.tel.Emit(telemetry.Event{Type: telemetry.EventCampaignQueued,
		Campaign: id, Tenant: c.tenant, Cell: -1, Cells: len(c.specs)})
	s.scheduleLocked()
	s.refreshGaugesLocked()
	return s.infoLocked(c), true, nil
}

// Wait blocks until campaign id reaches a terminal state (or the service
// closes) and returns its status then; ctx ending first returns ctx.Err().
func (s *Service) Wait(ctx context.Context, id string) (CampaignInfo, error) {
	s.mu.Lock()
	c, ok := s.campaigns[id]
	s.mu.Unlock()
	if !ok {
		return CampaignInfo{}, fmt.Errorf("dispatch: no campaign %s", id)
	}
	select {
	case <-ctx.Done():
		return CampaignInfo{}, ctx.Err()
	case <-c.stop:
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.infoLocked(c), nil
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	infos := make([]CampaignInfo, 0, len(s.order))
	for _, id := range s.order {
		infos = append(infos, s.infoLocked(s.campaigns[id]))
	}
	s.mu.Unlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	writeJSON(w, http.StatusOK, infos)
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	c, ok := s.campaigns[r.PathValue("id")]
	if !ok {
		s.mu.Unlock()
		writeAPIError(w, http.StatusNotFound, ErrCodeUnknownCampaign, "no such campaign", 0)
		return
	}
	info := s.infoLocked(c)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, info)
}

// handleResults serves the campaign's durable results file — the exact
// bytes a crash-restarted service would resume from, so "download results,
// kill the service, diff after restart" is a byte-identity check.
func (s *Service) handleResults(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	_, ok := s.campaigns[id]
	s.mu.Unlock()
	if !ok {
		writeAPIError(w, http.StatusNotFound, ErrCodeUnknownCampaign, "no such campaign", 0)
		return
	}
	data, err := os.ReadFile(s.resultsPath(id))
	if os.IsNotExist(err) {
		writeAPIError(w, http.StatusNotFound, "no_results", "no cells completed yet", 0)
		return
	} else if err != nil {
		writeAPIError(w, http.StatusInternalServerError, "results_error", err.Error(), 0)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	_, ok := s.campaigns[id]
	s.mu.Unlock()
	if !ok {
		writeAPIError(w, http.StatusNotFound, ErrCodeUnknownCampaign, "no such campaign", 0)
		return
	}
	eventsHandler(s.tel, id)(w, r)
}

// handleAction is POST /campaigns/{id}/{pause|resume|cancel}.
func (s *Service) handleAction(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.campaigns[r.PathValue("id")]
	if !ok {
		writeAPIError(w, http.StatusNotFound, ErrCodeUnknownCampaign, "no such campaign", 0)
		return
	}
	action := r.PathValue("action")
	bad := func() {
		writeAPIError(w, http.StatusConflict, ErrCodeBadTransition,
			fmt.Sprintf("cannot %s a %s campaign", action, c.state), 0)
	}
	switch action {
	case "pause":
		if c.state != StateQueued && c.state != StateRunning {
			bad()
			return
		}
		s.transitionLocked(c, StatePaused, "")
		if c.coord != nil {
			// Drain: leases come straight back to pending with no retry
			// charge; workers find out via StatusExpired heartbeats.
			c.coord.Release()
		}
		s.scheduleLocked()
	case "resume":
		if c.state != StatePaused {
			bad()
			return
		}
		// A campaign paused before it ever ran goes back to the queue; one
		// paused mid-run keeps its coordinator and rejoins the rotation
		// (subject to the active-slot limit, which counts running only —
		// resume re-runs the scheduler rather than jumping the line).
		s.transitionLocked(c, StateQueued, "")
		s.scheduleLocked()
	case "cancel":
		if terminalState(c.state) {
			bad()
			return
		}
		s.transitionLocked(c, StateCancelled, "")
		if c.coord != nil {
			c.coord.Release()
		}
		s.scheduleLocked()
	default:
		writeAPIError(w, http.StatusNotFound, ErrCodeBadRequest,
			"unknown action (want pause, resume or cancel)", 0)
		return
	}
	s.refreshGaugesLocked()
	writeJSON(w, http.StatusOK, s.infoLocked(c))
}

// lease multiplexes the shared fleet: running campaigns are offered the
// worker round-robin, so N campaigns make progress together instead of
// starving in submission order. A coordinator replying done (its campaign
// just finished, watcher not yet run) or wait (tail: all pending cells
// leased) is skipped; only when no campaign has work does the worker get
// StatusWait — never StatusDone, because the service outlives any one
// campaign and the fleet should stay, until a Drain sends it home.
func (s *Service) lease(req *LeaseRequest) *LeaseReply {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.touchWorkerLocked(req.Worker)
	if s.draining {
		s.dropWorkerLocked(req.Worker, "campaign over")
		return &LeaseReply{Status: StatusDone}
	}
	n := len(s.order)
	for k := 0; k < n; k++ {
		c := s.campaigns[s.order[(s.rr+k)%n]]
		if c.state != StateRunning || c.coord == nil {
			continue
		}
		rep := c.coord.lease(req)
		if rep.Status == StatusLease {
			s.rr = (s.rr + k + 1) % n
			s.refreshGaugesLocked()
			return rep
		}
	}
	s.refreshGaugesLocked()
	return &LeaseReply{Status: StatusWait, RetryAfter: s.opts.LeaseTTL / 4}
}

// routed adapts a campaign-scoped protocol handler: it decodes the
// request, records worker contact, federates the piggybacked metrics, and
// resolves the campaign the request names. A request naming no campaign or
// one this journal has never heard of gets a typed 404 — terminal for the
// worker, which is the point: it is talking to the wrong service (or a
// service whose state directory was wiped), and retrying cannot fix that.
// A campaign that merely ENDED is not 404 — it stays in the map forever,
// and the per-endpoint handler answers with the protocol's "that lease is
// gone" status so the worker moves on to the next campaign.
func routed[Req, Rep any](s *Service, f func(*svcCampaign, *Req) *Rep) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req Req
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeAPIError(w, http.StatusBadRequest, ErrCodeBadRequest, err.Error(), 0)
			return
		}
		worker, campaign, metrics := requestMeta(&req)
		s.mu.Lock()
		s.touchWorkerLocked(worker)
		s.fed.Merge(worker, metrics)
		c, ok := s.campaigns[campaign]
		if !ok {
			s.mu.Unlock()
			writeAPIError(w, http.StatusNotFound, ErrCodeUnknownCampaign,
				fmt.Sprintf("campaign %q is not known to this service", campaign), 0)
			return
		}
		rep := f(c, &req)
		s.refreshGaugesLocked()
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, rep)
	}
}

// requestMeta pulls the routing fields every worker-facing request carries.
func requestMeta(req any) (worker, campaign string, metrics []telemetry.WireMetric) {
	switch q := req.(type) {
	case *HeartbeatRequest:
		return q.Worker, q.Campaign, q.Metrics
	case *SubmitRequest:
		return q.Worker, q.Campaign, q.Metrics
	case *AbandonRequest:
		return q.Worker, q.Campaign, nil
	}
	return "", "", nil
}

// Snapshot summarizes the service for /healthz: campaign counts by state,
// queue depth and the live worker count.
func (s *Service) Snapshot() map[string]any {
	s.mu.Lock()
	defer s.mu.Unlock()
	states := make(map[string]int)
	queued := 0
	for _, c := range s.campaigns {
		states[c.state]++
		if c.state == StateQueued {
			queued++
		}
	}
	return map[string]any{
		"campaigns":   len(s.campaigns),
		"by_state":    states,
		"queue_depth": queued,
		"workers":     len(s.workers),
	}
}
