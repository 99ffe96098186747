package telemetry

import (
	"strings"
	"time"
)

// Campaign metric names. All series share the gefin_ prefix so one scrape
// config covers the whole campaign; outcome-split series embed the class
// as a label.
const (
	MetricSamples       = "gefin_samples_total" // + {outcome="..."} label
	MetricSampleSeconds = "gefin_sample_duration_seconds"
	MetricCells         = "gefin_cells_completed_total"
	MetricCellQueue     = "gefin_cell_queue_seconds"
	MetricCellRun       = "gefin_cell_run_seconds"
	MetricCellFlush     = "gefin_cell_flush_seconds"
	MetricCkptHits      = "gefin_checkpoint_hits_total"
	MetricCkptMisses    = "gefin_checkpoint_misses_total"
	MetricCyclesSkipped = "gefin_checkpoint_cycles_skipped_total"
	MetricWorkersBusy   = "gefin_cell_workers_busy"
	MetricCellsExpected = "gefin_cells_expected"
	MetricSamplesExpect = "gefin_samples_expected"
	MetricSampleWorkers = "gefin_sample_workers_per_cell"
	MetricCellWorkers   = "gefin_cell_workers"

	// Forensics series (PR 4). Fates are split by component and fate class;
	// the occupancy gauges hold the mean at-inject structure state of a
	// cell in basis points (1/10000), since gauges are integral.
	MetricFates       = "gefin_fates_total" // + {comp="...",fate="..."}
	MetricOccupancyBP = "gefin_inject_occupancy_bp"
	MetricDirtyBP     = "gefin_inject_dirty_bp"

	// Robustness and dispatch series (PR 5): recovered sample panics, and
	// the coordinator's view of a distributed campaign — live workers,
	// outstanding leases, expiry/reassignment churn and deduplicated
	// resubmissions.
	MetricWorkerPanics    = "gefin_worker_panics_total"
	MetricDispatchWorkers = "gefin_dispatch_workers_live"
	MetricDispatchLeased  = "gefin_dispatch_cells_leased"
	MetricDispatchExpired = "gefin_dispatch_leases_expired_total"
	MetricDispatchRetried = "gefin_dispatch_cells_retried_total"
	MetricDispatchDeduped = "gefin_dispatch_submits_deduped_total"

	// Observability-plane series (PR 8): distinct workers that ever joined
	// the campaign (the live gauge forgets a dead worker; this counter does
	// not), campaign events appended to the event log, and the process
	// build-info gauge (constant 1, identity in the labels).
	MetricWorkersSeen = "gefin_dispatch_workers_seen_total"
	MetricEvents      = "gefin_campaign_events_total"
	MetricBuildInfo   = "gefin_build_info"

	// Checkpoint-artifact series (PR 7): how each process came by its
	// workloads' golden state. GoldenDerived counts full fault-free golden
	// runs actually executed here — the expensive event the artifact store
	// exists to avoid; summing it across a fleet proves how many were paid
	// for in total. The artifact counters split the cheap path: served by
	// the coordinator, satisfied from the worker's disk cache, fetched over
	// HTTP, rejected as corrupt, or fallen back to local derivation.
	MetricGoldenDerived     = "gefin_golden_derived_total"
	MetricArtifactServed    = "gefin_artifact_served_total"
	MetricArtifactCacheHits = "gefin_artifact_cache_hits_total"
	MetricArtifactFetches   = "gefin_artifact_fetches_total"
	MetricArtifactCorrupt   = "gefin_artifact_corrupt_total"
	MetricArtifactFallbacks = "gefin_artifact_fallbacks_total"

	// Campaign-service series (PR 10): campaign state transitions (the
	// counter increments each time any campaign ENTERS a state, so
	// {state="done"} is completed campaigns and {state="queued"} is total
	// admissions), the current queue depth and live-campaign gauges, the
	// per-tenant admission rejections with the reason they bounced, and
	// per-campaign completed-cell counters.
	MetricCampaigns        = "gefin_campaigns_total" // + {state="..."}
	MetricQueueDepth       = "gefin_campaign_queue_depth"
	MetricCampaignsLive    = "gefin_campaigns_live"
	MetricAdmissionRejects = "gefin_admission_rejects_total" // + {tenant,reason}
	MetricCampaignCells    = "gefin_campaign_cells_done_total"

	// Liveness-profiling series (PR 9): one counter per completed profile
	// artifact plus per-(component, workload) analytical gauges, so a
	// profiling run's ACE fraction and never-touched fraction are visible
	// on the same scrape endpoint as the injection-measured campaign
	// series they predict.
	MetricProfiles       = "gefin_profiles_total"
	MetricProfileACEBP   = "gefin_profile_ace_bp"
	MetricProfileNeverBP = "gefin_profile_never_touched_bp"

	// Sample-exit series: how each sample ended (see the Exit* values),
	// the runtime audit's disagreements between a liveness-index verdict
	// and the re-simulated outcome (present once any sample was audited,
	// and always 0 unless the simulator grew a read path the bit
	// semantics miss), and the wall time of each workload's one golden
	// pass that builds the liveness index. A worker sets the constant
	// worker-info gauge when it starts, so its first heartbeat always
	// carries a series.
	MetricSampleExits      = "gefin_sample_exits_total" // + {exit="..."}
	MetricAuditMismatches  = "gefin_shortcut_audit_mismatches_total"
	MetricLiveIndexSeconds = "gefin_live_index_build_seconds" // + {workload="..."}
	MetricWorkerInfo       = "gefin_worker_info"
)

// Campaign bundles a metrics registry and an optional tracer behind typed
// recording hooks for the campaign hot path. A nil *Campaign is the
// disabled state: every method returns immediately and allocates nothing,
// so core.Run and friends call these hooks unconditionally.
type Campaign struct {
	Registry *Registry
	Tracer   *Tracer
	// Events, when non-nil, receives the campaign event log (see events.go):
	// local grids emit cell_done per completed cell, the dispatch
	// coordinator additionally narrates leases, workers and retries.
	Events *EventLog
}

// NewCampaign returns an enabled campaign with a fresh registry. tracer
// may be nil (metrics only).
func NewCampaign(tracer *Tracer) *Campaign {
	return &Campaign{Registry: NewRegistry(), Tracer: tracer}
}

// Enabled reports whether any telemetry is being collected.
func (c *Campaign) Enabled() bool { return c != nil }

// Tracing reports whether per-sample trace records should be built.
func (c *Campaign) Tracing() bool { return c != nil && c.Tracer != nil }

// RecordSample ingests one classified injection run: outcome counter,
// duration histogram, and checkpoint hit/miss accounting. A checkpoint
// "hit" is a restore that actually skipped golden-prefix cycles; restores
// of the cycle-0 checkpoint and -nockpt runs count as misses.
func (c *Campaign) RecordSample(rec *SampleRecord) {
	if c == nil {
		return
	}
	c.Registry.Counter(MetricSamples + `{outcome="` + rec.Outcome + `"}`).Inc()
	if rec.Exit != "" {
		c.Registry.Counter(MetricSampleExits + `{exit="` + rec.Exit + `"}`).Inc()
	}
	c.Registry.Histogram(MetricSampleSeconds, DurationBuckets).
		Observe(float64(rec.DurationNS) / 1e9)
	if rec.CyclesSkipped > 0 {
		c.Registry.Counter(MetricCkptHits).Inc()
		c.Registry.Counter(MetricCyclesSkipped).Add(int64(rec.CyclesSkipped))
	} else {
		c.Registry.Counter(MetricCkptMisses).Inc()
	}
}

// RecordAudit counts one audited sample's verdict: a mismatch means the
// liveness index called a fault dead that the simulation found live.
func (c *Campaign) RecordAudit(mismatch bool) {
	if c == nil {
		return
	}
	var n int64
	if mismatch {
		n = 1
	}
	c.Registry.Counter(MetricAuditMismatches).Add(n)
}

// LiveIndexBuilt records the golden pass that built one workload's
// liveness index.
func (c *Campaign) LiveIndexBuilt(workload string, d time.Duration) {
	if c == nil {
		return
	}
	c.Registry.Histogram(MetricLiveIndexSeconds+`{workload="`+workload+`"}`, DurationBuckets).ObserveDuration(d)
}

// SetWorkerInfo sets the constant worker-info gauge.
func (c *Campaign) SetWorkerInfo() {
	if c == nil {
		return
	}
	c.Registry.Gauge(MetricWorkerInfo).Set(1)
}

// RecordFate ingests one resolved fault lifecycle into the per-component
// fate counters.
func (c *Campaign) RecordFate(rec *FateRecord) {
	if c == nil {
		return
	}
	c.Registry.Counter(MetricFates + `{comp="` + rec.Component + `",fate="` + rec.Fate + `"}`).Inc()
}

// SetCellOccupancy publishes a cell's mean at-inject structure state as
// basis-point gauges: the valid fraction always, the dirty fraction only
// for targets that track one (caches).
func (c *Campaign) SetCellOccupancy(comp, workload string, faults int, occ float64, dirty float64, hasDirty bool) {
	if c == nil {
		return
	}
	label := `{comp="` + comp + `",workload="` + workload + `",faults="` + itoa(faults) + `"}`
	c.Registry.Gauge(MetricOccupancyBP + label).Set(int64(occ*1e4 + 0.5))
	if hasDirty {
		c.Registry.Gauge(MetricDirtyBP + label).Set(int64(dirty*1e4 + 0.5))
	}
}

// RecordProfileComponent publishes one component's analytical summary
// from a liveness profile: the ACE (live-bit-cycle) fraction and the
// never-touched fraction, both in basis points.
func (c *Campaign) RecordProfileComponent(comp, workload string, ace, never float64) {
	if c == nil {
		return
	}
	label := `{comp="` + comp + `",workload="` + workload + `"}`
	c.Registry.Gauge(MetricProfileACEBP + label).Set(int64(ace*1e4 + 0.5))
	c.Registry.Gauge(MetricProfileNeverBP + label).Set(int64(never*1e4 + 0.5))
}

// RecordProfileDone counts one liveness profile artifact written (or
// verified up to date) by this process.
func (c *Campaign) RecordProfileDone() {
	if c == nil {
		return
	}
	c.Registry.Counter(MetricProfiles).Inc()
}

// itoa is strconv.Itoa for the small positive ints in metric labels,
// avoiding the strconv import on the recording path.
func itoa(n int) string {
	if n < 10 {
		return string([]byte{byte('0' + n)})
	}
	return itoa(n/10) + string([]byte{byte('0' + n%10)})
}

// RecordWorkerPanic counts one recovered sample-worker panic (the sample's
// cell fails cleanly instead of aborting the process).
func (c *Campaign) RecordWorkerPanic() {
	if c == nil {
		return
	}
	c.Registry.Counter(MetricWorkerPanics).Inc()
}

// SetDispatchWorkers publishes the coordinator's live-worker count: workers
// that have leased, heartbeated or submitted recently.
func (c *Campaign) SetDispatchWorkers(n int64) {
	if c == nil {
		return
	}
	c.Registry.Gauge(MetricDispatchWorkers).Set(n)
}

// SetDispatchLeased publishes the number of cells currently out on lease.
func (c *Campaign) SetDispatchLeased(n int64) {
	if c == nil {
		return
	}
	c.Registry.Gauge(MetricDispatchLeased).Set(n)
}

// DispatchLeaseExpired counts one lease whose worker stopped heartbeating
// before completing its cell.
func (c *Campaign) DispatchLeaseExpired() {
	if c == nil {
		return
	}
	c.Registry.Counter(MetricDispatchExpired).Inc()
}

// DispatchCellRetried counts one cell returned to the pending queue for
// reassignment (lease expiry or a worker-reported failure).
func (c *Campaign) DispatchCellRetried() {
	if c == nil {
		return
	}
	c.Registry.Counter(MetricDispatchRetried).Inc()
}

// DispatchWorkerSeen counts one worker id joining the campaign for the
// first time.
func (c *Campaign) DispatchWorkerSeen() {
	if c == nil {
		return
	}
	c.Registry.Counter(MetricWorkersSeen).Inc()
}

// Emit appends one event to the campaign event log (no-op without one) and
// counts it. The log assigns Seq and TimeNS.
func (c *Campaign) Emit(ev Event) {
	if c == nil || c.Events == nil {
		return
	}
	c.Events.Emit(ev)
	c.Registry.Counter(MetricEvents).Inc()
}

// CampaignEntered counts one campaign entering a lifecycle state (queued,
// running, paused, done, failed, cancelled).
func (c *Campaign) CampaignEntered(state string) {
	if c == nil {
		return
	}
	c.Registry.Counter(MetricCampaigns + `{state="` + state + `"}`).Inc()
}

// SetQueueDepth publishes the campaign service's queued-campaign count.
func (c *Campaign) SetQueueDepth(n int64) {
	if c == nil {
		return
	}
	c.Registry.Gauge(MetricQueueDepth).Set(n)
}

// SetCampaignsLive publishes how many campaigns are live (queued, running
// or paused) in the campaign service.
func (c *Campaign) SetCampaignsLive(n int64) {
	if c == nil {
		return
	}
	c.Registry.Gauge(MetricCampaignsLive).Set(n)
}

// AdmissionRejected counts one campaign submission bounced by admission
// control, split by tenant and reason (queue_full, tenant_campaigns,
// tenant_cells).
func (c *Campaign) AdmissionRejected(tenant, reason string) {
	if c == nil {
		return
	}
	c.Registry.Counter(MetricAdmissionRejects + `{tenant="` + tenant + `",reason="` + reason + `"}`).Inc()
}

// CampaignCellDone counts one completed cell against its campaign and
// tenant, so one /metrics scrape shows per-campaign progress.
func (c *Campaign) CampaignCellDone(campaign, tenant string) {
	if c == nil {
		return
	}
	c.Registry.Counter(MetricCampaignCells + `{campaign="` + campaign + `",tenant="` + tenant + `"}`).Inc()
}

// DispatchSubmitDeduped counts one result delivered for an already-complete
// cell and dropped as a no-op (a slow worker re-delivering after its lease
// was reassigned).
func (c *Campaign) DispatchSubmitDeduped() {
	if c == nil {
		return
	}
	c.Registry.Counter(MetricDispatchDeduped).Inc()
}

// GoldenDerived counts one full golden reference run executed in this
// process (as opposed to installed from a cached artifact).
func (c *Campaign) GoldenDerived() {
	if c == nil {
		return
	}
	c.Registry.Counter(MetricGoldenDerived).Inc()
}

// ArtifactServed counts one checkpoint artifact served to a worker.
func (c *Campaign) ArtifactServed() {
	if c == nil {
		return
	}
	c.Registry.Counter(MetricArtifactServed).Inc()
}

// ArtifactCacheHit counts one workload brought up from the local artifact
// disk cache, no golden run and no network.
func (c *Campaign) ArtifactCacheHit() {
	if c == nil {
		return
	}
	c.Registry.Counter(MetricArtifactCacheHits).Inc()
}

// ArtifactFetched counts one artifact downloaded from the coordinator and
// installed.
func (c *Campaign) ArtifactFetched() {
	if c == nil {
		return
	}
	c.Registry.Counter(MetricArtifactFetches).Inc()
}

// ArtifactCorrupt counts one cached or fetched artifact rejected by
// verification (bad hash, bad structure, wrong image).
func (c *Campaign) ArtifactCorrupt() {
	if c == nil {
		return
	}
	c.Registry.Counter(MetricArtifactCorrupt).Inc()
}

// ArtifactFallback counts one workload that fell back to local golden
// derivation after the artifact path failed (no coordinator artifact,
// fetch error, or verification failure).
func (c *Campaign) ArtifactFallback() {
	if c == nil {
		return
	}
	c.Registry.Counter(MetricArtifactFallbacks).Inc()
}

// FlushCell persists one completed cell's trace records and forensics
// records (no-op without a tracer) and bumps the completed-cell counter.
func (c *Campaign) FlushCell(recs []SampleRecord, fates []FateRecord) {
	if c == nil {
		return
	}
	c.Registry.Counter(MetricCells).Inc()
	c.Tracer.WriteCell(recs, fates)
}

// RecordCellQueue records how long a cell waited between grid submission
// and a worker picking it up.
func (c *Campaign) RecordCellQueue(d time.Duration) {
	if c == nil {
		return
	}
	c.Registry.Histogram(MetricCellQueue, DurationBuckets).ObserveDuration(d)
}

// RecordCellRun records one cell's end-to-end run time.
func (c *Campaign) RecordCellRun(d time.Duration) {
	if c == nil {
		return
	}
	c.Registry.Histogram(MetricCellRun, DurationBuckets).ObserveDuration(d)
}

// RecordCellFlush records the time spent in the onCell callback (results
// flush, progress output).
func (c *Campaign) RecordCellFlush(d time.Duration) {
	if c == nil {
		return
	}
	c.Registry.Histogram(MetricCellFlush, DurationBuckets).ObserveDuration(d)
}

// WorkerBusy moves the busy cell-worker gauge by delta (+1 on pickup,
// -1 on completion).
func (c *Campaign) WorkerBusy(delta int64) {
	if c == nil {
		return
	}
	c.Registry.Gauge(MetricWorkersBusy).Add(delta)
}

// SetGridShape publishes the grid geometry: expected cells and samples,
// and the cell/sample worker split the scheduler chose.
func (c *Campaign) SetGridShape(cells, samples int, cellWorkers, sampleWorkers int) {
	if c == nil {
		return
	}
	c.Registry.Gauge(MetricCellsExpected).Set(int64(cells))
	c.Registry.Gauge(MetricSamplesExpect).Set(int64(samples))
	c.Registry.Gauge(MetricCellWorkers).Set(int64(cellWorkers))
	c.Registry.Gauge(MetricSampleWorkers).Set(int64(sampleWorkers))
}

// Summary is a point-in-time digest of campaign progress for the periodic
// status line.
type Summary struct {
	Samples         int64            // classified so far
	SamplesExpected int64            // 0 when the grid shape was not published
	ByOutcome       map[string]int64 // outcome class -> count
	Cells           int64
	CellsExpected   int64
	CheckpointHits  int64
	CheckpointMiss  int64
	// ByFate aggregates the forensics fate counters across components;
	// empty when forensics was off.
	ByFate map[string]int64
	// Fleet view (coordinator mode): live/ever-seen worker counts, cells
	// currently out on lease, and the expiry/retry churn — all zero on a
	// purely local campaign.
	WorkersLive   int64
	WorkersSeen   int64
	CellsLeased   int64
	LeasesExpired int64
	CellsRetried  int64
}

// Fleet reports whether the summary carries any distributed-campaign state
// worth rendering.
func (s Summary) Fleet() bool {
	return s.WorkersLive > 0 || s.WorkersSeen > 0 || s.CellsLeased > 0 ||
		s.LeasesExpired > 0 || s.CellsRetried > 0
}

// Summarize digests the registry, including federated fleet aggregates: a
// series labeled worker="fleet" is folded in as if it were local (the
// coordinator runs no samples itself, so the two never overlap), while
// per-worker mirror series are skipped — they are the same observations
// again and would double-count.
func (c *Campaign) Summarize() Summary {
	var s Summary
	if c == nil {
		return s
	}
	s.ByOutcome = make(map[string]int64)
	s.ByFate = make(map[string]int64)
	prefix := MetricSamples + `{outcome="`
	fatePrefix := MetricFates + `{comp="`
	for _, m := range c.Registry.Snapshot() {
		name, worker := splitWorkerLabel(m.Name)
		if worker != "" && worker != FleetWorker {
			continue
		}
		fleet := worker == FleetWorker
		switch {
		case strings.HasPrefix(name, prefix):
			outcome := strings.TrimSuffix(strings.TrimPrefix(name, prefix), `"}`)
			s.ByOutcome[outcome] += int64(m.Value)
			s.Samples += int64(m.Value)
		case strings.HasPrefix(name, fatePrefix):
			rest := strings.TrimPrefix(name, fatePrefix)
			if i := strings.Index(rest, `",fate="`); i >= 0 {
				fate := strings.TrimSuffix(rest[i+len(`",fate="`):], `"}`)
				s.ByFate[fate] += int64(m.Value)
			}
		case name == MetricCkptHits:
			s.CheckpointHits += int64(m.Value)
		case name == MetricCkptMisses:
			s.CheckpointMiss += int64(m.Value)
		case fleet:
			// The remaining families are authoritative locally: the
			// coordinator's own cells_completed / grid-shape / dispatch
			// series. Their fleet mirrors (a worker's 1-cell grid shape, its
			// duplicate completed-cells count) are views of the same events.
		case name == MetricCells:
			s.Cells = int64(m.Value)
		case name == MetricCellsExpected:
			s.CellsExpected = int64(m.Value)
		case name == MetricSamplesExpect:
			s.SamplesExpected = int64(m.Value)
		case name == MetricDispatchWorkers:
			s.WorkersLive = int64(m.Value)
		case name == MetricWorkersSeen:
			s.WorkersSeen = int64(m.Value)
		case name == MetricDispatchLeased:
			s.CellsLeased = int64(m.Value)
		case name == MetricDispatchExpired:
			s.LeasesExpired = int64(m.Value)
		case name == MetricDispatchRetried:
			s.CellsRetried = int64(m.Value)
		}
	}
	return s
}
