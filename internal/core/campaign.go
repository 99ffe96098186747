package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mbusim/internal/cpu"
	"mbusim/internal/forensics"
	"mbusim/internal/liveness"
	"mbusim/internal/sim"
	"mbusim/internal/stats"
	"mbusim/internal/telemetry"
	"mbusim/internal/workloads"
)

// Spec describes one fault-injection campaign cell: N injections of
// k-bit spatial faults into one component while one workload runs.
type Spec struct {
	Workload  string
	Component string
	Faults    int // cardinality: 1, 2 or 3 bits per upset
	Samples   int
	Seed      uint64
	Cluster   ClusterSpec // zero value means DefaultCluster

	// TimeoutFactor multiplies the golden cycle count to form the Timeout
	// limit; the paper uses 4x. Zero means 4.
	TimeoutFactor float64

	// WallTimeout bounds each sample's wall-clock simulation time (0 means
	// no bound). TimeoutFactor catches livelocks the simulator can count;
	// WallTimeout additionally catches samples whose host-side run time
	// explodes even within the cycle limit. An expired sample is classified
	// EffectTimeout and recorded in the trace like any other sample.
	WallTimeout time.Duration

	// ForceSpanning restricts masks to patterns that span the full cluster
	// in some dimension (ablation of the paper's sub-cluster inclusion).
	ForceSpanning bool

	// NoCheckpoints forces every run to rebuild its machine and replay the
	// golden prefix from cycle 0 instead of fast-forwarding from the
	// workload's golden checkpoint set, and to simulate every sample to
	// its end: no convergence exit, no inject-time resolution from the
	// liveness index. The paths produce identical outcomes; this knob is
	// the reference for cross-checking them and bounds memory on very
	// large configurations.
	NoCheckpoints bool

	// NoDelta forces every checkpointed run to build a fresh machine and
	// fully restore it from the checkpoint snapshot, instead of reusing one
	// machine per worker and rewinding only the state the previous sample
	// dirtied (sim.Machine.RestoreDelta). The two paths produce identical
	// outcomes; this knob exists for A/B verification of the delta-restore
	// fast path. Implied by NoCheckpoints (there is no checkpoint to delta
	// against).
	NoDelta bool

	// Protect evaluates an error-protection scheme on the target structure
	// (extension; see Protection). The zero value is no protection, the
	// paper's configuration.
	Protect Protection

	// Forensics selects per-sample fault-lifecycle tracking (see
	// internal/forensics): ModeOff (zero value) records nothing, ModeFast
	// arms the component access probes, ModeFull additionally replays a
	// lockstep shadow machine from the same checkpoint and records the
	// first architectural-divergence cycle (~2x per-sample cost). The
	// probes only observe, so classified outcomes are identical in every
	// mode.
	Forensics forensics.Mode
}

func (s Spec) withDefaults() Spec {
	if s.Cluster == (ClusterSpec{}) {
		s.Cluster = DefaultCluster
	}
	if s.TimeoutFactor == 0 {
		s.TimeoutFactor = 4
	}
	return s
}

// Normalize returns the spec in canonical form: defaults filled in
// (Cluster, TimeoutFactor) and the protection reduced to its effective
// identity — ProtectNone discards the interleave degree (Filter never
// consults it) and an interleave below 1 becomes 1, which it already
// means. Two specs that normalize equal run byte-identical campaigns.
func (s Spec) Normalize() Spec {
	s = s.withDefaults()
	if s.Protect.Kind == ProtectNone {
		s.Protect = Protection{}
	} else if s.Protect.Interleave < 1 {
		s.Protect.Interleave = 1
	}
	return s
}

// Equivalent reports whether two specs describe the same campaign cell with
// the same outcome distribution: every field that can change a classified
// result must match after normalization. NoCheckpoints, NoDelta and
// Forensics are excluded — they select execution strategy and observation
// only, and the simulator guarantees identical outcomes across them — so a
// result produced under one may stand in for the others. This is the
// identity that resume (ResultSet.Covers) and distributed submit
// verification trust.
func (s Spec) Equivalent(o Spec) bool {
	a, b := s.Normalize(), o.Normalize()
	a.NoCheckpoints, b.NoCheckpoints = false, false
	a.NoDelta, b.NoDelta = false, false
	a.Forensics, b.Forensics = 0, 0
	return a == b
}

// Result aggregates one campaign cell.
type Result struct {
	Spec         Spec
	Counts       [NumEffects]int
	GoldenCycles uint64

	// TargetBits is the bit count (rows x cols) of the injected structure,
	// the spatial extent of the Leveugle fault population.
	TargetBits int
}

// Samples returns the number of classified runs.
func (r *Result) Samples() int {
	n := 0
	for _, c := range r.Counts {
		n += c
	}
	return n
}

// AVF is the architectural vulnerability factor of the cell: the fraction
// of injections that were not masked.
func (r *Result) AVF() float64 {
	n := r.Samples()
	if n == 0 {
		return 0
	}
	return 1 - float64(r.Counts[EffectMasked])/float64(n)
}

// Fraction returns the fraction of runs in one effect class.
func (r *Result) Fraction(e Effect) float64 {
	n := r.Samples()
	if n == 0 {
		return 0
	}
	return float64(r.Counts[e]) / float64(n)
}

// Margin returns the worst-case (p=0.5) error margin of the cell's AVF at
// the given confidence, per the Leveugle formulation.
func (r *Result) Margin(confidence float64) float64 {
	return stats.Margin(r.Samples(), r.population(), 0.5, confidence)
}

// AdjustedMargin re-adjusts the margin using the measured AVF, as the paper
// does after each campaign.
func (r *Result) AdjustedMargin(confidence float64) float64 {
	return stats.Readjust(r.Samples(), r.population(), r.AVF(), r.Margin(confidence), confidence)
}

func (r *Result) population() float64 {
	// Fault population = bits x cycles of exposure, using the target
	// structure's real bit count. Results deserialized from files written
	// before TargetBits existed fall back to the old 1e6 approximation.
	bits := float64(r.TargetBits)
	if bits == 0 {
		bits = 1e6
	}
	return float64(r.GoldenCycles) * bits
}

// Progress receives completed-run counts during a campaign (optional). It
// may be invoked concurrently from multiple workers; done values are each
// reported exactly once but not necessarily in ascending order.
type Progress func(done, total int)

// Run executes a campaign cell: Samples independent machine runs, each with
// a fresh mask at a fresh random injection cycle, classified against the
// workload's golden run. The spec is validated before any worker starts, so
// configuration errors surface as clean errors rather than worker panics.
//
// Cancelling ctx stops the workers promptly (between samples); Run then
// returns ctx.Err() and the partial counts are discarded — a cancelled cell
// is simply re-run on resume, keeping every persisted Result complete.
func Run(ctx context.Context, spec Spec, progress Progress) (*Result, error) {
	return run(ctx, spec, progress, 0, nil)
}

// run is Run with an explicit sample-worker bound and an optional
// telemetry sink; workers <= 0 means GOMAXPROCS. RunGrid uses the bound to
// share cores fairly across cells running in parallel. tel may be nil
// (the no-op campaign): the sample path then skips all timing and
// recording and allocates nothing extra.
func run(ctx context.Context, spec Spec, progress Progress, workers int, tel *telemetry.Campaign) (*Result, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c, err := newCellRun(spec)
	if err != nil {
		return nil, err
	}
	golden := c.golden
	res := &Result{
		Spec:         spec,
		GoldenCycles: golden.Cycles,
		TargetBits:   c.rows * c.cols,
	}

	// Pre-draw per-run randomness deterministically so results do not
	// depend on worker scheduling. idx is the sample's identity in traces
	// and progress accounting, fixed before any reordering below.
	type job struct {
		injectAt uint64
		maskSeed uint64
		idx      int
	}
	seedRNG := rand.New(rand.NewPCG(spec.Seed, 0x9E3779B97F4A7C15))
	jobs := make([]job, spec.Samples)
	for i := range jobs {
		jobs[i] = job{
			injectAt: seedRNG.Uint64N(golden.Cycles),
			maskSeed: seedRNG.Uint64(),
			idx:      i,
		}
	}
	// Dispatch jobs in injection-cycle order: samples that restore from the
	// same golden checkpoint become adjacent, so a worker's delta-restored
	// machine stays on one baseline for long stretches instead of paying a
	// full restore at every checkpoint switch. Sample identity travels with
	// the job, and both the counts and the flushed traces are
	// order-independent (traces are re-sorted by sample index), so results
	// are bit-identical to index-order dispatch.
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].injectAt < jobs[j].injectAt })

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > spec.Samples {
		workers = spec.Samples
	}
	// Lock-free job dispatch: workers claim jobs off an atomic counter and
	// accumulate effect counts locally, merged after the pool drains, so
	// neither dispatch, counting nor the progress callback serializes the
	// workers on a shared mutex. Cancellation is checked between samples:
	// individual runs are short (milliseconds at the scaled geometry), so a
	// cancelled campaign stops promptly without instrumenting the simulator.
	var (
		wg        sync.WaitGroup
		next      atomic.Int64
		completed atomic.Int64
		failed    atomic.Bool
	)
	workerCounts := make([][NumEffects]int, workers)
	workerErrs := make([]error, workers)
	// Per-worker trace buffers: records accumulate locally (no shared lock
	// on the sample path) and are merged, ordered by sample index, and
	// flushed as one batch when the cell completes — so like the results
	// file, the trace only ever holds complete cells.
	var workerRecs [][]telemetry.SampleRecord
	var workerFates [][]telemetry.FateRecord
	if tel.Tracing() {
		workerRecs = make([][]telemetry.SampleRecord, workers)
		if spec.Forensics != forensics.ModeOff {
			workerFates = make([][]telemetry.FateRecord, workers)
		}
	}
	// Per-worker occupancy accumulators: the at-inject structure state is
	// averaged across the cell's samples and published as one gauge pair.
	type occAcc struct {
		occSum, dirtySum float64
		occN, dirtyN     int
	}
	var occAccs []occAcc
	obsOcc := tel.Enabled()
	if obsOcc {
		occAccs = make([]occAcc, workers)
	}
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			local := &workerCounts[wk]
			// Each worker owns a pair of delta-restoring machine caches
			// (faulty + forensics shadow); the NoDelta / NoCheckpoints
			// escape hatches leave them nil and runOne builds fresh
			// machines as before.
			var rst, shadowRst *workloads.Restorer
			if !spec.NoCheckpoints && !spec.NoDelta {
				rst = c.w.NewRestorer()
				if spec.Forensics == forensics.ModeFull {
					shadowRst = c.w.NewRestorer()
				}
			}
			for !failed.Load() && ctx.Err() == nil {
				j := int(next.Add(1)) - 1
				if j >= len(jobs) {
					return
				}
				i := jobs[j].idx
				var start time.Time
				if tel.Enabled() {
					start = time.Now()
				}
				effect, meta, err := c.runOneRecovered(jobs[j].injectAt, jobs[j].maskSeed, i, obsOcc, tel, rst, shadowRst)
				if err != nil {
					workerErrs[wk] = err
					failed.Store(true)
					return
				}
				local[effect]++
				if tel.Enabled() {
					rec := telemetry.SampleRecord{
						Component: spec.Component, Workload: spec.Workload,
						Faults: spec.Faults, Sample: i, Seed: spec.Seed,
						InjectCycle: jobs[j].injectAt, MaskBits: meta.maskBits,
						Checkpoint: meta.checkpoint, CyclesSkipped: meta.cyclesSkipped,
						Outcome:    effect.Label(),
						DurationNS: time.Since(start).Nanoseconds(),
						Exit:       meta.exit,
					}
					tel.RecordSample(&rec)
					if meta.exit == telemetry.ExitAudited {
						tel.RecordAudit(meta.auditMismatch)
					}
					if workerRecs != nil {
						workerRecs[wk] = append(workerRecs[wk], rec)
					}
					if meta.hasReport {
						fr := telemetry.FateRecord{
							Component: spec.Component, Workload: spec.Workload,
							Faults: spec.Faults, Sample: i, Seed: spec.Seed,
							InjectCycle:   jobs[j].injectAt,
							Mask:          maskPairs(meta.mask),
							Fate:          meta.report.Fate.Label(),
							FirstTouchLat: meta.report.FirstTouchLat,
							DivergeCycle:  meta.report.DivergeCycle,
							Outcome:       effect.Label(),
						}
						tel.RecordFate(&fr)
						if workerFates != nil {
							workerFates[wk] = append(workerFates[wk], fr)
						}
					}
					if meta.hasOcc {
						acc := &occAccs[wk]
						acc.occSum += meta.occ
						acc.occN++
						if meta.hasDirty {
							acc.dirtySum += meta.dirty
							acc.dirtyN++
						}
					}
				}
				if progress != nil {
					progress(int(completed.Add(1)), len(jobs))
				}
			}
		}(wk)
	}
	wg.Wait()
	for _, err := range workerErrs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i := range workerCounts {
		for e, n := range workerCounts[i] {
			res.Counts[e] += n
		}
	}
	if tel.Enabled() {
		var recs []telemetry.SampleRecord
		for _, wr := range workerRecs {
			recs = append(recs, wr...)
		}
		sort.Slice(recs, func(i, j int) bool { return recs[i].Sample < recs[j].Sample })
		var fates []telemetry.FateRecord
		for _, wf := range workerFates {
			fates = append(fates, wf...)
		}
		sort.Slice(fates, func(i, j int) bool { return fates[i].Sample < fates[j].Sample })
		tel.FlushCell(recs, fates)
		var occSum, dirtySum float64
		var occN, dirtyN int
		for i := range occAccs {
			occSum += occAccs[i].occSum
			occN += occAccs[i].occN
			dirtySum += occAccs[i].dirtySum
			dirtyN += occAccs[i].dirtyN
		}
		if occN > 0 {
			meanDirty := 0.0
			if dirtyN > 0 {
				meanDirty = dirtySum / float64(dirtyN)
			}
			tel.SetCellOccupancy(spec.Component, spec.Workload, spec.Faults,
				occSum/float64(occN), meanDirty, dirtyN > 0)
		}
	}
	return res, nil
}

// maxSpanningTries bounds the rejection sampling of ForceSpanning masks.
const maxSpanningTries = 1000

// sampleScratch holds the per-sample scratch state of the hot sample path:
// the mask RNG (reseeded for every sample, so one PCG serves them all), the
// Fisher-Yates permutation buffer and the mask cell buffer. Pooling it
// removes every mask-drawing allocation from runOne; the machines
// themselves are already reused through each worker's Restorer.
type sampleScratch struct {
	pcg   *rand.PCG
	rng   *rand.Rand
	idx   []int
	cells []Cell
}

var scratchPool = sync.Pool{New: func() any {
	pcg := rand.NewPCG(0, 0)
	return &sampleScratch{pcg: pcg, rng: rand.New(pcg)}
}}

// maskPairs encodes a mask as the [row, col] pairs of the trace schema.
func maskPairs(m Mask) [][2]int {
	out := make([][2]int, len(m.Cells))
	for i, c := range m.Cells {
		out[i] = [2]int{c.Row, c.Col}
	}
	return out
}

// runMeta carries the per-sample facts the trace and metrics layers need
// beyond the classified effect: which golden checkpoint the run restored
// (and how much replay it saved), how many mask bits were live after
// protection filtering, how the run ended, the resolved fault lifecycle
// when forensics is on, and the target's occupancy state sampled at
// injection time.
type runMeta struct {
	checkpoint    int // restored checkpoint index; -1 when checkpointing is off
	cyclesSkipped uint64
	maskBits      int

	exit          string // a telemetry.Exit* value
	auditMismatch bool   // audited sample whose simulation was not masked

	mask      Mask // the applied mask; only retained when hasReport
	report    forensics.Report
	hasReport bool

	occ, dirty       float64 // valid / dirty fraction at inject time
	hasOcc, hasDirty bool
}

// sampleState records the target's occupancy state at injection time.
func (m *runMeta) sampleState(target Target) {
	st := liveness.StructState(target)
	m.occ, m.hasOcc = st.Occ, st.HasOcc
	m.dirty, m.hasDirty = st.Dirty, st.HasDirty
}

// auditStride sets the share of resolved samples the runtime audit
// re-simulates: those whose mask seed, salted with the cell's identity,
// is a multiple of it — a fixed function of the spec and the sample
// index. Keying on the seed rather than the index audits one sample in
// auditStride however small the cells are; the salt keeps grid cells that
// share a seed (and so their mask seeds) from auditing the same indices,
// or none. A read path the bit semantics miss then shows as a nonzero
// gefin_shortcut_audit_mismatches_total in any large enough grid.
const auditStride = 64

// cellRun holds what every sample of one campaign cell shares: the
// workload and its golden run, the spec, the cycle limit, the target's
// geometry, the golden checkpoint cycles and, when the cell's samples may
// be resolved at injection time, the target's golden liveness index.
type cellRun struct {
	w          *workloads.Workload
	golden     *workloads.Golden
	spec       Spec
	limit      uint64
	rows, cols int
	ckpts      []uint64            // nil under NoCheckpoints
	live       *liveness.Structure // nil: every sample is simulated
	auditSalt  uint64
}

// newCellRun derives a validated spec's shared state: the golden run, the
// target geometry (checked on a probe machine), and — before any worker
// starts, so no worker pays the one-time cost under its first sample —
// the checkpoint set and, for resolvable cells, the liveness index.
func newCellRun(spec Spec) (*cellRun, error) {
	w, err := workloads.ByName(spec.Workload)
	if err != nil {
		return nil, err
	}
	golden, err := w.Reference()
	if err != nil {
		return nil, err
	}
	probe, err := w.NewMachine()
	if err != nil {
		return nil, err
	}
	target, err := TargetFor(probe, spec.Component)
	if err != nil {
		return nil, err
	}
	c := &cellRun{w: w, golden: golden, spec: spec,
		limit: uint64(spec.TimeoutFactor * float64(golden.Cycles)),
		rows:  target.Rows(), cols: target.Cols()}
	if !spec.NoCheckpoints {
		if c.ckpts, err = w.CheckpointCycles(); err != nil {
			return nil, err
		}
	}
	// The shortcut only replaces the convergence path, and only where its
	// verdict is the whole story: forensics observes the tail it would
	// skip, and a wall-clock watchdog may classify a sample Timeout.
	if !spec.NoCheckpoints && spec.Forensics == forensics.ModeOff && spec.WallTimeout == 0 {
		idx, err := w.LiveIndex()
		if err != nil {
			return nil, err
		}
		c.live = idx.Structure(spec.Component)
		h := fnv.New64a()
		fmt.Fprintf(h, "%s/%s/%d", spec.Workload, spec.Component, spec.Faults)
		c.auditSalt = h.Sum64()
	}
	return c, nil
}

// covering returns the golden checkpoint a restore for injectAt would use:
// its index and cycle, or -1 when checkpointing is off.
func (c *cellRun) covering(injectAt uint64) (int, uint64) {
	if c.ckpts == nil {
		return -1, 0
	}
	i := sort.Search(len(c.ckpts), func(i int) bool { return c.ckpts[i] > injectAt }) - 1
	return i, c.ckpts[i]
}

// machineAt returns a machine ready to run up to injectAt: a fresh one
// replaying from cycle 0 under NoCheckpoints, else one fast-forwarded to
// the covering checkpoint, rewound by the worker's Restorer when it has
// one.
func (c *cellRun) machineAt(injectAt uint64, rst *workloads.Restorer) (*sim.Machine, workloads.Checkpoint, error) {
	switch {
	case c.spec.NoCheckpoints:
		m, err := c.w.NewMachine()
		return m, workloads.Checkpoint{Index: -1}, err
	case rst != nil:
		return rst.MachineAt(injectAt)
	default:
		return c.w.MachineAt(injectAt)
	}
}

// dead reports whether no bit of the mask, flipped at injectAt, is ever
// read by the golden run before being redefined.
func (c *cellRun) dead(mask Mask, injectAt uint64) bool {
	for _, cell := range mask.Cells {
		if c.live.Live(cell.Row, cell.Col, injectAt) {
			return false
		}
	}
	return true
}

// testSampleHook, when non-nil, runs at the top of every sample inside the
// recovery guard. It exists only for tests, which use it to inject panics
// and wall-clock stalls into the sample path.
var testSampleHook func(spec Spec, sample int)

// runOneRecovered is runOne behind a panic guard: a panicking sample (a
// simulator bug, a pathological machine state) becomes that cell's error —
// counted under gefin_worker_panics_total and surfaced once through the
// Run/RunGrid error path — instead of aborting the whole process. With
// cells dispatched across machines, a process abort would kill every cell
// the process holds; a clean per-cell error lets the campaign retry or
// fail just the one cell.
func (c *cellRun) runOneRecovered(injectAt, maskSeed uint64, sample int, obsOcc bool, tel *telemetry.Campaign, rst, shadowRst *workloads.Restorer) (effect Effect, meta runMeta, err error) {
	defer func() {
		if r := recover(); r != nil {
			tel.RecordWorkerPanic()
			err = fmt.Errorf("core: %s/%s/%d-bit sample %d panicked: %v\n%s",
				c.spec.Component, c.spec.Workload, c.spec.Faults, sample, r, debug.Stack())
		}
	}()
	if testSampleHook != nil {
		testSampleHook(c.spec, sample)
	}
	return c.runOne(injectAt, maskSeed, obsOcc, rst, shadowRst)
}

// runOne performs a single fault-injection sample. The mask is drawn
// first, from the target's geometry alone. A sample the golden liveness
// index resolves — no flipped bit is read before being redefined — is
// the golden run by determinism and returns EffectMasked without a
// machine; every other sample is simulated. Unless the spec forbids it,
// the machine is fast-forwarded from the workload's nearest golden
// checkpoint at or before the injection cycle instead of replaying the
// whole golden prefix from cycle 0, and comes from the worker's Restorer
// (rst), which rewinds one long-lived machine by delta restore instead of
// building a fresh one per sample. All the paths are bit-identical because
// checkpoints capture the complete machine state and execution is
// deterministic.
func (c *cellRun) runOne(injectAt, maskSeed uint64, obsOcc bool, rst, shadowRst *workloads.Restorer) (Effect, runMeta, error) {
	spec := c.spec
	meta := runMeta{checkpoint: -1, exit: telemetry.ExitRan}
	sc := scratchPool.Get().(*sampleScratch)
	defer scratchPool.Put(sc)
	sc.pcg.Seed(maskSeed, 0xDEADBEEFCAFEF00D)
	rng := sc.rng
	// Forensics retains the mask beyond the sample (trace records), so it
	// must own its cells; the hot path borrows the scratch buffer instead.
	msc := sc
	if spec.Forensics != forensics.ModeOff {
		msc = nil
	}
	mask := generateMask(rng, c.rows, c.cols, spec.Faults, spec.Cluster, msc)
	if spec.ForceSpanning {
		for tries := 0; !mask.Spanning(spec.Cluster) && tries < maxSpanningTries; tries++ {
			mask = generateMask(rng, c.rows, c.cols, spec.Faults, spec.Cluster, msc)
		}
		if !mask.Spanning(spec.Cluster) {
			// Silently running a non-spanning mask would violate the
			// ablation's contract; fail loudly instead (e.g. a single-bit
			// fault can never span a multi-row, multi-column cluster).
			return 0, meta, fmt.Errorf("core: no spanning %d-bit mask in a %dx%d cluster after %d draws",
				spec.Faults, spec.Cluster.Rows, spec.Cluster.Cols, maxSpanningTries)
		}
	}
	if spec.Protect.Kind != ProtectNone {
		fr := spec.Protect.Filter(mask)
		meta.maskBits = len(fr.Surviving.Cells)
		switch {
		case fr.Detected:
			// Uncorrectable error signalled: machine-check abort
			// (pessimistic: modeled at injection time, see protect.go).
			// Forensically, the abort fires before any corrupted bit can
			// reach the datapath.
			meta.checkpoint, meta.cyclesSkipped = c.covering(injectAt)
			meta.exit = telemetry.ExitResolved
			if spec.Forensics != forensics.ModeOff {
				meta.mask = mask
				meta.report = forensics.Report{Fate: forensics.FateNeverTouched, FirstTouchLat: -1}
				meta.hasReport = true
			}
			return EffectCrash, meta, nil
		case len(fr.Surviving.Cells) == 0:
			// Everything corrected: by construction the run is the golden
			// run; skip the simulation. The scrub overwrote every flip.
			meta.checkpoint, meta.cyclesSkipped = c.covering(injectAt)
			meta.exit = telemetry.ExitResolved
			if spec.Forensics != forensics.ModeOff {
				meta.mask = mask
				meta.report = forensics.Report{Fate: forensics.FateOverwritten, FirstTouchLat: 0}
				meta.hasReport = true
			}
			return EffectMasked, meta, nil
		}
		mask = fr.Surviving
	}
	meta.maskBits = len(mask.Cells)

	// Dead at injection: every flipped cell's next golden event redefines
	// it or never comes, so the faulty run is the golden run. A sample
	// selected by the audit is simulated anyway and keeps the simulated
	// outcome.
	if c.live != nil && c.dead(mask, injectAt) {
		if (maskSeed^c.auditSalt)%auditStride == 0 {
			meta.exit = telemetry.ExitAudited
		} else {
			meta.exit = telemetry.ExitResolved
			if !obsOcc {
				meta.checkpoint, meta.cyclesSkipped = c.covering(injectAt)
				return EffectMasked, meta, nil
			}
			// Telemetry averages the target's state at injection time:
			// replay the golden prefix to sample it, and skip only the
			// tail.
			m, ck, err := c.machineAt(injectAt, rst)
			if err != nil {
				return 0, meta, err
			}
			meta.checkpoint, meta.cyclesSkipped = ck.Index, ck.Cycle
			if m.Core.Cycles() < injectAt {
				m.Run(injectAt, 0, nil)
			}
			target, err := TargetFor(m, spec.Component)
			if err != nil {
				return 0, meta, err
			}
			meta.sampleState(target)
			return EffectMasked, meta, nil
		}
	}

	m, ck, err := c.machineAt(injectAt, rst)
	if err != nil {
		return 0, meta, err
	}
	meta.checkpoint, meta.cyclesSkipped = ck.Index, ck.Cycle
	target, err := TargetFor(m, spec.Component)
	if err != nil {
		return 0, meta, err
	}

	// A full-forensics run replays a second, fault-free machine from the
	// same checkpoint in lockstep with the faulty one and records the first
	// cycle their architectural digests differ. A timing-only divergence
	// (same eventual output, different stall pattern) counts: the digest
	// compares per-cycle progress, so the recorded cycle is a conservative
	// earliest bound on architectural visibility.
	var shadow *sim.Machine
	if spec.Forensics == forensics.ModeFull {
		if shadow, _, err = c.machineAt(injectAt, shadowRst); err != nil {
			return 0, meta, err
		}
	}

	var (
		tr        *forensics.Tracker
		attachErr error
	)
	inject := func(*sim.Machine) {
		if obsOcc {
			meta.sampleState(target)
		}
		mask.Apply(target)
		if spec.Forensics != forensics.ModeOff {
			t := forensics.NewTracker(m.Core.Cycles)
			cells := make([]forensics.BitCell, len(mask.Cells))
			for i, mc := range mask.Cells {
				cells[i] = forensics.BitCell{Row: mc.Row, Col: mc.Col}
			}
			if attachErr = t.Attach(target, cells); attachErr == nil {
				tr = t
			}
		}
	}
	var onCycle func(*sim.Machine)
	if shadow != nil {
		onCycle = func(mm *sim.Machine) {
			shadow.Core.Cycle()
			if tr != nil && !tr.Diverged() && mm.ArchDigest() != shadow.ArchDigest() {
				tr.MarkDiverged()
			}
		}
	}
	// The wall-clock watchdog bounds the simulation loop itself; machine
	// construction and checkpoint restore are excluded (they are bounded by
	// the workload, not by the injected fault).
	var deadline time.Time
	if spec.WallTimeout > 0 {
		deadline = time.Now().Add(spec.WallTimeout)
	}
	// Convergence exit: once every trace of the injected fault has been
	// scrubbed from the machine — overwritten cells, evicted lines, no
	// timing perturbation left — the rest of the run is, by determinism,
	// bit-identical to the golden run, so simulating it only re-derives the
	// golden outcome. Forensics modes run to completion regardless: they
	// observe the fault's lifecycle, which the exit would truncate.
	var out sim.Outcome
	if !spec.NoCheckpoints && spec.Forensics == forensics.ModeOff {
		var converged bool
		out, converged = runToConvergence(c.w, m, c.golden, c.limit, injectAt, inject, deadline)
		if converged && meta.exit == telemetry.ExitRan {
			meta.exit = telemetry.ExitConverged
		}
	} else {
		out = m.RunWatched(c.limit, injectAt, inject, onCycle, deadline)
	}
	// Probes are wiring, not snapshot state: detach this sample's tracker
	// so the worker's reused machine runs the next sample unprobed.
	if tr != nil {
		tr.Detach()
	}
	if attachErr != nil {
		return 0, meta, attachErr
	}
	eff := Classify(out, c.golden)
	meta.auditMismatch = meta.exit == telemetry.ExitAudited && eff != EffectMasked
	if tr != nil {
		meta.mask = mask
		meta.report = tr.Resolve(eff == EffectMasked)
		meta.hasReport = true
	}
	return eff, meta, nil
}

// runToConvergence runs the faulty machine like RunWatched, but pauses at
// every golden checkpoint cycle the run crosses and compares the machine's
// complete state against that checkpoint's snapshot. On bit-equality the
// remainder of the run is deterministically the golden run, so the golden
// outcome is returned without simulating it (Classify maps it to
// EffectMasked, exactly as the full run would) and converged is true. The
// compare is exact — every counter and replacement stamp must match — so a
// fault that leaves any trace, architectural or timing, runs to completion
// as before, and the returned outcome is bit-identical to RunWatched's in
// every case.
func runToConvergence(w *workloads.Workload, m *sim.Machine, golden *workloads.Golden, limit, injectAt uint64, inject func(*sim.Machine), deadline time.Time) (out sim.Outcome, converged bool) {
	cycles, snaps, err := w.GoldenCheckpoints()
	if err != nil {
		return m.RunWatched(limit, injectAt, inject, nil, deadline), false
	}
	// First checkpoint strictly after the injection cycle: earlier ones
	// cannot witness the fault, later ones are visited in order below.
	for idx := sort.Search(len(cycles), func(i int) bool { return cycles[i] > injectAt }); idx < len(cycles); idx++ {
		seg := cycles[idx]
		if limit > 0 && seg >= limit {
			break
		}
		out := m.RunWatched(seg, injectAt, inject, nil, deadline)
		inject = nil
		if !out.TimedOut || out.WallTimedOut {
			return out, false // stopped (or was wall-killed) before the crossing
		}
		if m.EqualsSnapshot(snaps[idx]) {
			return sim.Outcome{
				Stop:      cpu.StopExit,
				ExitCode:  golden.ExitCode,
				Stdout:    golden.Stdout,
				Cycles:    golden.Cycles,
				Committed: golden.Committed,
			}, true
		}
	}
	return m.RunWatched(limit, injectAt, inject, nil, deadline), false
}

// CellKey identifies one campaign cell inside a ResultSet.
type CellKey struct {
	Component string
	Workload  string
	Faults    int
}

// Key returns the spec's cell identity — the coordinate the ResultSet,
// resume logic and campaign service all address cells by. Two specs with
// the same Key may still not be Equivalent (different seed, samples,
// protection, ...): Key locates a cell, Equivalent decides whether a
// stored result answers it.
func (s Spec) Key() CellKey {
	return CellKey{Component: s.Component, Workload: s.Workload, Faults: s.Faults}
}

// ResultSet collects the full campaign grid (components x workloads x
// cardinalities) for the analysis and reporting layers.
type ResultSet struct {
	Cells map[CellKey]*Result
}

// NewResultSet returns an empty result set.
func NewResultSet() *ResultSet {
	return &ResultSet{Cells: make(map[CellKey]*Result)}
}

// Add stores a result under its cell key.
func (rs *ResultSet) Add(r *Result) {
	rs.Cells[r.Spec.Key()] = r
}

// Get returns the result for a cell, or an error naming the missing cell.
func (rs *ResultSet) Get(component, workload string, faults int) (*Result, error) {
	r, ok := rs.Cells[CellKey{component, workload, faults}]
	if !ok {
		return nil, fmt.Errorf("core: no result for %s/%s/%d-bit", component, workload, faults)
	}
	return r, nil
}
