package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mbusim/internal/core"
	"mbusim/internal/forensics"
	"mbusim/internal/liveness"
	"mbusim/internal/telemetry"
	"mbusim/internal/workloads"
)

// nproc bounds every pool the benchmark starts: sample workers, dispatch
// workers, clients and connections.
var nproc = runtime.NumCPU()

// workload is one benchmark traffic mix.
type workload struct {
	name     string
	programs []string // MiBench analogs whose golden state setup builds
	// groups lists the cells of the grid by (program, structure); every
	// campaign takes one cell of each group, rotating through the group's
	// cardinalities, so all campaigns have the same cost mix and their
	// latency is one mode, not a median falling between modes.
	groups  [][]core.Spec
	samples int  // samples per cell
	fleet   bool // campaigns go through an in-process dispatch.Service
	observe bool // forensics cells + trace/event log + liveness profiles
}

func cellGroups(programs, comps []string, ks []int, mode forensics.Mode) [][]core.Spec {
	var groups [][]core.Spec
	for _, p := range programs {
		for _, c := range comps {
			var g []core.Spec
			for _, k := range ks {
				g = append(g, core.Spec{Workload: p, Component: c, Faults: k, Forensics: mode})
			}
			groups = append(groups, g)
		}
	}
	return groups
}

// ITLB is left out everywhere: its rare 4x-golden timeouts on qsort are
// outliers that would swamp a tenth-wide bound.
var allWorkloads = []*workload{
	{
		// Cache faults stay resident, so every sample pays the whole
		// post-inject tail and the convergence compare never fires: the
		// cycle loop does almost all the work.
		name: "tail", programs: []string{"sha", "qsort"},
		groups:  cellGroups([]string{"sha", "qsort"}, []string{core.CompL1D, core.CompL2}, []int{1, 2, 3}, forensics.ModeOff),
		samples: 2,
	},
	{
		// Register and instruction-cache faults are overwritten, refetched
		// or crash early, so the convergence exit fires: restore,
		// EqualsSnapshot and replay take a much larger share.
		name: "converge", programs: []string{"sha", "qsort"},
		groups:  cellGroups([]string{"sha", "qsort"}, []string{core.CompRF, core.CompL1I}, []int{1, 2, 3}, forensics.ModeOff),
		samples: 2,
	},
	{
		// The only workload where forensics, liveness and the trace writer
		// do real work: per-bit fate and whole-array liveness through the
		// same probe hooks.
		name: "observe", programs: []string{"sha", "qsort"},
		groups:  cellGroups([]string{"sha"}, []string{core.CompL1D, core.CompDTLB, core.CompRF}, []int{2}, forensics.ModeFast),
		samples: 2, observe: true,
	},
	{
		// Tiny campaigns through the campaign service: lease/submit round
		// trips, the fsync'd journal, per-cell result saves and idle
		// polling dominate; simulation is a small share.
		name: "fleet", programs: []string{"stringSearch"},
		groups:  cellGroups([]string{"stringSearch"}, []string{core.CompL1D, core.CompL2, core.CompRF, core.CompDTLB}, []int{1, 2, 3}, forensics.ModeOff),
		samples: 3, fleet: true,
	},
}

func workloadByName(name string) *workload {
	for _, w := range allWorkloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// mix derives the seed of one campaign from the run seed, so the same
// --seed always generates the same specs.
func mix(seed uint64, parts ...uint64) uint64 {
	x := seed ^ 0x9E3779B97F4A7C15
	for _, p := range parts {
		x ^= p + 0x9E3779B97F4A7C15 + x<<6 + x>>2
		x ^= x >> 30
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 27
		x *= 0x94D049BB133111EB
		x ^= x >> 31
	}
	return x
}

// campaignSpecs returns the specs of campaign i of client c: one cell of
// each group.
func (w *workload) campaignSpecs(seed uint64, client, i int, samples int) []core.Spec {
	specs := make([]core.Spec, len(w.groups))
	for g, group := range w.groups {
		s := group[(i+g)%len(group)]
		s.Samples = samples
		s.Seed = mix(seed, uint64(client), uint64(i), uint64(g))
		specs[g] = s
	}
	return specs
}

// clients is the number of closed-loop clients: nproc against the fleet's
// service, one for the local workloads, whose single client already keeps
// nproc sample workers busy through RunGrid.
func (w *workload) clients() int {
	if w.fleet {
		return nproc
	}
	return 1
}

// firstCycle is how many campaigns per client the correctness gate
// checks: enough for every cell of the grid to run at least once.
func (w *workload) firstCycle() int {
	n := 2
	for _, g := range w.groups {
		n = max(n, len(g))
	}
	return n
}

// setup derives everything a campaign needs before its first sample:
// compile, golden run and checkpoint set of each program. It is what
// setup_s times (plus service open and worker join on fleet).
func setup(w *workload, rec *recorder) (golden, ckpt time.Duration, err error) {
	for _, p := range w.programs {
		wl, err := workloads.ByName(p)
		if err != nil {
			return 0, 0, err
		}
		golden += rec.do("workloads", 0, func() { _, err = wl.Reference() })
		if err != nil {
			return 0, 0, err
		}
		ckpt += rec.do("workloads", 0, func() { _, err = wl.CheckpointCycles() })
		if err != nil {
			return 0, 0, err
		}
	}
	return golden, ckpt, nil
}

// loopResult is what one measured loop produced. attempted counts
// campaigns, plus HTTP calls on fleet; failed counts failed campaigns, plus
// failed HTTP calls, worker exits and worker panics on fleet.
type loopResult struct {
	elapsed   time.Duration
	samples   int
	campaigns int
	attempted int
	failed    int
	stats     *httpStats // fleet only
	latMS     []float64
	first     [][]byte          // Encode of each gated campaign, in (client, index) order
	profiles  map[string]string // program -> liveness profile digest (observe)
}

// digest hashes the gated campaigns' canonical result bytes.
func digest(encs [][]byte) string {
	h := sha256.New()
	for _, e := range encs {
		h.Write(e)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runLocal is the closed loop of the local workloads: one client runs one
// campaign at a time through core.RunGrid with parallel = nproc and
// encodes its results, until the deadline has passed and at least the
// gated first cycle is done.
func runLocal(ctx context.Context, w *workload, seed uint64, samples int, dur time.Duration, rec *recorder, sink *traceSink, tmp string) (*loopResult, error) {
	var tel *telemetry.Campaign
	var closeAll func() error
	switch {
	case w.observe:
		// The sample trace and the event log go to files, as
		// gefin -trace -events writes them.
		tf, err := os.Create(filepath.Join(tmp, "trace.jsonl"))
		if err != nil {
			return nil, err
		}
		defer tf.Close() // error paths; closeAll checks Close on success
		var tw io.Writer = tf
		if sink != nil {
			sink.w = tf
			tw = sink
		}
		tel = telemetry.NewCampaign(telemetry.NewTracer(tw))
		ev, err := telemetry.OpenEventLog(filepath.Join(tmp, "events.jsonl"))
		if err != nil {
			return nil, err
		}
		defer ev.Close()
		tel.Events = ev
		closeAll = func() error {
			if err := tel.Tracer.Err(); err != nil {
				return err
			}
			if err := ev.Close(); err != nil {
				return err
			}
			return tf.Close()
		}
	case sink != nil:
		tel = telemetry.NewCampaign(telemetry.NewTracer(sink))
	}
	res := &loopResult{profiles: make(map[string]string)}
	start := time.Now()
	if w.observe {
		// Each observe run also builds the liveness profile of every
		// program: whole-array liveness through the same probe hooks the
		// forensics cells use per bit.
		for _, p := range w.programs {
			wl, err := workloads.ByName(p)
			if err != nil {
				return nil, err
			}
			var prof *liveness.Profile
			rec.do("workloads", 0, func() { prof, err = wl.Profile(profileWindows) })
			if err != nil {
				return nil, err
			}
			sum := sha256.Sum256(prof.Encode())
			res.profiles[p] = hex.EncodeToString(sum[:])
		}
	}
	for i := 0; time.Since(start) < dur || i < w.firstCycle(); i++ {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		specs := w.campaignSpecs(seed, 0, i, samples)
		t := time.Now()
		rs := core.NewResultSet()
		id := rec.begin("core", 0)
		if sink != nil {
			sink.parent.Store(int64(id))
		}
		err := core.RunGridWithTelemetry(ctx, specs, nproc, func(_ int, r *core.Result) { rs.Add(r) }, tel)
		var enc []byte
		if err == nil {
			enc, err = rs.Encode()
		}
		rec.finish(id)
		lat := float64(time.Since(t).Nanoseconds()) / 1e6
		res.campaigns++
		if err == nil {
			err = checkResults(enc, specs)
		}
		if err != nil {
			res.failed++
			fmt.Fprintf(os.Stderr, "perfbench: campaign %d failed: %v\n", i, err)
			continue
		}
		res.latMS = append(res.latMS, lat)
		res.samples += len(specs) * samples
		if i < w.firstCycle() {
			res.first = append(res.first, enc)
		}
	}
	res.elapsed = time.Since(start)
	res.attempted = res.campaigns
	if closeAll != nil {
		if err := closeAll(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// profileWindows is the liveness profile's time resolution, gefin's default.
const profileWindows = 32

// gatedCampaigns runs the gated campaigns locally through core.RunGrid
// and returns their canonical result bytes; the service path must
// reproduce them byte for byte. With slow set every cell takes the
// from-scratch path (NoCheckpoints: fresh machines replayed from cycle 0,
// no delta restore, no convergence exit) and is recorded under the same
// spec, so its bytes must equal the fast path's.
func gatedCampaigns(ctx context.Context, w *workload, seed uint64, samples int, slow bool) ([][]byte, error) {
	var out [][]byte
	for c := 0; c < w.clients(); c++ {
		for i := 0; i < w.firstCycle(); i++ {
			specs := w.campaignSpecs(seed, c, i, samples)
			for j := range specs {
				specs[j].NoCheckpoints = slow
			}
			rs := core.NewResultSet()
			err := core.RunGrid(ctx, specs, nproc, func(_ int, r *core.Result) {
				r.Spec.NoCheckpoints = false // same cell; only the path differed
				rs.Add(r)
			})
			if err != nil {
				return nil, err
			}
			enc, err := rs.Encode()
			if err != nil {
				return nil, err
			}
			out = append(out, enc)
		}
	}
	return out, nil
}

// referenceOutcomes checks the gated campaigns against the slow path.
func referenceOutcomes(ctx context.Context, w *workload, seed uint64, samples int, first [][]byte) error {
	ref, err := gatedCampaigns(ctx, w, seed, samples, true)
	if err != nil {
		return err
	}
	if len(ref) != len(first) {
		return fmt.Errorf("%d gated campaigns, reference has %d", len(first), len(ref))
	}
	for i := range ref {
		if string(ref[i]) != string(first[i]) {
			return fmt.Errorf("gated campaign %d: results differ from the from-scratch reference", i)
		}
	}
	return nil
}
