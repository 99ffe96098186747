// Command perfbench is mbusim's benchmark. Each invocation runs one
// workload and prints, as the last line of standard output, one JSON
// object with the keys correct, attempted, failed and metrics:
//
//	perfbench --workload tail --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones: the workload runs in
// a fresh child process untraced, and set-up is timed in further fresh
// processes because the workloads package caches compile, golden run and
// checkpoints per process. With --trace 1 the child runs the loop
// untraced for half the time and then traced, records spans around every
// call into an mbusim layer, runs the layer probes, and prints the
// per-layer metrics, each layer's self time and the tracing overhead.
//
// Every run enforces the correctness gate (gate.go) and exits non-zero
// without a result when the program cannot be built or run. See
// METRICS.md for the workloads, metrics and pinned values.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mbusim/internal/telemetry"
	"mbusim/internal/workloads"
)

type metricDef struct{ name, unit string }

// endToEnd and perLayer mirror BENCHMARK.json; the smoke test checks that
// every metric named there is printed with the unit given there.
var endToEnd = []metricDef{
	{"samples_per_s", "1/s"}, {"setup_s", "s"}, {"peak_rss_mb", "MB"}, {"ok_frac", "frac"},
	{"campaign_p50_ms", "ms"}, {"campaign_p90_ms", "ms"},
}

var perLayer = []metricDef{
	{"sim.mcycles_per_s", "Mcycles/s"}, {"sim.mips", "MIPS"}, {"sim.equals_snapshot_us", "us"}, {"sim.snapshot_ms", "ms"},
	{"workloads.golden_s", "s"}, {"workloads.checkpoints_s", "s"}, {"workloads.restore_us", "us"}, {"workloads.profile_s", "s"},
	{"liveness.profile_mips", "MIPS"},
	{"core.sample_p50_ms", "ms"}, {"core.sample_p99_ms", "ms"}, {"core.checkpoint_hit_frac", "frac"},
	{"core.replay_kcycles_per_sample", "kcycles"}, {"core.alloc_kb_per_sample", "KB"}, {"core.allocs_per_sample", "count"},
	{"core.mask_ns", "ns"}, {"core.result_save_ms", "ms"},
	{"cache.read_ns", "ns"}, {"cache.read_spill_ns", "ns"}, {"cache.write_ns", "ns"}, {"cache.write_spill_ns", "ns"},
	{"tlb.lookup_ns", "ns"}, {"tlb.lookup_spill_ns", "ns"},
	{"forensics.overhead_x", "x"},
	{"telemetry.trace_write_us", "us"}, {"telemetry.trace_bytes_per_sample", "B"},
	{"dispatch.admit_ms_p50", "ms"}, {"dispatch.admit_ms_p90", "ms"}, {"dispatch.lease_ms_p50", "ms"},
	{"dispatch.submit_ms_p50", "ms"}, {"dispatch.submit_ms_p90", "ms"}, {"dispatch.status_ms_p50", "ms"},
	{"dispatch.journal_append_ms", "ms"}, {"dispatch.lease_wait_frac", "frac"}, {"dispatch.worker_busy_frac", "frac"},
	{"core.self_s", "s"}, {"workloads.self_s", "s"}, {"sim.self_s", "s"}, {"cache.self_s", "s"}, {"tlb.self_s", "s"},
	{"forensics.self_s", "s"}, {"liveness.self_s", "s"}, {"telemetry.self_s", "s"}, {"dispatch.self_s", "s"},
	{"trace.samples_per_s", "1/s"}, {"trace.overhead_frac", "frac"}, {"trace.spans", "count"},
}

// setupRuns is how many fresh processes set up per run; setup_s is their
// median.
const setupRuns = 9

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	child    string
	tiny     bool
}

// samples is the per-cell sample count a run uses for w.
func (o options) samples(w *workload) int {
	if o.tiny {
		return 1
	}
	return w.samples
}

type childResult struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	SetupS    float64            `json:"setup_s"`
	Metrics   map[string]float64 `json:"metrics"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var traceN int
	var pinSeeds string
	fs.StringVar(&o.workload, "workload", "", "workload: tail, converge, observe or fleet")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed generates the same specs")
	fs.Float64Var(&o.seconds, "seconds", 25, "measured seconds per run")
	fs.IntVar(&traceN, "trace", 0, "1 = traced run printing the per-layer metrics")
	fs.StringVar(&o.child, "child", "", "internal: setup or run, in a fresh process")
	fs.BoolVar(&o.tiny, "tiny", false, "one sample per cell and few set-ups (smoke test)")
	fs.StringVar(&pinSeeds, "pin", "", "print pinned.json for these comma-separated seeds and exit")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	o.trace = traceN == 1
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if pinSeeds != "" {
		if err := pin(ctx, pinSeeds); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if workloadByName(o.workload) == nil || (traceN != 0 && traceN != 1) || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload tail|converge|observe|fleet, --trace 0|1 and --seconds > 0")
		os.Exit(2)
	}
	var out any
	var err error
	switch o.child {
	case "":
		out, err = parent(ctx, o)
	case "setup":
		out, err = setupChild(ctx, o)
	case "run":
		out, err = runChild(ctx, o)
	default:
		err = fmt.Errorf("unknown -child %q", o.child)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// spawn runs this binary again as a child and decodes the JSON object on
// the last line of its standard output.
func spawn(ctx context.Context, o options, mode string, into any) (*syscall.Rusage, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	args := []string{"-child", mode, "-workload", o.workload, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'f', -1, 64), "-trace", trace}
	if o.tiny {
		args = append(args, "-tiny")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 5 * time.Second
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child: %w", mode, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), into); err != nil {
		return nil, fmt.Errorf("%s child output: %w", mode, err)
	}
	ru, _ := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return ru, nil
}

// parent times set-up in fresh processes, runs the workload in one more,
// and assembles the result line.
func parent(ctx context.Context, o options) (*result, error) {
	ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
	defer cancel()
	var setups []float64
	n := setupRuns
	if o.tiny {
		n = 2
	}
	for i := 1; i < n && !o.trace; i++ {
		var c childResult
		if _, err := spawn(ctx, o, "setup", &c); err != nil {
			return nil, err
		}
		setups = append(setups, c.SetupS)
	}
	var c childResult
	ru, err := spawn(ctx, o, "run", &c)
	if err != nil {
		return nil, err
	}
	defs := perLayer
	if !o.trace {
		defs = endToEnd
		c.Metrics["setup_s"] = median(append(setups, c.SetupS))
		if ru == nil {
			return nil, fmt.Errorf("no resource usage for the run child")
		}
		c.Metrics["peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
		c.Metrics["ok_frac"] = 1 - float64(c.Failed)/float64(c.Attempted)
	}
	res := &result{Correct: c.Correct, Attempted: c.Attempted, Failed: c.Failed, Metrics: make(map[string]metricOut)}
	for _, d := range defs {
		v, ok := c.Metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s missing or not finite (%v)", d.name, v)
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	return res, nil
}

// setupAll is the set-up setup_s times: the workload's programs, plus on
// fleet the service open and worker join.
func setupAll(ctx context.Context, w *workload, rec *recorder, tmp string) (golden, ckpt time.Duration, f *fleet, err error) {
	if golden, ckpt, err = setup(w, rec); err != nil || !w.fleet {
		return golden, ckpt, nil, err
	}
	f, err = startFleet(ctx, filepath.Join(tmp, "svc"), nil, nil)
	return golden, ckpt, f, err
}

// setupChild times one fresh process's set-up.
func setupChild(ctx context.Context, o options) (*childResult, error) {
	tmp, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	t0 := time.Now()
	_, _, f, err := setupAll(ctx, workloadByName(o.workload), nil, tmp)
	if err != nil {
		return nil, err
	}
	out := &childResult{SetupS: time.Since(t0).Seconds()}
	if f != nil {
		return out, f.stop()
	}
	return out, nil
}

// loop runs the workload's measured loop once. On fleet it drives f, or a
// fleet of its own started with the given sinks, and stops it afterwards.
func loop(ctx context.Context, w *workload, f *fleet, o options, samples int, dur time.Duration, rec *recorder, sinks []*traceSink, tmp string) (*loopResult, error) {
	if !w.fleet {
		var sink *traceSink
		if sinks != nil {
			sink = sinks[0]
		}
		return runLocal(ctx, w, o.seed, samples, dur, rec, sink, tmp)
	}
	if f == nil {
		var err error
		if f, err = startFleet(ctx, tmp, rec, sinks); err != nil {
			return nil, err
		}
	}
	r, err := runFleet(ctx, f, w, o.seed, samples, dur)
	if serr := f.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	r.stats = f.stats
	r.attempted += f.stats.calls
	r.failed += f.stats.failed + f.failures()
	return r, nil
}

// runChild is the measured process.
func runChild(ctx context.Context, o options) (*childResult, error) {
	w := workloadByName(o.workload)
	samples := o.samples(w)
	p, err := loadPins()
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}

	t0 := time.Now()
	goldenD, ckptD, f, err := setupAll(ctx, w, rec, tmp)
	if err != nil {
		return nil, err
	}
	out := &childResult{Correct: true, SetupS: time.Since(t0).Seconds(), Metrics: make(map[string]float64)}

	dur := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		dur /= 2
	}
	r1, err := loop(ctx, w, f, o, samples, dur, nil, nil, tmp)
	if err != nil {
		return nil, err
	}
	out.Attempted, out.Failed = r1.attempted, r1.failed
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d campaigns (%d failed), %d samples in %.2fs\n",
		w.name, o.seed, r1.campaigns, r1.failed, r1.samples, r1.elapsed.Seconds())

	gate := func(what string, err error) {
		if err != nil {
			out.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: correctness gate (%s): %v\n", what, err)
		}
	}
	gate("programs", checkPrograms(p, w, r1.profiles))
	gate("campaigns", checkCampaigns(ctx, p, w, o.seed, samples, r1.first))
	if w.observe {
		gate("trace", checkTraceFile(filepath.Join(tmp, "trace.jsonl"), r1.samples))
	}
	rate1 := float64(r1.samples) / r1.elapsed.Seconds()
	if !o.trace {
		out.Metrics["samples_per_s"] = rate1
		out.Metrics["campaign_p50_ms"] = quantile(r1.latMS, 0.50)
		out.Metrics["campaign_p90_ms"] = quantile(r1.latMS, 0.90)
		return out, nil
	}

	// The traced half: the same loop with spans, a sample trace on every
	// workload, and runtime.MemStats deltas around it.
	tdir := filepath.Join(tmp, "traced")
	if err := os.Mkdir(tdir, 0o755); err != nil {
		return nil, err
	}
	sinks := make([]*traceSink, nproc)
	for i := range sinks {
		sinks[i] = newSink(rec)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r2, err := loop(ctx, w, nil, o, samples, dur, rec, sinks, tdir)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	out.Attempted += r2.attempted
	out.Failed += r2.failed
	m := out.Metrics
	rate2 := float64(r2.samples) / r2.elapsed.Seconds()
	m["trace.samples_per_s"] = rate2
	m["trace.overhead_frac"] = rate1/rate2 - 1
	m["workloads.golden_s"] = goldenD.Seconds()
	m["workloads.checkpoints_s"] = ckptD.Seconds()
	m["core.alloc_kb_per_sample"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(r2.samples)
	m["core.allocs_per_sample"] = float64(after.Mallocs-before.Mallocs) / float64(r2.samples)
	if err := sampleMetrics(sinks, r2.samples, m); err != nil {
		return nil, err
	}

	// Dispatch metrics come from the fleet loop itself, or on the local
	// workloads from a short fleet run of the fleet workload's campaigns.
	fleetLoop := r2
	if !w.fleet {
		fw := workloadByName("fleet")
		if _, _, err := setup(fw, rec); err != nil {
			return nil, err
		}
		fleetLoop, err = loop(ctx, fw, nil, o, o.samples(fw), min(dur, 2*time.Second), rec, nil, filepath.Join(tmp, "probe-fleet"))
		if err != nil {
			return nil, err
		}
		out.Attempted += fleetLoop.attempted
		out.Failed += fleetLoop.failed
	}
	dispatchMetrics(fleetLoop.stats, fleetLoop.elapsed, m)

	if err := probeSim(w, rec, m); err != nil {
		return nil, err
	}
	if err := probeRestore(w, rec, m); err != nil {
		return nil, err
	}
	if err := probeProfile(w, rec, m); err != nil {
		return nil, err
	}
	if err := probeMask(w, o.seed, rec, m); err != nil {
		return nil, err
	}
	if len(fleetLoop.first) == 0 {
		return nil, fmt.Errorf("no fleet campaign completed")
	}
	if err := probeSave(fleetLoop.first[0], tmp, rec, m); err != nil {
		return nil, err
	}
	if err := probeJournal(tmp, rec, m); err != nil {
		return nil, err
	}
	probeMemory(o.seed, rec, m)
	forensicsSamples := 4
	if o.tiny {
		forensicsSamples = 1
	}
	if err := probeForensics(ctx, o.seed, forensicsSamples, rec, m); err != nil {
		return nil, err
	}
	for layer, d := range rec.selfTimes() {
		m[layer+".self_s"] = d.Seconds()
	}
	m["trace.spans"] = float64(rec.count())
	return out, nil
}

// sampleMetrics reads the per-sample trace records the sinks kept.
func sampleMetrics(sinks []*traceSink, samples int, m map[string]float64) error {
	var durs []float64
	var hits, replay float64
	var writes int
	var busy time.Duration
	var bytes int64
	for _, s := range sinks {
		tr, err := telemetry.ReadTraceTyped(&s.kept)
		if err != nil {
			return err
		}
		for _, r := range tr.Samples {
			durs = append(durs, float64(r.DurationNS)/1e6)
			if r.CyclesSkipped > 0 {
				hits++
			}
			replay += float64(r.InjectCycle - r.CyclesSkipped)
		}
		writes += s.writes
		busy += s.busy
		bytes += s.bytes
	}
	if len(durs) == 0 || writes == 0 {
		return fmt.Errorf("traced loop wrote no sample records")
	}
	n := float64(len(durs))
	m["core.sample_p50_ms"] = quantile(durs, 0.50)
	m["core.sample_p99_ms"] = quantile(durs, 0.99)
	m["core.checkpoint_hit_frac"] = hits / n
	m["core.replay_kcycles_per_sample"] = replay / n / 1e3
	m["telemetry.trace_write_us"] = float64(busy.Nanoseconds()) / 1e3 / float64(writes)
	m["telemetry.trace_bytes_per_sample"] = float64(bytes) / float64(samples)
	return nil
}

func dispatchMetrics(s *httpStats, elapsed time.Duration, m map[string]float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m["dispatch.admit_ms_p50"] = quantile(s.lat["admit"], 0.50)
	m["dispatch.admit_ms_p90"] = quantile(s.lat["admit"], 0.90)
	m["dispatch.lease_ms_p50"] = quantile(s.lat["lease"], 0.50)
	m["dispatch.submit_ms_p50"] = quantile(s.lat["submit"], 0.50)
	m["dispatch.submit_ms_p90"] = quantile(s.lat["submit"], 0.90)
	m["dispatch.status_ms_p50"] = quantile(s.lat["status"], 0.50)
	m["dispatch.lease_wait_frac"] = float64(s.waits) / float64(s.leases)
	m["dispatch.worker_busy_frac"] = s.busy.Seconds() / (float64(nproc) * elapsed.Seconds())
}

// checkTraceFile checks observe's trace holds one sample record and one
// forensics record per classified sample.
func checkTraceFile(path string, samples int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := telemetry.ReadTraceTyped(f)
	if err != nil {
		return err
	}
	if len(tr.Samples) != samples || len(tr.Fates) != samples || tr.Truncated != 0 {
		return fmt.Errorf("trace holds %d samples and %d fates, want %d each", len(tr.Samples), len(tr.Fates), samples)
	}
	return nil
}

// pin prints pinned.json for the given seeds: program facts and, per
// workload and seed, the digest of the gated first cycle, each checked
// against the from-scratch reference path before it is recorded.
func pin(ctx context.Context, seedList string) error {
	out := pins{Programs: make(map[string]programPins), Campaigns: make(map[string]campaignPins)}
	for _, name := range []string{"sha", "qsort", "stringSearch"} {
		facts, err := programFacts(name)
		if err != nil {
			return err
		}
		wl, err := workloads.ByName(name)
		if err != nil {
			return err
		}
		prof, err := wl.Profile(profileWindows)
		if err != nil {
			return err
		}
		facts.Profile = digest([][]byte{prof.Encode()})
		out.Programs[name] = facts
	}
	for _, w := range allWorkloads {
		cp := campaignPins{Samples: w.samples, Seeds: make(map[string]string)}
		for _, s := range strings.Split(seedList, ",") {
			seed, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
			if err != nil {
				return err
			}
			first, err := gatedCampaigns(ctx, w, seed, w.samples, false)
			if err != nil {
				return err
			}
			if err := referenceOutcomes(ctx, w, seed, w.samples, first); err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			cp.Seeds[strconv.FormatUint(seed, 10)] = digest(first)
			fmt.Fprintf(os.Stderr, "pinned %s seed %d\n", w.name, seed)
		}
		out.Campaigns[w.name] = cp
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}
