// logparse reconstructs a gefin results JSON from a campaign log, allowing
// analysis of partially completed campaigns (each completed cell's class
// fractions and sample count are recoverable from its log line).
//
//	logparse -samples 120 < campaign.log > results.json
//
// With -trace it instead analyzes a gefin JSONL injection trace (written by
// gefin -trace): per-cell sample latency percentiles and checkpoint hit
// rates, plus a per-checkpoint-index restore profile across the campaign.
//
//	logparse -trace trace.jsonl
//
// With -events it analyzes a campaign event log (written by gefin -events):
// per-cell lifecycle timelines (lease through submit, including expiries and
// retries), per-worker utilization, the straggler cells, and — with -results
// pointing at the campaign's results file — a cross-check that the event log
// and the ResultSet tell the same story. Inconsistencies exit nonzero.
//
//	logparse -events events.jsonl -results results.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"time"

	"mbusim/internal/core"
	"mbusim/internal/report"
	"mbusim/internal/telemetry"
	"mbusim/internal/workloads"
)

var lineRE = regexp.MustCompile(
	`^\[\s*\d+/\s*\d+\] (\S+)\s+(\S+)\s+(\d)-bit: AVF=\s*[\d.]+% ` +
		`masked=\s*([\d.]+)% sdc=\s*([\d.]+)% crash=\s*([\d.]+)% ` +
		`timeout=\s*([\d.]+)% assert=\s*([\d.]+)%`)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("logparse", flag.ContinueOnError)
	fs.SetOutput(stderr)
	samples := fs.Int("samples", 120, "per-cell sample count used by the campaign")
	tracePath := fs.String("trace", "", "analyze a gefin JSONL injection trace instead of parsing a log (- reads stdin)")
	eventsPath := fs.String("events", "", "analyze a gefin campaign event log instead of parsing a log (- reads stdin)")
	resultsPath := fs.String("results", "", "with -events: cross-check the event log against this results JSON")
	campaignID := fs.String("campaign", "", "with -events: restrict analysis to one campaign's slice of a shared service log")
	profilePath := fs.String("profile", "", "render a liveness profile artifact (.mbup, from gefin -profile): time x row occupancy heatmaps and per-bit-class lifetime percentiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	modes := 0
	for _, m := range []string{*tracePath, *eventsPath, *profilePath} {
		if m != "" {
			modes++
		}
	}
	if modes > 1 {
		fmt.Fprintln(stderr, "-trace, -events and -profile are separate modes: pick one")
		return 2
	}
	if *profilePath != "" {
		return analyzeProfile(*profilePath, stdout, stderr)
	}
	if *campaignID != "" && *eventsPath == "" {
		fmt.Fprintln(stderr, "-campaign filters an event log: it needs -events")
		return 2
	}
	if *eventsPath != "" {
		return analyzeEvents(*eventsPath, *resultsPath, *campaignID, stdin, stdout, stderr)
	}
	if *tracePath != "" {
		return analyzeTrace(*tracePath, stdin, stdout, stderr)
	}
	return parseLog(*samples, stdin, stdout, stderr)
}

func parseLog(samples int, stdin io.Reader, stdout, stderr io.Writer) int {
	rs := core.NewResultSet()
	sc := bufio.NewScanner(stdin)
	cells := 0
	for sc.Scan() {
		m := lineRE.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		comp, wl := m[1], m[2]
		faults, _ := strconv.Atoi(m[3])
		res := &core.Result{
			Spec: core.Spec{Workload: wl, Component: comp, Faults: faults, Samples: samples},
		}
		if w, err := workloads.ByName(wl); err == nil {
			if g, err := w.Reference(); err == nil {
				res.GoldenCycles = g.Cycles
			}
		}
		total := 0
		for i, e := range core.Effects() {
			pct, _ := strconv.ParseFloat(m[4+i], 64)
			n := int(math.Round(pct * float64(samples) / 100))
			res.Counts[e] = n
			total += n
		}
		if total != samples {
			// Rounding slack lands in the dominant class.
			res.Counts[core.EffectMasked] += samples - total
		}
		rs.Add(res)
		cells++
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	data, err := json.MarshalIndent(rs, "", " ")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	stdout.Write(data)
	fmt.Fprintf(stderr, "parsed %d cells\n", cells)
	return 0
}

// cellKey identifies one campaign cell inside a trace.
type cellKey struct {
	Component string
	Workload  string
	Faults    int
}

// analyzeTrace digests a gefin JSONL trace: per-cell latency percentiles
// and checkpoint hit rate, then the campaign-wide restore count per
// checkpoint index (-1 = runs replayed from cycle 0).
func analyzeTrace(path string, stdin io.Reader, stdout, stderr io.Writer) int {
	r := stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer f.Close()
		r = f
	}
	trace, err := telemetry.ReadTraceTyped(r)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	recs := trace.Samples
	if len(recs) == 0 {
		fmt.Fprintln(stderr, "trace holds no records")
		return 1
	}
	if trace.Unknown > 0 {
		fmt.Fprintf(stderr, "note: skipped %d records of unknown type\n", trace.Unknown)
	}

	var (
		order   []cellKey
		byCell  = make(map[cellKey][]telemetry.SampleRecord)
		byIndex = make(map[int]int)
		skipped uint64
	)
	for _, rec := range recs {
		k := cellKey{rec.Component, rec.Workload, rec.Faults}
		if _, ok := byCell[k]; !ok {
			order = append(order, k)
		}
		byCell[k] = append(byCell[k], rec)
		byIndex[rec.Checkpoint]++
		skipped += rec.CyclesSkipped
	}

	fmt.Fprintf(stdout, "%-8s %-13s %s %7s %9s %9s %9s %8s\n",
		"comp", "workload", "k", "samples", "p50", "p90", "p99", "ckpt-hit")
	totalHits := 0
	for _, k := range order {
		cell := byCell[k]
		durs := make([]int64, len(cell))
		hits := 0
		for i, rec := range cell {
			durs[i] = rec.DurationNS
			if rec.CyclesSkipped > 0 {
				hits++
			}
		}
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		totalHits += hits
		fmt.Fprintf(stdout, "%-8s %-13s %d %7d %9s %9s %9s %7.1f%%\n",
			k.Component, k.Workload, k.Faults, len(cell),
			fmtNS(percentile(durs, 50)), fmtNS(percentile(durs, 90)), fmtNS(percentile(durs, 99)),
			100*float64(hits)/float64(len(cell)))
	}

	fmt.Fprintf(stdout, "\ncheckpoint restores (%d samples, %.1f%% hit rate, %d golden cycles skipped):\n",
		len(recs), 100*float64(totalHits)/float64(len(recs)), skipped)
	indexes := make([]int, 0, len(byIndex))
	for idx := range byIndex {
		indexes = append(indexes, idx)
	}
	sort.Ints(indexes)
	for _, idx := range indexes {
		label := fmt.Sprintf("ckpt %d", idx)
		if idx == -1 {
			label = "none (replayed from cycle 0)"
		}
		fmt.Fprintf(stdout, "  %-28s %6d (%5.1f%%)\n",
			label, byIndex[idx], 100*float64(byIndex[idx])/float64(len(recs)))
	}
	if len(trace.Fates) > 0 {
		fmt.Fprintf(stdout, "\nmasking mechanisms (%d forensics records):\n", len(trace.Fates))
		fmt.Fprint(stdout, report.ForensicsTable(trace.Fates))
	}
	return 0
}

// cellStory accumulates one cell's lifecycle from the event stream.
type cellStory struct {
	cellID
	cell     int // index the cell was first logged under
	leases   int
	expiries int
	retries  int
	firstNS  int64  // first lease timestamp (0: never leased)
	doneNS   int64  // cell_done timestamp (0: never completed)
	dones    int    // cell_done count (must be exactly 1 for a finished cell)
	worker   string // worker that completed it
	samples  int
}

// cellID names one cell in one campaign by its spec coordinate. A cell
// index is only a position in one session's grid: a service's campaigns
// each number from 0, and a locally resumed run numbers its pending cells
// from 0 again in the same continued log. The spec is what every cell
// event carries and what admission keeps unique within a campaign.
type cellID struct {
	campaign string
	key      core.CellKey
}

// cellOf returns the cell a cell-scoped event is about.
func cellOf(ev telemetry.Event) cellID {
	return cellID{ev.Campaign, core.CellKey{Component: ev.Comp, Workload: ev.Workload, Faults: ev.Faults}}
}

// analyzeEvents digests a campaign event log: validates ordering, rebuilds
// each cell's lease→run→submit timeline, reports per-worker utilization and
// straggler cells, and (with resultsPath) cross-checks the log against the
// campaign's results file. Any inconsistency — non-monotonic sequence
// numbers, a cell completed twice, a results/log mismatch — exits 1.
// Multi-campaign service logs are keyed per campaign; pass campaign to
// restrict analysis (and the -results cross-check) to one campaign's slice.
func analyzeEvents(path, resultsPath, campaign string, stdin io.Reader, stdout, stderr io.Writer) int {
	r := stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer f.Close()
		r = f
	}
	el, err := telemetry.ReadEvents(r)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	evs := el.Events
	if len(evs) == 0 {
		fmt.Fprintln(stderr, "event log holds no events")
		return 1
	}
	if el.Truncated > 0 {
		fmt.Fprintf(stderr, "note: skipped %d truncated final line(s)\n", el.Truncated)
	}
	if campaign != "" {
		var kept []telemetry.Event
		for _, ev := range evs {
			if ev.Campaign == campaign {
				kept = append(kept, ev)
			}
		}
		if len(kept) == 0 {
			fmt.Fprintf(stderr, "event log holds no events for campaign %s\n", campaign)
			return 1
		}
		evs = kept
	}

	bad := 0
	complain := func(format string, args ...any) {
		bad++
		fmt.Fprintf(stderr, "inconsistent: "+format+"\n", args...)
	}
	var lastSeq uint64
	for _, ev := range evs {
		if ev.Seq <= lastSeq {
			complain("event seq %d after %d (must be strictly monotonic)", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
	}

	// Fold the stream into per-cell stories and per-worker tallies, keyed
	// by campaign and spec.
	type workerStat struct {
		cells  int
		busyNS int64
		leased map[cellID]int64 // cell -> lease timestamp currently open
	}
	var (
		cells     = make(map[cellID]*cellStory)
		workers   = make(map[string]*workerStat)
		starts    = make(map[string]int)
		doneEvent = make(map[string]*telemetry.Event)
		// cell_done events since the campaign's last campaign_start
		session   = make(map[string]int)
		lastState = make(map[string]string)
		campaigns = make(map[string]bool)
	)
	story := func(ev telemetry.Event) *cellStory {
		k := cellOf(ev)
		s, ok := cells[k]
		if !ok {
			s = &cellStory{cellID: k, cell: ev.Cell}
			cells[k] = s
		}
		return s
	}
	wstat := func(id string) *workerStat {
		w, ok := workers[id]
		if !ok {
			w = &workerStat{leased: make(map[cellID]int64)}
			workers[id] = w
		}
		return w
	}
	for i := range evs {
		ev := evs[i]
		if ev.Campaign != "" {
			campaigns[ev.Campaign] = true
		}
		switch ev.Type {
		case telemetry.EventCampaignStart:
			starts[ev.Campaign]++
			session[ev.Campaign] = 0
		case telemetry.EventCampaignQueued:
			lastState[ev.Campaign] = "queued"
		case telemetry.EventCampaignState:
			lastState[ev.Campaign] = ev.Detail
		case telemetry.EventCellLeased:
			s := story(ev)
			s.leases++
			if s.firstNS == 0 {
				s.firstNS = ev.TimeNS
			}
			wstat(ev.Worker).leased[cellOf(ev)] = ev.TimeNS
		case telemetry.EventLeaseExpired:
			story(ev).expiries++
			w := wstat(ev.Worker)
			delete(w.leased, cellOf(ev)) // expiry: silent worker, not busy time
		case telemetry.EventCellRetried:
			story(ev).retries++
		case telemetry.EventCellDone:
			s := story(ev)
			s.dones++
			s.doneNS = ev.TimeNS
			s.worker = ev.Worker
			s.samples = ev.Samples
			session[ev.Campaign]++
			if ev.Worker != "" {
				w := wstat(ev.Worker)
				w.cells++
				if t, ok := w.leased[cellOf(ev)]; ok {
					w.busyNS += ev.TimeNS - t
					delete(w.leased, cellOf(ev))
				}
			}
		case telemetry.EventCampaignDone:
			doneEvent[ev.Campaign] = &evs[i]
			// campaign_done counts at least the cells its session completed:
			// a coordinator counts the whole grid, resumed cells included,
			// and a local run its own session. Fewer means lost events.
			if n := session[ev.Campaign]; ev.Detail == "" && ev.Cells < n {
				complain("campaign %sdone event reports %d cells but the log records %d completions",
					cellPrefix(ev.Campaign), ev.Cells, n)
			}
		}
	}
	multi := len(campaigns) > 1
	for _, id := range sortedKeys(starts) {
		if n := starts[id]; n > 1 {
			if id == "" {
				fmt.Fprintf(stderr, "note: %d campaign_start events (restarted/resumed campaign)\n", n)
			} else {
				fmt.Fprintf(stderr, "note: campaign %s started %d times (restarted/resumed)\n", id, n)
			}
		}
	}

	doneCells := 0
	for _, s := range cells {
		if s.dones > 1 {
			complain("cell %s%d (%s) completed %d times", cellPrefix(s.campaign), s.cell, cellName(s.key), s.dones)
		}
		if s.dones > 0 {
			doneCells++
		}
	}

	span := time.Duration(evs[len(evs)-1].TimeNS - evs[0].TimeNS)
	fmt.Fprintf(stdout, "%d events over %v: %d cells completed", len(evs), span.Round(time.Millisecond), doneCells)
	if multi {
		// A shared service log: summarize each campaign's final state —
		// campaign_state transitions when the service journaled them, else
		// presence/absence of the coordinator's campaign_done.
		byState := make(map[string]int)
		for id := range campaigns {
			st := lastState[id]
			if st == "" {
				switch de := doneEvent[id]; {
				case de == nil:
					st = "running"
				case de.Detail != "":
					st = "failed"
				default:
					st = "done"
				}
			}
			byState[st]++
		}
		fmt.Fprintf(stdout, " across %d campaigns:", len(campaigns))
		for _, st := range sortedKeys(byState) {
			fmt.Fprintf(stdout, " %d %s", byState[st], st)
		}
	} else {
		var de *telemetry.Event
		for _, d := range doneEvent {
			de = d
		}
		switch {
		case de == nil:
			fmt.Fprint(stdout, ", campaign still running (no campaign_done)")
		case de.Detail != "":
			fmt.Fprintf(stdout, ", campaign FAILED: %s", de.Detail)
		default:
			fmt.Fprint(stdout, ", campaign complete")
		}
	}
	fmt.Fprintln(stdout)

	// Per-cell timelines, campaign-major then cell order.
	order := make([]*cellStory, 0, len(cells))
	for _, s := range cells {
		order = append(order, s)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		switch {
		case a.campaign != b.campaign:
			return a.campaign < b.campaign
		case a.cell != b.cell:
			return a.cell < b.cell
		}
		return cellName(a.key) < cellName(b.key)
	})
	if len(order) > 0 {
		if multi {
			fmt.Fprintf(stdout, "\n%-9s ", "campaign")
		} else {
			fmt.Fprint(stdout, "\n")
		}
		fmt.Fprintf(stdout, "%-5s %-8s %-13s %s %8s %8s %8s %9s  %s\n",
			"cell", "comp", "workload", "k", "leases", "expired", "retried", "lifetime", "completed by")
	}
	for _, s := range order {
		life, by := "--", "--"
		if s.dones > 0 {
			if s.firstNS > 0 {
				life = time.Duration(s.doneNS - s.firstNS).Round(time.Millisecond).String()
			}
			by = s.worker
			if by == "" {
				by = "local"
			}
		}
		if multi {
			fmt.Fprintf(stdout, "%-9s ", s.campaign)
		}
		fmt.Fprintf(stdout, "%-5d %-8s %-13s %d %8d %8d %8d %9s  %s\n",
			s.cell, s.key.Component, s.key.Workload, s.key.Faults, s.leases, s.expiries, s.retries, life, by)
	}

	// Per-worker utilization: share of the campaign span spent holding a
	// lease that ended in a completed cell.
	ids := make([]string, 0, len(workers))
	for id := range workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	if len(ids) > 0 {
		fmt.Fprintf(stdout, "\nworkers (%d):\n", len(ids))
		for _, id := range ids {
			w := workers[id]
			util := 0.0
			if span > 0 {
				util = 100 * float64(w.busyNS) / float64(span)
			}
			fmt.Fprintf(stdout, "  %-20s %3d cells, %5.1f%% busy\n", id, w.cells, util)
		}
	}

	// Stragglers: the slowest completed cells by first-lease→done lifetime.
	type straggler struct {
		s    *cellStory
		life int64
	}
	var slow []straggler
	for _, s := range cells {
		if s.dones > 0 && s.firstNS > 0 {
			slow = append(slow, straggler{s, s.doneNS - s.firstNS})
		}
	}
	sort.Slice(slow, func(i, j int) bool { return slow[i].life > slow[j].life })
	if len(slow) > 3 {
		slow = slow[:3]
	}
	if len(slow) > 0 {
		fmt.Fprintln(stdout, "\nstragglers:")
		for _, st := range slow {
			fmt.Fprintf(stdout, "  cell %s%d %s: %v (%d leases)\n",
				cellPrefix(st.s.campaign), st.s.cell, cellName(st.s.key),
				time.Duration(st.life).Round(time.Millisecond), st.s.leases)
		}
	}

	// Cross-check against the results file: every completion in the log must
	// be in the results, and vice versa (a resumed campaign's earlier session
	// is in the same continued log, so both directions must agree).
	if resultsPath != "" {
		if multi {
			fmt.Fprintln(stderr, "-results cross-checks one campaign's results file: add -campaign to pick which slice of this multi-campaign log")
			return 2
		}
		rs, err := core.LoadResultSet(resultsPath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		for _, s := range cells {
			if s.dones == 0 {
				continue
			}
			res, ok := rs.Cells[s.key]
			switch {
			case !ok:
				complain("log says cell %d (%s) completed, results file has no such cell",
					s.cell, cellName(s.key))
			case s.samples > 0 && res.Samples() != s.samples:
				complain("cell %d (%s): log recorded %d samples, results file has %d",
					s.cell, cellName(s.key), s.samples, res.Samples())
			}
		}
		for key := range rs.Cells {
			found := false
			for _, s := range cells {
				if s.dones > 0 && s.key == key {
					found = true
					break
				}
			}
			if !found {
				complain("results file has %s, log never recorded it completing", cellName(key))
			}
		}
		if bad == 0 {
			fmt.Fprintf(stdout, "\ncross-check: event log and %s agree (%d cells)\n", resultsPath, len(rs.Cells))
		}
	}

	if bad > 0 {
		fmt.Fprintf(stderr, "%d inconsistencies\n", bad)
		return 1
	}
	return 0
}

// cellName renders a cell coordinate as comp/workload/k-bit.
func cellName(k core.CellKey) string {
	return fmt.Sprintf("%s/%s/%d-bit", k.Component, k.Workload, k.Faults)
}

// cellPrefix renders a campaign id as a cell-label prefix; "" (a
// single-campaign log) stays unadorned.
func cellPrefix(campaign string) string {
	if campaign == "" {
		return ""
	}
	return campaign + "/"
}

// sortedKeys returns a map's string keys in order, for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// percentile returns the p-th percentile (nearest-rank) of sorted values.
func percentile(sorted []int64, p int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := (p*len(sorted) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func fmtNS(ns int64) string {
	return time.Duration(ns).Round(10 * time.Microsecond).String()
}
