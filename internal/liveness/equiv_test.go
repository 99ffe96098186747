package liveness_test

import (
	"context"
	"testing"

	"mbusim/internal/core"
	"mbusim/internal/forensics"
	"mbusim/internal/telemetry"
	"mbusim/internal/workloads"
)

// TestNeverTouchedMatchesForensics is the closing-the-loop check: the
// analytical never-touched fraction from one fault-free profiled run must
// agree with the forensics-measured `never-touched` fate fraction of a
// real injection campaign on the same workload. Both read one shared
// bit-semantics model (internal/bitsem), but they are two independent
// measurements — the profiler integrates dead bit-cycles over the whole
// structure in one golden run, forensics watches each injected mask for
// events in faulty runs — so agreement within sampling noise validates
// both.
//
// Cache components are used because their column count (~500+) makes the
// mask generator's slight under-weighting of edge rows/cols negligible;
// the tolerance of 5 percentage points covers binomial noise at the
// sample counts used (the campaign is seeded, so the measured fractions
// are deterministic and this test cannot flake).
func TestNeverTouchedMatchesForensics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 400-sample forensics campaign per component")
	}
	const (
		workload = "stringSearch"
		samples  = 400
		seed     = 7
	)
	w, err := workloads.ByName(workload)
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Profile(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, comp := range []string{"L1D", "L1I", "L2"} {
		t.Run(comp, func(t *testing.T) {
			analytic := p.NeverTouched(comp)
			tel := telemetry.NewCampaign(nil)
			spec := core.Spec{
				Workload: workload, Component: comp, Faults: 1,
				Samples: samples, Seed: seed, Forensics: forensics.ModeFast,
			}
			err := core.RunGridWithTelemetry(context.Background(), []core.Spec{spec}, 1,
				func(int, *core.Result) {}, tel)
			if err != nil {
				t.Fatal(err)
			}
			s := tel.Summarize()
			var total int64
			for _, n := range s.ByFate {
				total += n
			}
			if total == 0 {
				t.Fatal("campaign recorded no fates")
			}
			measured := float64(s.ByFate["never-touched"]) / float64(total)
			t.Logf("%s: analytical %.4f, measured %.4f (n=%d)", comp, analytic, measured, total)
			if diff := analytic - measured; diff > 0.05 || diff < -0.05 {
				t.Errorf("%s never-touched: analytical %.4f vs measured %.4f differ by %.2f pp (tolerance 5 pp)",
					comp, analytic, measured, 100*diff)
			}
		})
	}
}
