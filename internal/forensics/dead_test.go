package forensics_test

import (
	"bytes"
	"context"
	"testing"

	"mbusim/internal/bitsem"
	"mbusim/internal/core"
	"mbusim/internal/forensics"
	"mbusim/internal/sim"
	"mbusim/internal/telemetry"
	"mbusim/internal/workloads"
)

// firstEvents is a bitsem.Sink recording the first effect that reaches
// each of a few tracked cells.
type firstEvents struct {
	cells []int
	first []bitsem.Effect
	seen  []bool
}

func (f *firstEvents) Touch(e bitsem.Effect, lo, hi int) {
	for i, c := range f.cells {
		if !f.seen[i] && c >= lo && c < hi {
			f.first[i], f.seen[i] = e, true
		}
	}
}

// dead reports whether every tracked cell's next event after injection
// redefines or refills it, or never comes.
func (f *firstEvents) dead() bool {
	for i := range f.cells {
		if f.seen[i] && (f.first[i] == bitsem.Consume || f.first[i] == bitsem.Writeback) {
			return false
		}
	}
	return true
}

// TestDeadAtInjectionMatchesFates checks the two consumers of the shared
// bit-semantics model against each other, sample by sample. A faulty
// machine behaves exactly like the golden one until a flipped bit is
// consumed, so replaying the fault-free run from the sample's checkpoint
// and watching the flipped cells decides at injection time whether the
// fault is dead. That must agree with the fate forensics measured on the
// faulty run: dead exactly when the fate is never-touched, overwritten or
// refilled — and a dead fault must leave the outcome Masked.
func TestDeadAtInjectionMatchesFates(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a forensics campaign and replays every sample")
	}
	const workload = "stringSearch"
	var specs []core.Spec
	for _, comp := range []string{core.CompL1D, core.CompL2, core.CompDTLB, core.CompRF} {
		for k := 1; k <= 3; k++ {
			specs = append(specs, core.Spec{
				Workload: workload, Component: comp, Faults: k,
				Samples: 30, Seed: 17, Forensics: forensics.ModeFast,
			})
		}
	}
	var buf bytes.Buffer
	tel := telemetry.NewCampaign(telemetry.NewTracer(&buf))
	if err := core.RunGridWithTelemetry(context.Background(), specs, 2, nil, tel); err != nil {
		t.Fatal(err)
	}
	trace, err := telemetry.ReadTraceTyped(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloads.ByName(workload)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := w.Reference()
	if err != nil {
		t.Fatal(err)
	}
	deadFate := map[string]bool{
		forensics.FateNeverTouched.Label(): true,
		forensics.FateOverwritten.Label():  true,
		forensics.FateRefilled.Label():     true,
	}
	if len(trace.Fates) != 4*3*30 {
		t.Fatalf("%d forensics records, want %d", len(trace.Fates), 4*3*30)
	}
	nDead := map[string]int{}
	for _, f := range trace.Fates {
		m, _, err := w.MachineAt(f.InjectCycle)
		if err != nil {
			t.Fatal(err)
		}
		target, err := core.TargetFor(m, f.Component)
		if err != nil {
			t.Fatal(err)
		}
		rec := &firstEvents{}
		m.Run(golden.Cycles+1, f.InjectCycle, func(*sim.Machine) {
			a, err := bitsem.Attach(target, rec)
			if err != nil {
				t.Fatal(err)
			}
			for _, bc := range f.Mask {
				rec.cells = append(rec.cells, a.Cell(bc[0], bc[1]))
			}
			rec.first = make([]bitsem.Effect, len(rec.cells))
			rec.seen = make([]bool, len(rec.cells))
		})
		dead := rec.dead()
		if dead != deadFate[f.Fate] {
			t.Errorf("%s/%d-bit sample %d (inject %d, mask %v): dead at injection = %v, but fate %s",
				f.Component, f.Faults, f.Sample, f.InjectCycle, f.Mask, dead, f.Fate)
		}
		if dead {
			nDead[f.Component]++
			if f.Outcome != core.EffectMasked.Label() {
				t.Errorf("%s/%d-bit sample %d: dead at injection but outcome %s", f.Component, f.Faults, f.Sample, f.Outcome)
			}
		}
	}
	t.Logf("dead at injection per component (of 90): %v", nDead)
}
