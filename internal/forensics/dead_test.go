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
// each of a few tracked cells, and its cycle.
type firstEvents struct {
	now   func() uint64
	cells []int
	first []bitsem.Effect
	at    []uint64
	seen  []bool
}

func (f *firstEvents) Touch(e bitsem.Effect, lo, hi int) {
	for i, c := range f.cells {
		if !f.seen[i] && c >= lo && c < hi {
			f.first[i], f.at[i], f.seen[i] = e, f.now(), true
		}
	}
}

// firstCycle returns the cycle of the earliest event on a tracked cell.
func (f *firstEvents) firstCycle() (uint64, bool) {
	at, ok := uint64(0), false
	for i := range f.cells {
		if f.seen[i] && (!ok || f.at[i] < at) {
			at, ok = f.at[i], true
		}
	}
	return at, ok
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

// replay runs the fault-free workload from its checkpoint, arms a
// firstEvents on the mask's cells at injectAt, and runs it out.
func replay(t *testing.T, w *workloads.Workload, end uint64, comp string, mask [][2]int, injectAt uint64) *firstEvents {
	t.Helper()
	m, _, err := w.MachineAt(injectAt)
	if err != nil {
		t.Fatal(err)
	}
	target, err := core.TargetFor(m, comp)
	if err != nil {
		t.Fatal(err)
	}
	rec := &firstEvents{now: m.Core.Cycles}
	var attachErr error
	m.Run(end, injectAt, func(*sim.Machine) {
		a, err := bitsem.Attach(target, rec)
		if err != nil {
			attachErr = err
			return
		}
		for _, bc := range mask {
			rec.cells = append(rec.cells, a.Cell(bc[0], bc[1]))
		}
		rec.first = make([]bitsem.Effect, len(rec.cells))
		rec.at = make([]uint64, len(rec.cells))
		rec.seen = make([]bool, len(rec.cells))
	})
	if attachErr != nil {
		t.Fatal(attachErr)
	}
	return rec
}

// TestDeadAtInjectionMatchesFates checks the two consumers of the shared
// bit-semantics model against each other, sample by sample. A faulty
// machine behaves exactly like the golden one until a flipped bit is
// consumed, so replaying the fault-free run from the sample's checkpoint
// and watching the flipped cells decides at injection time whether the
// fault is dead. That must agree with the fate forensics measured on the
// faulty run: dead exactly when the fate is never-touched, overwritten or
// refilled — and a dead fault must leave the outcome Masked. On the caches
// and TLBs the golden liveness index, which campaigns use to skip dead
// samples, must give the replay's verdict sample by sample.
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
	// The golden liveness index must reach the replay's verdict without a
	// replay. It covers the caches and TLBs; its events stamped at the
	// injection cycle happened before the flip (inject runs before the
	// cycle counter advances), so only later stamps count.
	idx, err := w.LiveIndex()
	if err != nil {
		t.Fatal(err)
	}
	indexed := map[string]bool{core.CompL1D: true, core.CompL2: true, core.CompDTLB: true}
	nDead := map[string]int{}
	idxDead := func(comp string, mask [][2]int, at uint64) bool {
		st := idx.Structure(comp)
		for _, bc := range mask {
			if st.Live(bc[0], bc[1], at) {
				return false
			}
		}
		return true
	}
	for _, f := range trace.Fates {
		rec := replay(t, w, golden.Cycles+1, f.Component, f.Mask, f.InjectCycle)
		dead := rec.dead()
		if indexed[f.Component] {
			if got := idxDead(f.Component, f.Mask, f.InjectCycle); got != dead {
				t.Errorf("%s/%d-bit sample %d (inject %d, mask %v): index says dead = %v, replay says %v",
					f.Component, f.Faults, f.Sample, f.InjectCycle, f.Mask, got, dead)
			}
			// Inject again in the cycle of the first event the replay saw:
			// that event ran before the flip, so the index must skip it.
			if at, ok := rec.firstCycle(); ok {
				again := replay(t, w, golden.Cycles+1, f.Component, f.Mask, at).dead()
				if got := idxDead(f.Component, f.Mask, at); got != again {
					t.Errorf("%s/%d-bit sample %d (mask %v) injected at event cycle %d: index says dead = %v, replay says %v",
						f.Component, f.Faults, f.Sample, f.Mask, at, got, again)
				}
			}
		}
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
