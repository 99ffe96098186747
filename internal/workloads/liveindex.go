package workloads

import (
	"fmt"
	"time"

	"mbusim/internal/liveness"
)

// OnLiveIndexBuilt, when non-nil, is called each time a workload's
// liveness index is built in this process, with the wall time of its
// golden pass. Set it before any campaign runs; it must be safe for
// concurrent calls.
var OnLiveIndexBuilt func(name string, d time.Duration)

// LiveIndex returns the golden liveness index of the workload's caches and
// TLBs, building it on first use in one fault-free run that covers all five
// structures. Like Profile, the indexed run must reproduce the golden run
// exactly, or the probes would have perturbed execution.
func (w *Workload) LiveIndex() (*liveness.Index, error) {
	w.liveOnce.Do(func() {
		start := time.Now()
		golden, err := w.Reference()
		if err != nil {
			w.liveErr = err
			return
		}
		m, err := w.NewMachine()
		if err != nil {
			w.liveErr = err
			return
		}
		x := liveness.NewIndexer(m)
		out := m.Run(golden.Cycles+1, 0, nil)
		idx, err := x.Finish()
		if err != nil {
			w.liveErr = fmt.Errorf("workloads: %s: %w", w.Name, err)
			return
		}
		if out.Stop.String() != "exit" || out.ExitCode != golden.ExitCode || out.Cycles != golden.Cycles {
			w.liveErr = fmt.Errorf("workloads: indexed run of %s diverged from golden: stop=%v exit=%d cycles=%d (want exit=%d cycles=%d)",
				w.Name, out.Stop, out.ExitCode, out.Cycles, golden.ExitCode, golden.Cycles)
			return
		}
		w.live = idx
		if OnLiveIndexBuilt != nil {
			OnLiveIndexBuilt(w.Name, time.Since(start))
		}
	})
	return w.live, w.liveErr
}
