package liveness

import (
	"testing"

	"mbusim/internal/bitsem"
)

// TestIndexFirstEventAfter pins the run-end encoding: a cell's verdict at
// cycle at is the kind of its first event stamped after at, including
// when a consume and a define share one cycle, and a cell whose history
// ends before at is dead.
func TestIndexFirstEventAfter(t *testing.T) {
	var now uint64
	const cells = 3
	ix := &indexer{now: func() uint64 { return now },
		s: &Structure{Name: "T",
			colCell: []int32{0, 1, 2}, colStride: []int32{cells, cells, cells},
			defFirst: make([]uint64, 1)},
		kind: make([]uint8, cells), end: make([]uint32, cells)}
	touch := func(cyc uint64, e bitsem.Effect, cell int) {
		now = cyc
		ix.Touch(e, cell, cell+1)
	}
	// Cell 0: reads at 5 and 7, a store at 9, a writeback at 12.
	touch(5, bitsem.Consume, 0)
	touch(7, bitsem.Consume, 0)
	touch(9, bitsem.Define, 0)
	touch(12, bitsem.Writeback, 0)
	// Cell 1: a read and then a refill in the same cycle.
	touch(20, bitsem.Consume, 1)
	touch(20, bitsem.Refill, 1)
	// Cell 2: starts with a define; never touched after 4.
	touch(3, bitsem.Define, 2)
	touch(4, bitsem.Consume, 2)
	ix.finish()
	s := ix.s
	for _, tc := range []struct {
		col  int
		at   uint64
		live bool
	}{
		{0, 0, true}, {0, 4, true}, {0, 5, true}, {0, 7, false}, {0, 8, false},
		{0, 9, true}, {0, 11, true}, {0, 12, false}, {0, 100, false},
		{1, 19, true}, {1, 20, false},
		{2, 0, false}, {2, 2, false}, {2, 3, true}, {2, 4, false},
	} {
		if got := s.Live(0, tc.col, tc.at); got != tc.live {
			t.Errorf("cell %d at cycle %d: live = %v, want %v", tc.col, tc.at, got, tc.live)
		}
	}
	if len(s.ends) != 7 { // cell 0: C D C, cell 1: C D, cell 2: D C
		t.Errorf("%d runs stored, want 7 (runs of one kind collapse)", len(s.ends))
	}
}
