package liveness

import (
	"fmt"
	"math"

	"mbusim/internal/bitsem"
	"mbusim/internal/sim"
)

// Index is the golden run's per-cell event history of the caches and TLBs:
// for every cell of the bitsem layout, the order in which the fault-free
// run consumed it (read, compare, writeback) and redefined it (store,
// insert, refill). A faulty machine behaves exactly like the golden one
// until a flipped bit is consumed, so the index decides at injection time
// whether a fault is dead: if every flipped cell's next golden event after
// the injection cycle redefines it, or never comes, no flipped bit is ever
// read and the run is the golden run.
//
// Each cell's events are stored compressed to the ends of alternating
// runs: a run of consumes, then a run of defines, then consumes again, and
// so on. The first event after a cycle lies in the first run ending after
// it, and that run's kind follows from its parity and the cell's first
// kind. All cells share one flat array of uint32 run ends, indexed by
// per-cell offsets.
type Index struct {
	structs []*Structure
}

// Structure returns the indexed structure with the given name, or nil.
func (x *Index) Structure(name string) *Structure {
	for _, s := range x.structs {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Structure is the event history of one structure's cells.
type Structure struct {
	Name string

	// Bit (row, col) lives in cell colCell[col] + row*colStride[col].
	colCell, colStride []int32
	// Cell c's run ends are ends[off[c]:off[c+1]], ascending.
	off  []uint32
	ends []uint32
	// Bit c is set when cell c's first run is a define run.
	defFirst []uint64
}

// Live reports whether a flip of bit (row, col) just before the golden
// cycle after at would be read: the cell's first golden event stamped
// after at is a consume or writeback. A flip whose first later event is a
// define or refill, or that is never touched again, is dead.
func (s *Structure) Live(row, col int, at uint64) bool {
	c := int(s.colCell[col]) + row*int(s.colStride[col])
	ends := s.ends[s.off[c]:s.off[c+1]]
	lo, hi := 0, len(ends)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if uint64(ends[mid]) > at {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(ends) {
		return false
	}
	defFirst := s.defFirst[c/64]>>(c%64)&1 == 1
	return defFirst == (lo%2 == 1)
}

// Run kinds of an open run in the builder.
const (
	runNone uint8 = iota
	runConsume
	runDefine
)

// indexer builds one Structure: a bitsem sink that extends each cell's
// open run or closes it into the time-ordered list of closed runs.
type indexer struct {
	now   func() uint64
	probe *bitsem.Adapter
	s     *Structure
	kind  []uint8  // per cell: the open run's kind
	end   []uint32 // per cell: the open run's last cycle
	runs  []closedRun
	over  bool // a cycle stamp did not fit in uint32
}

type closedRun struct{ cell, end uint32 }

// Touch implements bitsem.Sink.
func (x *indexer) Touch(e bitsem.Effect, lo, hi int) {
	cyc := x.now()
	if cyc > math.MaxUint32 {
		x.over = true
		return
	}
	k := runDefine
	if e == bitsem.Consume || e == bitsem.Writeback {
		k = runConsume
	}
	for i := lo; i < hi; i++ {
		switch x.kind[i] {
		case k:
		case runNone:
			if k == runDefine {
				x.s.defFirst[i/64] |= 1 << (i % 64)
			}
			x.kind[i] = k
		default:
			x.runs = append(x.runs, closedRun{uint32(i), x.end[i]})
			x.kind[i] = k
		}
		x.end[i] = uint32(cyc)
	}
}

// finish closes every open run and lays the runs out per cell.
func (x *indexer) finish() {
	for i, k := range x.kind {
		if k != runNone {
			x.runs = append(x.runs, closedRun{uint32(i), x.end[i]})
		}
	}
	s := x.s
	s.off = make([]uint32, len(x.kind)+1)
	for _, r := range x.runs {
		s.off[r.cell+1]++
	}
	for c := 1; c < len(s.off); c++ {
		s.off[c] += s.off[c-1]
	}
	s.ends = make([]uint32, len(x.runs))
	next := append([]uint32(nil), s.off[:len(x.kind)]...)
	for _, r := range x.runs { // time order, so each cell's ends ascend
		s.ends[next[r.cell]] = r.end
		next[r.cell]++
	}
	x.kind, x.end, x.runs = nil, nil, nil
}

// Indexer records the liveness index of the caches and TLBs over one
// fault-free run of a machine. Use it as:
//
//	x := liveness.NewIndexer(m)
//	out := m.Run(limit, 0, nil)
//	idx, err := x.Finish()
//
// The register file is left out: its index would be several times larger
// than all five caches and TLBs together.
type Indexer struct {
	parts []*indexer
}

// NewIndexer attaches an index builder to L1D, L1I, L2, DTLB and ITLB of m.
func NewIndexer(m *sim.Machine) *Indexer {
	x := &Indexer{}
	for _, target := range []any{m.L1D, m.L1I, m.L2, m.DTLB, m.ITLB} {
		ix := &indexer{now: m.Core.Cycles}
		a, err := bitsem.Attach(target, ix)
		if err != nil {
			panic("liveness: " + err.Error()) // sim.Machine only holds supported structures
		}
		n := a.Cells()
		s := &Structure{Name: a.Name,
			colCell: make([]int32, a.Cols), colStride: make([]int32, a.Cols),
			defFirst: make([]uint64, (n+63)/64)}
		// Cell is linear in the row, so two rows give every column's map.
		for col := 0; col < a.Cols; col++ {
			s.colCell[col] = int32(a.Cell(0, col))
			s.colStride[col] = int32(a.Cell(1, col) - a.Cell(0, col))
		}
		ix.probe, ix.s = a, s
		ix.kind, ix.end = make([]uint8, n), make([]uint32, n)
		x.parts = append(x.parts, ix)
	}
	return x
}

// Finish detaches the probes and returns the index. It errors when the run
// outgrew the uint32 cycle stamps.
func (x *Indexer) Finish() (*Index, error) {
	idx := &Index{}
	for _, ix := range x.parts {
		ix.probe.Detach()
		if ix.over {
			return nil, fmt.Errorf("liveness: %s: run exceeds %d cycles, too long to index", ix.s.Name, uint64(math.MaxUint32))
		}
		ix.finish()
		idx.structs = append(idx.structs, ix.s)
	}
	return idx, nil
}
