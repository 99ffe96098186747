// Package bitsem is the one declaration of which stored bits each hardware
// event of an injectable structure consumes, sends to the next memory
// level, or rewrites. Fault forensics (the fate of one injected mask) and
// the liveness profiler (the lifetimes of every bit of a structure) are two
// consumers of it: both attach a Sink through Attach and see the same
// effects on the same cells, so the injected-fate and the golden-profile
// measurements can never disagree about what "read" means.
//
// A structure's bits are grouped into cells: one cell per row and metadata
// field (cache valid/dirty/tag, TLB CAM/payload/spare, register
// data/ready) and one cell per cache data byte, the finest granularity the
// access probes report. Cells are numbered class-major: every row's cell of
// class 0, then every row's cell of class 1, and so on, so each effect of
// an event covers one contiguous range of cell indices.
//
// The effects model what the hardware consults per access. A
// set-associative lookup reads valid+tag of every way in the probed set in
// parallel, and a TLB lookup CAM-compares valid+VPN of every entry, so a
// fault that influenced an access is never missed. The price is a
// conservative over-approximation: a metadata bit "read" by a compare that
// happened to produce the right answer still counts as consumed.
package bitsem

import (
	"fmt"
	"math"

	"mbusim/internal/cache"
	"mbusim/internal/cpu"
	"mbusim/internal/tlb"
)

// Effect is what an event does to the bits of a cell range.
type Effect uint8

const (
	// Consume: the bits enter the datapath (data read, tag compare, CAM
	// match, victim check).
	Consume Effect = iota
	// Writeback: the bits escape to the next memory level (a dirty line's
	// tag forms the writeback address, its data is written out).
	Writeback
	// Define: the bits are overwritten with new state.
	Define
	// Refill: the bits are rewritten by a cache line refill.
	Refill
)

// Sink receives the effects of every event on an attached structure: one
// Touch per contiguous range of cells [lo, hi).
type Sink interface {
	Touch(e Effect, lo, hi int)
}

// event names one probe callback of cache.Probe, tlb.Probe or
// cpu.RegProbe.
type event uint8

const (
	cacheLookup    event = iota // OnLookup(set)
	cacheReadData               // OnReadData(row, off, n)
	cacheWriteData              // OnWriteData(row, off, n)
	cacheEvict                  // OnEvict(row)
	cacheWriteback              // OnWriteback(row)
	cacheFill                   // OnFill(row)
	tlbLookup                   // OnTLBLookup(hit)
	tlbInsert                   // OnTLBInsert(row)
	tlbInvalidate               // OnTLBInvalidate()
	regRead                     // OnRegRead(row)
	regReadyRead                // OnRegReadyRead(row)
	regWrite                    // OnRegWrite(row)
	regAlloc                    // OnRegAlloc(row)
	numEvents
)

// Class indices of each structure's cell layout, in layout order.
const (
	cacheValid = iota
	cacheDirty
	cacheTag
	cacheData // one cell per line byte
)

const (
	tlbCAM = iota // valid + VPN
	tlbPayload
	tlbSpare
)

const (
	regData = iota
	regReady
)

// rows selects the rows an effect applies to, from the event's argument.
type rows uint8

const (
	oneRow  rows = iota // the event's row
	setRows             // every way of the event's set
	allRows             // every row
	hitRow              // the hit row; none on a miss (-1)
)

// span selects which of a selected row's cells of the class are affected.
type span uint8

const (
	whole    span = iota // all of them (the whole line, for cache data)
	accessed             // the accessed bytes [off, off+n)
)

// rule is one effect of an event on one class.
type rule struct {
	effect Effect
	class  int
	rows   rows
	span   span
}

// semantics is the event→effect table: the single place the bit semantics
// of every probe event are declared.
var semantics = [numEvents][]rule{
	// The parallel tag read consults valid + tag of every way in the set.
	cacheLookup:   {{Consume, cacheValid, setRows, whole}, {Consume, cacheTag, setRows, whole}},
	cacheReadData: {{Consume, cacheData, oneRow, accessed}},
	// A store rewrites the written bytes and sets the dirty bit
	// unconditionally.
	cacheWriteData: {{Define, cacheData, oneRow, accessed}, {Define, cacheDirty, oneRow, whole}},
	// Choosing a fill victim consults its valid and dirty bits.
	cacheEvict: {{Consume, cacheValid, oneRow, whole}, {Consume, cacheDirty, oneRow, whole}},
	// The tag forms the writeback address and the data escapes.
	cacheWriteback: {{Writeback, cacheTag, oneRow, whole}, {Writeback, cacheData, oneRow, whole}},
	cacheFill: {{Refill, cacheValid, oneRow, whole}, {Refill, cacheDirty, oneRow, whole},
		{Refill, cacheTag, oneRow, whole}, {Refill, cacheData, oneRow, whole}},
	// The CAM compares valid + VPN of every entry; a hit entry's payload
	// enters the datapath.
	tlbLookup: {{Consume, tlbCAM, allRows, whole}, {Consume, tlbPayload, hitRow, whole}},
	tlbInsert: {{Define, tlbCAM, oneRow, whole}, {Define, tlbPayload, oneRow, whole},
		{Define, tlbSpare, oneRow, whole}},
	tlbInvalidate: {{Define, tlbCAM, allRows, whole}, {Define, tlbPayload, allRows, whole},
		{Define, tlbSpare, allRows, whole}},
	regRead:      {{Consume, regData, oneRow, whole}},
	regReadyRead: {{Consume, regReady, oneRow, whole}},
	regWrite:     {{Define, regData, oneRow, whole}, {Define, regReady, oneRow, whole}},
	// Reallocation rewrites the ready bit only; the stale value survives
	// until the producer writes.
	regAlloc: {{Define, regReady, oneRow, whole}},
}

// Class is one bit class of a structure: PerRow cells per row, each Width
// bits wide.
type Class struct {
	Name   string
	PerRow int
	Width  int
}

// step is a rule resolved against a structure's layout: an event with
// row argument row touches cells [base+row*stride, +width), narrowed to
// the accessed bytes for a byte span; the rule's class ends before cell
// end.
type step struct {
	effect                   Effect
	span                     span
	base, stride, width, end int
}

// Adapter is the probe Attach installs on a structure: it implements
// cache.Probe, tlb.Probe and cpu.RegProbe by looking each event up in
// semantics and handing the sink one cell range per rule. It also
// describes the structure's cell layout.
type Adapter struct {
	Name       string
	Rows, Cols int
	Classes    []Class
	base       []int                          // first cell of each class, plus the total
	col        func(col int) (class, sub int) // injectable column -> class and cell within the row
	steps      [numEvents][]step              // the structure's events' rules, resolved
	rows       [numEvents]window              // per event, the rows whose rules can reach a watched cell
	sink       Sink
	rowLive    func(row int) bool
	detach     func()
}

// layout sets up a structure with ways rows per set (1 outside caches)
// whose probe fires events first..last.
func (a *Adapter) layout(name string, rows, cols, ways int, classes []Class, col func(int) (int, int), first, last event) {
	a.Name, a.Rows, a.Cols, a.Classes, a.col = name, rows, cols, classes, col
	a.base = make([]int, len(classes)+1)
	for c, cl := range classes {
		a.base[c+1] = a.base[c] + rows*cl.PerRow
	}
	for ev := first; ev <= last; ev++ {
		for _, r := range semantics[ev] {
			per := classes[r.class].PerRow
			st := step{effect: r.effect, span: r.span, base: a.base[r.class], stride: per, width: per, end: a.base[r.class+1]}
			switch r.rows {
			case setRows:
				st.stride, st.width = ways*per, ways*per
			case allRows:
				st.stride, st.width = 0, rows*per
			}
			a.steps[ev] = append(a.steps[ev], st)
		}
		a.rows[ev] = rowsOf(math.MinInt, math.MaxInt)
	}
}

// Cells returns the number of cells.
func (a *Adapter) Cells() int { return a.base[len(a.Classes)] }

// Base returns the index of class c's first cell.
func (a *Adapter) Base(c int) int { return a.base[c] }

// Cell returns the index of the cell holding injectable bit (row, col).
func (a *Adapter) Cell(row, col int) int {
	c, sub := a.col(col)
	return a.base[c] + row*a.Classes[c].PerRow + sub
}

// tlbClass maps tlb.ClassifyCol onto the TLB class indices.
var tlbClass = [...]int{tlb.ColCAM: tlbCAM, tlb.ColPayload: tlbPayload, tlb.ColSpare: tlbSpare}

// Attach installs an adapter feeding sink on target (a *cache.Cache,
// *tlb.TLB or *cpu.RegFile) and returns it; it errors for any other type.
func Attach(target any, sink Sink) (*Adapter, error) {
	a := &Adapter{sink: sink}
	switch tg := target.(type) {
	case *cache.Cache:
		sb := tg.StateBits()
		a.layout(tg.Name(), tg.Rows(), tg.Cols(), tg.Config().Ways, []Class{
			{"valid", 1, 1}, {"dirty", 1, 1}, {"tag", 1, sb - 2}, {"data", tg.Config().LineSize, 8},
		}, func(col int) (int, int) {
			switch {
			case col == 0:
				return cacheValid, 0
			case col == 1:
				return cacheDirty, 0
			case col < sb:
				return cacheTag, 0
			}
			return cacheData, (col - sb) / 8
		}, cacheLookup, cacheFill)
		a.rowLive = func(row int) bool { _, valid, _, _ := tg.LineState(row); return valid }
		tg.SetProbe(a)
		a.detach = func() { tg.SetProbe(nil) }
	case *tlb.TLB:
		var w [3]int
		for col := 0; col < tlb.EntryBits; col++ {
			w[tlbClass[tlb.ClassifyCol(col)]]++
		}
		a.layout(tg.Name(), tg.Rows(), tg.Cols(), 1, []Class{
			{"cam", 1, w[tlbCAM]}, {"payload", 1, w[tlbPayload]}, {"spare", 1, w[tlbSpare]},
		}, func(col int) (int, int) { return tlbClass[tlb.ClassifyCol(col)], 0 }, tlbLookup, tlbInvalidate)
		a.rowLive = tg.ValidAt
		tg.SetProbe(a)
		a.detach = func() { tg.SetProbe(nil) }
	case *cpu.RegFile:
		a.layout(tg.Name(), tg.Rows(), tg.Cols(), 1, []Class{
			{"data", 1, cpu.ReadyCol}, {"ready", 1, 1},
		}, func(col int) (int, int) {
			if col == cpu.ReadyCol {
				return regReady, 0
			}
			return regData, 0
		}, regRead, regAlloc)
		a.rowLive = tg.ReadyAt
		tg.SetProbe(a)
		a.detach = func() { tg.SetProbe(nil) }
	default:
		return nil, fmt.Errorf("bitsem: unsupported target %T", target)
	}
	return a, nil
}

// Watch restricts the sink to the given cells: an event whose rules
// cannot touch any of them returns after one compare instead of reaching
// the sink, so a sink tracking a few cells pays almost nothing for the
// many accesses elsewhere in the structure.
func (a *Adapter) Watch(cells []int) {
	for ev, steps := range a.steps {
		first, end := math.MaxInt, math.MinInt
		for _, st := range steps {
			for _, c := range cells {
				switch {
				case c < st.base || c >= st.end:
				case st.stride == 0: // the rule ignores the event's row
					first, end = math.MinInt, math.MaxInt
				default:
					r := (c - st.base) / st.stride
					first, end = min(first, r), max(end, r+1)
				}
			}
		}
		a.rows[ev] = rowsOf(first, end)
	}
}

// window is the rows [lo, lo+n), in wrapping arithmetic so that one
// unsigned compare tests membership (fire stays small enough to inline).
type window struct {
	lo int
	n  uint
}

// rowsOf returns the window of rows [lo, hi); [MinInt, MaxInt) wraps to
// a window holding every row.
func rowsOf(lo, hi int) window {
	if hi <= lo {
		return window{}
	}
	return window{lo, uint(hi - lo)}
}

func (w window) has(row int) bool { return uint(row-w.lo) < w.n }

// Detach removes the adapter from its structure.
func (a *Adapter) Detach() { a.detach() }

// RowLive reports, without firing the probe, whether row holds valid
// state: a valid cache line or TLB entry, a ready register.
func (a *Adapter) RowLive(row int) bool { return a.rowLive(row) }

// fire applies event ev's rules if they can reach a watched cell: row is
// the event's row, set or hit index, [off, off+n) its byte span.
func (a *Adapter) fire(ev event, row, off, n int) {
	if a.rows[ev].has(row) {
		a.apply(ev, row, off, n)
	}
}

func (a *Adapter) apply(ev event, row, off, n int) {
	for i := range a.steps[ev] {
		st := &a.steps[ev][i]
		if row < 0 && st.stride != 0 {
			continue // a TLB miss has no hit row
		}
		lo := st.base + row*st.stride
		hi := lo + st.width
		if st.span == accessed {
			lo += off
			hi = lo + n
		}
		a.sink.Touch(st.effect, lo, hi)
	}
}

// The probe callbacks: each fires its event through semantics.

func (a *Adapter) OnLookup(set uint32)         { a.fire(cacheLookup, int(set), 0, 0) }
func (a *Adapter) OnReadData(row, off, n int)  { a.fire(cacheReadData, row, off, n) }
func (a *Adapter) OnWriteData(row, off, n int) { a.fire(cacheWriteData, row, off, n) }
func (a *Adapter) OnEvict(row int)             { a.fire(cacheEvict, row, 0, 0) }
func (a *Adapter) OnWriteback(row int)         { a.fire(cacheWriteback, row, 0, 0) }
func (a *Adapter) OnFill(row int)              { a.fire(cacheFill, row, 0, 0) }
func (a *Adapter) OnTLBLookup(hit int)         { a.fire(tlbLookup, hit, 0, 0) }
func (a *Adapter) OnTLBInsert(row int)         { a.fire(tlbInsert, row, 0, 0) }
func (a *Adapter) OnTLBInvalidate()            { a.fire(tlbInvalidate, 0, 0, 0) }
func (a *Adapter) OnRegRead(row int)           { a.fire(regRead, row, 0, 0) }
func (a *Adapter) OnRegReadyRead(row int)      { a.fire(regReadyRead, row, 0, 0) }
func (a *Adapter) OnRegWrite(row int)          { a.fire(regWrite, row, 0, 0) }
func (a *Adapter) OnRegAlloc(row int)          { a.fire(regAlloc, row, 0, 0) }
