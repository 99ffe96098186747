package cpu

import (
	"fmt"

	"mbusim/internal/isa"
	"mbusim/internal/wire"
)

// Wire encoding of core snapshots, the cpu piece of the content-addressed
// checkpoint artifact format. Every field a Snapshot captures is encoded
// except the predecoded text: pretext is derived state, rebuilt from the
// program image by InstallText, so the artifact ships the image hash
// instead and the loader rebinds a locally predecoded text with BindText.
// The field order here is part of the artifact format, versioned by
// sim.SnapshotFormat.

// maxWireSlice bounds every decoded slice length, far above any simulated
// configuration, so a corrupt length cannot drive a giant allocation
// before structural checks run.
const maxWireSlice = 1 << 20

// wireLen reads a slice length whose elements are each encoded in at least
// size bytes, and checks it against maxWireSlice and the unread input.
func wireLen(r *wire.Reader, size int) (int, error) {
	n := r.Int()
	if err := r.Err(); err != nil {
		return 0, err
	}
	if n < 0 || n > maxWireSlice || !r.Fits(n, size) {
		return 0, fmt.Errorf("cpu: snapshot slice length %d out of range", n)
	}
	return n, nil
}

// EncodeWire appends the register-file snapshot to w.
func (s *RegFileSnapshot) EncodeWire(w *wire.Writer) {
	w.Int(len(s.vals))
	for _, v := range s.vals {
		w.U32(v)
	}
	for _, rdy := range s.ready {
		w.Bool(rdy)
	}
}

func decodeRegFileWire(r *wire.Reader) (*RegFileSnapshot, error) {
	n, err := wireLen(r, 5)
	if err != nil {
		return nil, err
	}
	s := &RegFileSnapshot{
		vals:  make([]uint32, n),
		ready: make([]bool, n),
	}
	for i := range s.vals {
		s.vals[i] = r.U32()
	}
	for i := range s.ready {
		s.ready[i] = r.Bool()
	}
	return s, r.Err()
}

func encodeROBEntry(w *wire.Writer, e *robEntry) {
	w.U64(e.seq)
	w.U32(e.pc)
	w.U32(e.raw)
	w.I32(e.imm)
	w.U32(e.predNext)
	w.U32(e.excAddr)
	w.U32(e.addrVA)
	w.U32(e.addrPA)
	w.U32(e.storeVal)
	w.U8(uint8(e.op))
	w.U8(uint8(e.cond))
	w.U8(uint8(e.exc))
	w.U8(e.archDest)
	w.U8(e.newPhys)
	w.U8(e.oldPhys)
	w.U8(e.memSize)
	w.Bool(e.valid)
	w.Bool(e.done)
	w.Bool(e.isBranch)
	w.Bool(e.isLoad)
	w.Bool(e.isStore)
	w.Bool(e.isSys)
	w.Bool(e.memReg)
	w.Bool(e.addrKnown)
}

func decodeROBEntry(r *wire.Reader, e *robEntry) {
	e.seq = r.U64()
	e.pc = r.U32()
	e.raw = r.U32()
	e.imm = r.I32()
	e.predNext = r.U32()
	e.excAddr = r.U32()
	e.addrVA = r.U32()
	e.addrPA = r.U32()
	e.storeVal = r.U32()
	e.op = isa.Op(r.U8())
	e.cond = isa.Cond(r.U8())
	e.exc = excKind(r.U8())
	e.archDest = r.U8()
	e.newPhys = r.U8()
	e.oldPhys = r.U8()
	e.memSize = r.U8()
	e.valid = r.Bool()
	e.done = r.Bool()
	e.isBranch = r.Bool()
	e.isLoad = r.Bool()
	e.isStore = r.Bool()
	e.isSys = r.Bool()
	e.memReg = r.Bool()
	e.addrKnown = r.Bool()
}

// EncodeWire appends the core snapshot to w, pretext excluded (see the
// package comment above).
func (s *Snapshot) EncodeWire(w *wire.Writer) {
	s.rf.EncodeWire(w)
	for _, v := range s.renameMap {
		w.U8(v)
	}
	for _, v := range s.archMap {
		w.U8(v)
	}
	w.Blob(s.freeList)

	w.Int(len(s.rob))
	for i := range s.rob {
		encodeROBEntry(w, &s.rob[i])
	}
	w.Int(s.robHead)
	w.Int(s.robCount)
	w.U64(s.seqNext)

	w.U32(s.fetchPC)
	w.Int(len(s.fetchQ))
	for i := range s.fetchQ {
		f := &s.fetchQ[i]
		w.U32(f.pc)
		w.U32(f.predNext)
		w.U32(f.excAddr)
		w.U32(f.raw)
		w.I32(f.preIdx)
		w.U8(uint8(f.exc))
	}
	w.Int(s.fqHead)
	w.U64(s.fetchReadyAt)
	w.Bool(s.fetchFaulted)
	w.U32(s.textBase)

	w.Int(len(s.iq))
	for i := range s.iq {
		e := &s.iq[i]
		w.U64(e.seq)
		w.I32(e.slot)
		w.U8(e.srcs[0])
		w.U8(e.srcs[1])
		w.U8(e.srcs[2])
	}
	w.Int(len(s.inflight))
	for i := range s.inflight {
		e := &s.inflight[i]
		w.U64(e.seq)
		w.U64(e.doneCycle)
		w.I32(e.slot)
		w.U32(e.val)
		w.U32(e.brPC)
		w.U32(e.actualNext)
		w.U8(e.destPhys)
		w.Bool(e.isBranch)
		w.Bool(e.isCond)
		w.Bool(e.isInd)
		w.Bool(e.taken)
	}
	w.Int(len(s.pending))
	for i := range s.pending {
		w.U64(s.pending[i].seq)
		w.I32(s.pending[i].slot)
	}
	w.Int(len(s.sq))
	for _, v := range s.sq {
		w.I32(v)
	}
	w.Int(s.sqHead)
	w.Int(s.lqCount)
	w.Int(s.sqCount)

	for _, v := range s.pred.bimodal {
		w.U8(v)
	}
	for _, v := range s.pred.btbTag {
		w.U32(v)
	}
	for _, v := range s.pred.btbTgt {
		w.U32(v)
	}
	for _, v := range s.pred.btbOK {
		w.Bool(v)
	}

	w.U64(s.cycle)
	w.U64(s.lastCommit)
	w.U8(uint8(s.stopped))
	w.U32(s.stopPC)
	w.U32(s.stopAddr)
	w.U64(s.committed)
	w.U64(s.mispredicts)
	w.U64(s.squashes)
}

// DecodeSnapshotWire reads a core snapshot encoded by EncodeWire. The
// returned snapshot has no predecoded text: BindText must attach one
// before the snapshot is restored into a machine.
func DecodeSnapshotWire(r *wire.Reader) (*Snapshot, error) {
	s := &Snapshot{}
	var err error
	if s.rf, err = decodeRegFileWire(r); err != nil {
		return nil, err
	}
	for i := range s.renameMap {
		s.renameMap[i] = r.U8()
	}
	for i := range s.archMap {
		s.archMap[i] = r.U8()
	}
	s.freeList = r.Blob()

	n, err := wireLen(r, 55)
	if err != nil {
		return nil, err
	}
	s.rob = make([]robEntry, n)
	for i := range s.rob {
		decodeROBEntry(r, &s.rob[i])
	}
	s.robHead = r.Int()
	s.robCount = r.Int()
	s.seqNext = r.U64()

	s.fetchPC = r.U32()
	if n, err = wireLen(r, 21); err != nil {
		return nil, err
	}
	s.fetchQ = make([]fetchedInst, n)
	for i := range s.fetchQ {
		f := &s.fetchQ[i]
		f.pc = r.U32()
		f.predNext = r.U32()
		f.excAddr = r.U32()
		f.raw = r.U32()
		f.preIdx = r.I32()
		f.exc = excKind(r.U8())
	}
	s.fqHead = r.Int()
	s.fetchReadyAt = r.U64()
	s.fetchFaulted = r.Bool()
	s.textBase = r.U32()

	if n, err = wireLen(r, 15); err != nil {
		return nil, err
	}
	s.iq = make([]iqEntry, n)
	for i := range s.iq {
		e := &s.iq[i]
		e.seq = r.U64()
		e.slot = r.I32()
		e.srcs[0] = r.U8()
		e.srcs[1] = r.U8()
		e.srcs[2] = r.U8()
	}
	if n, err = wireLen(r, 37); err != nil {
		return nil, err
	}
	s.inflight = make([]wbEntry, n)
	for i := range s.inflight {
		e := &s.inflight[i]
		e.seq = r.U64()
		e.doneCycle = r.U64()
		e.slot = r.I32()
		e.val = r.U32()
		e.brPC = r.U32()
		e.actualNext = r.U32()
		e.destPhys = r.U8()
		e.isBranch = r.Bool()
		e.isCond = r.Bool()
		e.isInd = r.Bool()
		e.taken = r.Bool()
	}
	if n, err = wireLen(r, 12); err != nil {
		return nil, err
	}
	s.pending = make([]pendingLoad, n)
	for i := range s.pending {
		s.pending[i].seq = r.U64()
		s.pending[i].slot = r.I32()
	}
	if n, err = wireLen(r, 4); err != nil {
		return nil, err
	}
	s.sq = make([]int32, n)
	for i := range s.sq {
		s.sq[i] = r.I32()
	}
	s.sqHead = r.Int()
	s.lqCount = r.Int()
	s.sqCount = r.Int()

	for i := range s.pred.bimodal {
		s.pred.bimodal[i] = r.U8()
	}
	for i := range s.pred.btbTag {
		s.pred.btbTag[i] = r.U32()
	}
	for i := range s.pred.btbTgt {
		s.pred.btbTgt[i] = r.U32()
	}
	for i := range s.pred.btbOK {
		s.pred.btbOK[i] = r.Bool()
	}

	s.cycle = r.U64()
	s.lastCommit = r.U64()
	s.stopped = StopKind(r.U8())
	s.stopPC = r.U32()
	s.stopAddr = r.U32()
	s.committed = r.U64()
	s.mispredicts = r.U64()
	s.squashes = r.U64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

// BindText attaches the predecoded text of a live core to a decoded
// snapshot. The core must have installed the same program image the
// snapshot was taken under (the artifact layer guarantees this by hashing
// the compiled image into the artifact key); mismatched text bases mean a
// different image and are rejected.
func (s *Snapshot) BindText(c *Core) error {
	if c.textBase != s.textBase {
		return fmt.Errorf("cpu: snapshot text base %#x does not match core text base %#x",
			s.textBase, c.textBase)
	}
	s.pretext = c.pretext
	return nil
}
