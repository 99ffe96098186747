package tlb

import (
	"fmt"

	"mbusim/internal/wire"
)

// EncodeWire appends the snapshot's complete state to w in the artifact
// wire format (field order versioned by sim.SnapshotFormat).
func (s *Snapshot) EncodeWire(w *wire.Writer) {
	w.Int(len(s.entries))
	for _, e := range s.entries {
		w.U32(e)
	}
	w.Int(s.nextRR)
	w.Int(s.mru)
	w.U64(s.hits)
	w.U64(s.missCount)
}

// maxWireEntries bounds the entry count a decoded TLB snapshot may claim.
const maxWireEntries = 1 << 16

// DecodeSnapshotWire reads a snapshot encoded by EncodeWire.
func DecodeSnapshotWire(r *wire.Reader) (*Snapshot, error) {
	n := r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n < 0 || n > maxWireEntries || !r.Fits(n, 4) {
		return nil, fmt.Errorf("tlb: snapshot entry count %d out of range", n)
	}
	s := &Snapshot{entries: make([]uint32, n)}
	for i := range s.entries {
		s.entries[i] = r.U32()
	}
	s.nextRR = r.Int()
	s.mru = r.Int()
	s.hits = r.U64()
	s.missCount = r.U64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	return s, nil
}
