package mem

import (
	"fmt"

	"mbusim/internal/wire"
)

// EncodeWire appends the snapshot's complete state to w in the artifact
// wire format. The field order here and in DecodeSnapshotWire is part of
// the artifact format and is versioned by sim.SnapshotFormat; changing it
// requires bumping that constant.
func (s *Snapshot) EncodeWire(w *wire.Writer) {
	w.U32(s.size)
	w.Int(s.latency)
	w.U32(s.highWater)
	w.Int(len(s.chunks))
	for _, c := range s.chunks {
		w.U32(c)
	}
	w.Blob(s.data)
}

// DecodeSnapshotWire reads a snapshot encoded by EncodeWire. Structural
// inconsistencies (a chunk count that cannot match the stored payload)
// fail here; byte-level corruption is caught by the artifact's content
// hash before decoding starts.
func DecodeSnapshotWire(r *wire.Reader) (*Snapshot, error) {
	s := &Snapshot{
		size:      r.U32(),
		latency:   r.Int(),
		highWater: r.U32(),
	}
	n := r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n < 0 || n > int(s.size)/snapChunk+1 || !r.Fits(n, 4) {
		return nil, fmt.Errorf("mem: snapshot chunk count %d out of range for %d-byte RAM", n, s.size)
	}
	if n > 0 {
		s.chunks = make([]uint32, n)
		for i := range s.chunks {
			s.chunks[i] = r.U32()
		}
	}
	s.data = r.Blob()
	if err := r.Err(); err != nil {
		return nil, err
	}
	return s, nil
}
