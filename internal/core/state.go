package core

import "fmt"

// State is the checkpointable portion of the Loom core itself: the stream
// statistics and the per-vertex label-code cache. Everything else the core
// holds is either owned by a sub-component with its own state type
// (tracker, window, interning tables) or per-call scratch whose zero value
// is equivalent after restore (the epoch-stamped eviction buffers start at
// epoch 0 exactly as a fresh core does).
//
// VLab must be restored, not lazily refilled: labelCodeOf trusts the cache
// over the label arriving on the wire, so a vertex that returns after
// recovery with a conflicting label must keep resolving to its original
// code for placements to stay bit-identical.
type State struct {
	Stats Stats
	VLab  []int32
}

// CaptureState deep-copies the core's checkpointable state.
func (l *Loom) CaptureState() State {
	return State{Stats: l.stats, VLab: append([]int32(nil), l.vlab...)}
}

// RestoreState loads a captured state into a freshly constructed core. The
// vertex and label tables must be restored first: every VLab entry is
// checked against them, so a corrupt checkpoint fails here instead of
// installing a label code that panics on the next ingested edge.
func (l *Loom) RestoreState(s State) error {
	if l.stats != (Stats{}) {
		return fmt.Errorf("core: RestoreState on a non-fresh Loom (%d edges processed)", l.stats.EdgesProcessed)
	}
	if len(s.VLab) > l.verts.Len() {
		return fmt.Errorf("core: state has label codes for %d vertices but the vertex table holds %d",
			len(s.VLab), l.verts.Len())
	}
	for i, c := range s.VLab {
		if c < -1 || int(c) >= l.ltab.Len() {
			return fmt.Errorf("core: state gives vertex %d label code %d outside the label table (len %d)",
				i, c, l.ltab.Len())
		}
	}
	l.stats = s.Stats
	l.vlab = append(l.vlab[:0], s.VLab...)
	return nil
}
