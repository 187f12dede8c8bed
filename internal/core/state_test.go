package core

import (
	"strings"
	"testing"

	"loom/internal/graph"
)

// restoredPair ingests a short stream into one core and returns its
// captured state together with a fresh core whose vertex and label tables
// already hold the first core's — the order a checkpoint restore uses.
func restoredPair(t *testing.T) (State, *Loom) {
	t.Helper()
	cfg := Config{K: 2, Capacity: 100, WindowSize: 8, MaxImbalance: 2.0}
	src := mustLoom(t, cfg, paperTrie(t))
	src.ProcessEdges([]graph.StreamEdge{
		{U: 1, LU: "a", V: 2, LV: "b"},
		{U: 2, LU: "b", V: 3, LV: "c"},
		{U: 3, LU: "c", V: 4, LV: "a"},
	})
	dst := mustLoom(t, cfg, paperTrie(t))
	if err := dst.verts.RestoreIDs(src.verts.IDs()); err != nil {
		t.Fatal(err)
	}
	if err := dst.ltab.RestoreNames(src.ltab.Names()); err != nil {
		t.Fatal(err)
	}
	return src.CaptureState(), dst
}

// TestRestoreStateValidatesLabelCodes: a checkpointed label cache must
// name only codes in the restored label table (or −1, not yet seen) and
// only vertices in the restored vertex table. A bad entry is an error, not
// a state that panics on the next ingested edge.
func TestRestoreStateValidatesLabelCodes(t *testing.T) {
	good, l := restoredPair(t)
	if err := l.RestoreState(good); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
	l.ProcessEdge(graph.StreamEdge{U: 4, LU: "a", V: 5, LV: "b"})

	for _, tc := range []struct {
		name string
		bad  func(s *State, l *Loom)
		want string
	}{
		{"code past the label table", func(s *State, _ *Loom) { s.VLab[0] = 65283 }, "label code 65283"},
		{"code at the table length", func(s *State, l *Loom) { s.VLab[1] = int32(l.ltab.Len()) }, "outside the label table"},
		{"code below -1", func(s *State, _ *Loom) { s.VLab[2] = -2 }, "label code -2"},
		{"more entries than vertices", func(s *State, _ *Loom) { s.VLab = append(s.VLab, -1, -1) }, "vertex table holds"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, l := restoredPair(t)
			s.VLab = append([]int32(nil), s.VLab...)
			tc.bad(&s, l)
			err := l.RestoreState(s)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("RestoreState error = %v, want one containing %q", err, tc.want)
			}
		})
	}
}
