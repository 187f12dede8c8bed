package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call. Spans of one batch or request share its id.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int32  `json:"parent"` // index into the same tracer's spans; -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// layerOf is a span name's first dot-separated component: the layer the
// call went into ("loom", "wal", "http", "harness", ...).
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// tracer records the spans of one goroutine in memory. Spans are written
// out only when the run ends. A nil tracer records nothing, so untraced
// code paths call it unconditionally.
type tracer struct {
	name  string
	base  time.Time
	spans []span
	open  []int32 // stack of spans begun but not ended
}

func newTracer(name string, base time.Time) *tracer {
	return &tracer{name: name, base: base, spans: make([]span, 0, 1<<12)}
}

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string, id int64) {
	if t == nil {
		return
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: int64(time.Since(t.base))})
	t.open = append(t.open, int32(len(t.spans)-1))
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() time.Duration {
	if t == nil {
		return 0
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = int64(time.Since(t.base))
	return time.Duration(t.spans[i].dur())
}

// spanTotals is the per-name sum of span durations and self times.
type spanTotals struct {
	count int
	total time.Duration
	self  time.Duration
}

// analyse computes every span's self time (its duration minus its
// children's) and checks the span arithmetic: every span is closed, no
// child lies outside its parent, and no self time is negative. It returns
// totals per span name and the self time of root spans, which no layer
// accounts for.
func (t *tracer) analyse() (map[string]spanTotals, time.Duration, error) {
	if len(t.open) != 0 {
		return nil, 0, fmt.Errorf("trace %s: %d spans left open", t.name, len(t.open))
	}
	child := make([]int64, len(t.spans))
	for i, s := range t.spans {
		if s.End < s.Start {
			return nil, 0, fmt.Errorf("trace %s: span %d (%s) ends before it starts", t.name, i, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		p := t.spans[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			return nil, 0, fmt.Errorf("trace %s: span %d (%s) lies outside its parent %s", t.name, i, s.Name, p.Name)
		}
		child[s.Parent] += s.dur()
	}
	out := map[string]spanTotals{}
	var unattributed time.Duration
	for i, s := range t.spans {
		self := s.dur() - child[i]
		if self < 0 {
			return nil, 0, fmt.Errorf("trace %s: span %d (%s) has children longer than itself", t.name, i, s.Name)
		}
		st := out[s.Name]
		st.count++
		st.total += time.Duration(s.dur())
		st.self += time.Duration(self)
		out[s.Name] = st
		if s.Parent < 0 {
			unattributed += time.Duration(self)
		}
	}
	return out, unattributed, nil
}

// writeSpans dumps every tracer's spans as JSON lines, one span a line
// tagged with its tracer's name.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range tracers {
		for _, s := range t.spans {
			if err := enc.Encode(struct {
				Tracer string `json:"tracer"`
				span
			}{t.name, s}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
