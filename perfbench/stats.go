package main

import (
	"hash/fnv"
	"math"
	"runtime/metrics"
	"slices"
	"strconv"
	"time"

	"loom"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place), or 0 when xs is empty — a layer
// the workload left idle.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean returns the arithmetic mean of xs, or 0 when xs is empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// assignmentHash is FNV-64a over "v:p;" for every vertex in vertices (sorted
// ascending), and the number of them the snapshot has placed. Two
// partitioners that place every vertex identically hash identically.
func assignmentHash(s *loom.Snapshot, vertices []int64) (uint64, int) {
	return hashPlacements(s.PartitionOf, vertices)
}

// hashPlacements is assignmentHash over any vertex → partition lookup.
func hashPlacements(partOf func(int64) (int, bool), vertices []int64) (uint64, int) {
	h := fnv.New64a()
	var buf []byte
	placed := 0
	for _, v := range vertices {
		p, ok := partOf(v)
		if !ok {
			p = -1
		} else {
			placed++
		}
		buf = strconv.AppendInt(buf[:0], v, 10)
		buf = append(buf, ':')
		buf = strconv.AppendInt(buf, int64(p), 10)
		buf = append(buf, ';')
		h.Write(buf)
	}
	return h.Sum64(), placed
}

// histDelta samples a runtime/metrics histogram; sub turns two samples into
// the histogram of what happened in between.
type histDelta struct {
	counts []uint64
	bounds []float64
}

func sampleHist(name string) histDelta {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64Histogram {
		return histDelta{}
	}
	h := s[0].Value.Float64Histogram()
	return histDelta{counts: slices.Clone(h.Counts), bounds: slices.Clone(h.Buckets)}
}

// quantileSince returns the q-quantile (bucket upper bound, or the lower
// bound of an unbounded top bucket) of the events recorded since before.
func (h histDelta) quantileSince(before histDelta, q float64) float64 {
	if len(h.counts) == 0 || len(before.counts) != len(h.counts) {
		return 0
	}
	var total uint64
	d := make([]uint64, len(h.counts))
	for i := range h.counts {
		d[i] = h.counts[i] - before.counts[i]
		total += d[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range d {
		seen += c
		if seen >= want {
			if hi := h.bounds[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return h.bounds[i]
		}
	}
	return h.bounds[len(h.bounds)-1]
}
