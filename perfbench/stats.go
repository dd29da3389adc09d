package main

import (
	"math"
	"slices"

	"ode"
)

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// tailPercentile picks the percentile to report for a tail metric that
// asks for want (e.g. 99): the highest of want and the fallbacks below
// it that leaves at least minBeyond of n samples above its rank. ok is
// false when not even the median qualifies.
func tailPercentile(n int, want float64) (pct float64, ok bool) {
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		if p <= want && n-rank(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// rank is the 1-based nearest-rank position of percentile p in n samples.
func rank(n int, p float64) int {
	// The epsilon keeps float error from pushing an exact rank (p99.9 of
	// 100000 samples is 99900) up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	return max(1, min(r, n))
}

// dist is a set of latency samples in nanoseconds.
type dist []int64

// at returns the nearest-rank percentile p of the sorted samples in
// microseconds; 0 for no samples.
func (d dist) at(p float64) float64 {
	if len(d) == 0 {
		return 0
	}
	return float64(d[rank(len(d), p)-1]) / 1e3
}

// summary is a median and a tail percentile with its sample count.
type summary struct {
	P50, Tail float64 // microseconds
	TailPct   float64 // the percentile Tail reports (99 unless too few samples)
	N         int
}

func summarize(d dist) summary {
	slices.Sort(d)
	s := summary{N: len(d), P50: d.at(50)}
	if pct, ok := tailPercentile(len(d), 99); ok {
		s.Tail, s.TailPct = d.at(pct), pct
	}
	return s
}

// subWindows is how many equal parts a timed window is split into. Each
// end-to-end figure is the median of its values over the parts, so that a
// burst of outside load (other tenants' disk or CPU use) during one part
// moves it less.
const subWindows = 5

// partsSummary is the median over sub-windows of each sub-window's
// median and tail percentile. Every sub-window uses the same tail
// percentile: the highest that leaves ten samples beyond it in the
// smallest one.
type partsSummary struct {
	P50, Tail   float64 // microseconds
	P50s, Tails []float64
	TailPct     float64
	Beyond      int // samples beyond the tail in the smallest sub-window
	N           int // samples in all sub-windows
}

func summarizeParts(parts []dist) partsSummary {
	var ps partsSummary
	smallest := -1
	for _, d := range parts {
		ps.N += len(d)
		if smallest < 0 || len(d) < smallest {
			smallest = len(d)
		}
	}
	pct, ok := tailPercentile(smallest, 99)
	if ok {
		ps.TailPct, ps.Beyond = pct, smallest-rank(smallest, pct)
	}
	for _, d := range parts {
		slices.Sort(d)
		ps.P50s = append(ps.P50s, d.at(50))
		if ok {
			ps.Tails = append(ps.Tails, d.at(pct))
		}
	}
	ps.P50, ps.Tail = medianOf(ps.P50s), medianOf(ps.Tails)
	return ps
}

// medianOf returns the median of xs (the mean of the middle two for an
// even count), leaving xs unchanged; 0 for none.
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// histDelta is the part of an engine histogram recorded between two
// snapshots. Max keeps the later snapshot's value, so quantiles in the
// top bucket are clamped to the all-time maximum.
func histDelta(after, before ode.HistSnapshot) ode.HistSnapshot {
	d := after
	for i := range d.Counts {
		d.Counts[i] -= before.Counts[i]
	}
	d.Count -= before.Count
	d.Sum -= before.Sum
	return d
}

func histUS(h ode.HistSnapshot, q float64) float64 { return float64(h.Quantile(q)) / 1e3 }
