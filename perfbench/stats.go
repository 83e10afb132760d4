package main

import "sort"

// dist summarises repeated timings of one quantity: the median, the
// tail percentile defined by tailOf, and the sample count.
type dist struct {
	N    int
	P50  float64
	Tail float64
	// Rank is the tail's percentile rank (0-100); 0 when N is too small
	// for any percentile to have ten samples beyond it.
	Rank float64
}

// sortedCopy returns xs sorted ascending without touching the caller's
// slice.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailOf returns the highest percentile of xs that still has at least
// ten samples beyond it, with its percentile rank: in ascending order
// that is the sample with exactly ten larger ones, s[n-11], whose rank
// is the share of samples at or below it, 100*(n-10)/n. With ten or
// fewer samples no percentile qualifies and ok is false.
func tailOf(xs []float64) (v, rank float64, ok bool) {
	n := len(xs)
	if n < 11 {
		return 0, 0, false
	}
	s := sortedCopy(xs)
	return s[n-11], 100 * float64(n-10) / float64(n), true
}

// summarize builds the dist of xs.
func summarize(xs []float64) dist {
	d := dist{N: len(xs), P50: median(xs)}
	d.Tail, d.Rank, _ = tailOf(xs)
	return d
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
