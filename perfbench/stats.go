package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that still has at least
// ten samples above it, the percentile's rank and the sample count.
// Below 21 samples that percentile would not lie above the median, so
// it returns the maximum instead, labelled p100.
func tail(xs []float64) (value, pct float64, n int) {
	n = len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n < 21 {
		return s[n-1], 100, n
	}
	k := n - 11 // s[k] has exactly ten samples after it
	return s[k], 100 * float64(k+1) / float64(n), n
}

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// maxOf returns the largest element of xs (0 when empty).
func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// metric is one reported number: its value, unit, sample count, and an
// optional note saying how it was derived (e.g. which percentile).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"samples"`
	Note  string  `json:"note,omitempty"`
}

func (m metric) String() string {
	s := fmt.Sprintf("%.6g %s (n=%d)", m.Value, m.Unit, m.N)
	if m.Note != "" {
		s += " " + m.Note
	}
	return s
}
