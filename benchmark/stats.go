package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "inclusive" method); NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail returns the nearest-rank q-quantile: the smallest sample with at
// least a share q of the sample at or below it. Unlike quantile it
// never invents a value between two latencies.
func tail(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// lowerDecile is the nearest-rank 10th percentile. Every timing here is
// taken over many short samples — iterations, jobs — and summarised by
// it: on a shared host the noise only ever adds time, in bursts that
// hit most samples in a bad minute and few in a good one, so the mean
// and the median drift with the neighbours while the lower decile stays
// near what the code costs when it is left alone.
func lowerDecile(xs []float64) float64 { return tail(xs, 0.1) }

// summary is one metric over a run's repetitions. Value is what the run
// reports: the smallest repetition of a lower-is-better metric, the
// largest of a higher-is-better one — the same reasoning one level up —
// except that a peak is the largest repetition whichever way is better.
type summary struct {
	Value  float64   `json:"value"`
	Min    float64   `json:"min"`
	Median float64   `json:"median"`
	Max    float64   `json:"max"`
	Values []float64 `json:"values"`
}

func summarize(xs []float64, m metricDef) summary {
	s := summary{Min: quantile(xs, 0), Median: median(xs), Max: quantile(xs, 1), Values: xs}
	s.Value = s.Min
	if m.better == "higher" || m.peak {
		s.Value = s.Max
	}
	return s
}

// spread is the interquartile range of the repetitions as a share of
// their median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (quantile(s.Values, 0.75) - quantile(s.Values, 0.25)) / math.Abs(s.Median)
}
