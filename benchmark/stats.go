package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count); NaN for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailBeyond is how many samples must lie beyond a percentile before
// it is reported (choosing-metrics §1).
const tailBeyond = 10

// tail returns the 90th percentile of xs when at least tailBeyond
// samples lie beyond it. A sample too small for that has no
// reportable tail: the maximum of a handful of ops swings by more than
// any bound worth setting, so the median stands in, and the label says
// so — a reader never mistakes a p50 of five for a p90.
func tail(xs []float64) (v float64, label string) {
	if len(xs) == 0 {
		return math.NaN(), "empty"
	}
	s := sorted(xs)
	// Nearest-rank p90: the smallest value with at least 90 % of the
	// sample at or below it.
	rank := int(math.Ceil(0.9 * float64(len(s))))
	if len(s)-rank >= tailBeyond {
		return s[rank-1], "p90"
	}
	return median(s), "p50"
}

// quartileSpread is the distance between the first and third quartile
// of xs as a share of their median — the run-to-run spread the
// benchmark contract is judged by. Quartiles follow Python's
// statistics.quantiles(xs, n=4) (the exclusive method), so the number
// printed here is the number the driver computes. Fewer than two
// samples have no spread.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sorted(xs)
	q := func(k int) float64 { // k-th of 4 quantiles, exclusive method
		n := len(s)
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs((q(3) - q(1)) / med)
}

// Verdicts of a two-sided comparison of one metric on one workload.
const (
	verdictWithin     = "within-bound"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// verdict compares the medians of two sets of runs of one metric.
// worse is the share by which b's median is worse than a's (positive =
// worse, in the metric's own direction). The comparison is unresolved
// when either side's own quartile spread exceeds the bound — the noise
// is then wider than what the bound could detect — unless every run of
// b reads better than every run of a.
func verdict(a, b []float64, lowerIsBetter bool, bound float64) (worse float64, v string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / math.Abs(ma)
	}
	if !lowerIsBetter {
		worse = -worse
	}
	if math.Max(quartileSpread(a), quartileSpread(b)) > bound && !allBetter(a, b, lowerIsBetter) {
		return worse, verdictUnresolved
	}
	if worse > bound {
		return worse, verdictRegressed
	}
	return worse, verdictWithin
}

// allBetter reports whether every value of b is better than every
// value of a.
func allBetter(a, b []float64, lowerIsBetter bool) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	sa, sb := sorted(a), sorted(b)
	if lowerIsBetter {
		return sb[len(sb)-1] < sa[0]
	}
	return sb[0] > sa[len(sa)-1]
}
