package main

import (
	"math"
	"sort"
)

// The quiet gate: a cycle counts only if the box ran at its quiet speed
// throughout. The quiet level is the 80th percentile of every reference
// sample of the run, warm-up and set-up included; a cycle is accepted iff all
// three of its reference samples are within gateTolerance of that level. A
// 60 ms sample of the kernel is itself good to about 5%, so a tighter gate
// mostly rejects on the yardstick's own noise: over 90 recorded runs 10%
// accepted 43% of the cycles and flagged 58% of the runs noisy, 15% accepts
// 63% and flags 30%, and the medians spread the same.
const gateTolerance = 0.15

// A run with fewer than this share of its cycles accepted is flagged noisy.
const gateMinAcceptedShare = 0.5

func quantileOf(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (s[i+1]-s[i])*(pos-float64(i))
}

func median(values []float64) float64 { return quantileOf(values, 0.5) }

// gateCycles reports which cycles are accepted and whether the run is noisy.
// refs[i] holds cycle i's three reference rates; all holds every reference
// rate the run sampled.
func gateCycles(all []float64, refs [][3]float64) (accepted []bool, quiet float64, noisy bool) {
	quiet = quantileOf(all, 0.8)
	accepted = make([]bool, len(refs))
	n := 0
	for i, r := range refs {
		ok := true
		for _, v := range r {
			if math.Abs(v-quiet) > gateTolerance*quiet {
				ok = false
			}
		}
		accepted[i] = ok
		if ok {
			n++
		}
	}
	noisy = float64(n) < gateMinAcceptedShare*float64(len(refs))
	return accepted, quiet, noisy
}

// acceptedMedian is the median of values over accepted cycles; a run with
// fewer than three accepted cycles falls back to all of them (it is already
// flagged noisy).
func acceptedMedian(values []float64, accepted []bool) float64 {
	var kept []float64
	for i, v := range values {
		if accepted[i] {
			kept = append(kept, v)
		}
	}
	if len(kept) < 3 {
		kept = values
	}
	return median(kept)
}
