package main

import "math/bits"

// hist is a fixed log-bucket histogram of nanosecond durations: 64 buckets
// per octave (1.1% wide), no allocation on add. Quantiles interpolate inside
// the bucket, so two runs do not snap to the same bucket edge.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	histOctaves = 36 // values up to 2^41 ns, about 37 minutes
	histBuckets = histSub * (histOctaves + 1)
)

// bucketOf maps v to its bucket; bucketLow is the inverse on bucket starts.
func bucketOf(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) - 1 - histSubBits // v>>e lies in [histSub, 2*histSub)
	b := (e+1)*histSub + int(v>>uint(e)) - histSub
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

func bucketLow(b int) uint64 {
	if b < histSub {
		return uint64(b)
	}
	e := b/histSub - 1
	return uint64(histSub+b%histSub) << uint(e)
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(uint64(ns))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

func (h *hist) reset() { *h = hist{} }

// quantile returns the q-quantile in nanoseconds (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	seen := 0.0
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) > rank {
			lo, hi := float64(bucketLow(b)), float64(bucketLow(b+1))
			return lo + (hi-lo)*(rank-seen+0.5)/float64(c)
		}
		seen += float64(c)
	}
	return float64(bucketLow(histBuckets - 1))
}
