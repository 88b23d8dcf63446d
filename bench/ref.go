package main

import (
	"sync"
	"time"
)

// The reference kernel is the benchmark's yardstick for how fast this box is
// running right now. It is frozen: it imports nothing from the repository, and
// TestRefChecksum pins its output, because every calibrated metric of every
// later run is divided by its rate. Do not optimise it.
//
// One iteration: xorshift64 picks a word of a shared 1 MiB table, 8-byte
// FNV-1a hashes the word, and the word is stored into a private 1024-entry
// table at the hash. The working set stays cache-resident on purpose: a 16 MB
// table over-corrected (log-log slope 0.42 against facade-locate throughput),
// 1 MiB tracked (0.75). The private table is an array, not the
// map[uint64]uint64 the issue sketched: two maps' headers land on one cache
// line and every store toggles the header's writing flag, so the map variant
// read anywhere from 1.0e7 to 5.0e7 per second on the same quiet box, by
// allocation layout; the array variant stays within 3%.

// refNominal is the reference rate per goroutine, in iterations per second,
// on this repository's quiet 2-vCPU box. It only sets the scale, so that
// calibrated numbers read as real ops/s there.
const refNominal = 96.0e6

const (
	refTableWords = 1 << 17 // 1 MiB of uint64
	refSlots      = 1 << 10
	refBatch      = 4096 // iterations between clock reads
)

var refTable = func() []uint64 {
	t := make([]uint64, refTableWords)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range t {
		// splitmix64
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		t[i] = z ^ (z >> 31)
	}
	return t
}()

// refState is one goroutine's private half of the kernel; the padding keeps
// two states off each other's cache lines.
type refState struct {
	_     [64]byte
	x     uint64
	sum   uint64
	slots [refSlots]uint64
	_     [64]byte
}

func newRefState(id int) *refState {
	return &refState{x: 0x2545f4914f6cdd1d + uint64(id)*0x9e3779b97f4a7c15}
}

func (s *refState) run(iters int) {
	x, sum := s.x, s.sum
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v := refTable[x&(refTableWords-1)]
		h := uint64(0xcbf29ce484222325)
		for b := 0; b < 8; b++ {
			h ^= (v >> (8 * b)) & 0xff
			h *= 0x100000001b3
		}
		s.slots[h&(refSlots-1)] = v
		sum += h
	}
	s.x, s.sum = x, sum
}

// refSample runs the kernel on every state's own goroutine for about d and
// returns the mean rate per goroutine in iterations per second.
func refSample(states []*refState, d time.Duration) float64 {
	rates := make([]float64, len(states))
	var wg sync.WaitGroup
	for i, s := range states {
		wg.Add(1)
		go func(i int, s *refState) {
			defer wg.Done()
			start := time.Now()
			iters := 0
			for {
				s.run(refBatch)
				iters += refBatch
				if el := time.Since(start); el >= d {
					rates[i] = float64(iters) / el.Seconds()
					return
				}
			}
		}(i, s)
	}
	wg.Wait()
	total := 0.0
	for _, r := range rates {
		total += r
	}
	return total / float64(len(rates))
}
