package main

import "math/rand"

type opKind uint8

const (
	opLocate        opKind = iota // a static object, Zipf-popular
	opLocatePrivate               // the client's current private name, published or not
	opPublish
	opUnpublish
)

type op struct {
	kind opKind
	slot int32 // the member that issues it
	obj  int32
}

// schedule is one client's request stream, replayed cyclically. It is a pure
// function of (seed, client, world): the program under test sees the ops,
// never the seed.
type schedule struct {
	ops []op
	// optimal[i] is the metric distance from each successful locate's client
	// to the object's holder, summed over ops[:i] — stretch's denominator,
	// kept out of the hot loop.
	optimal []float64
}

// generateSchedule draws n ops. Writes alternate publish and unpublish of the
// client's private names, one outstanding at a time from one member, so the
// outcome of every op is known when it is drawn. The stream is closed every
// window ops (no private name left published), which makes a window
// replayable from its start; window = n closes it once, for the cyclic replay.
func generateSchedule(w *world, seed int64, client, n, window int, m mix) *schedule {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(client)))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(w.sp.objects-1))
	s := &schedule{ops: make([]op, n), optimal: make([]float64, n+1)}
	writes := m.publish + m.unpublish
	name, pubSlot := 0, int32(-1) // pubSlot >= 0 while the current private name is published
	for i := range s.ops {
		slot := int32(rng.Intn(w.sp.nodes))
		u := rng.Float64()
		obj := int32(zipf.Uint64())  // drawn every time, so the kinds do not shift the popularity stream
		closing := (i+1)%window == 0 // a window's last op leaves nothing published
		var e op
		switch {
		case closing && pubSlot >= 0:
			e = op{opUnpublish, pubSlot, w.privateObj(client, name)}
		case u < writes && pubSlot < 0 && !closing:
			e = op{opPublish, slot, w.privateObj(client, name)}
		case u < writes && pubSlot >= 0:
			e = op{opUnpublish, pubSlot, w.privateObj(client, name)}
		case u < writes+m.locatePrivate:
			e = op{opLocatePrivate, slot, w.privateObj(client, name)}
		default:
			e = op{opLocate, slot, obj}
		}
		s.ops[i] = e
		s.optimal[i+1] = s.optimal[i]
		switch e.kind {
		case opPublish:
			pubSlot = e.slot
		case opUnpublish:
			pubSlot = -1
			name = (name + 1) % privateNames
		case opLocatePrivate:
			if pubSlot >= 0 {
				s.optimal[i+1] += w.space.Distance(int(w.addrOf[e.slot]), int(w.addrOf[pubSlot]))
			}
		case opLocate:
			s.optimal[i+1] += w.space.Distance(int(w.addrOf[e.slot]), int(w.holder[e.obj]))
		}
	}
	return s
}

// optimalBetween sums the optimal distances of ops [from, to) of the cyclic
// replay, counted in ops issued since the start.
func (s *schedule) optimalBetween(from, to uint64) float64 {
	n := uint64(len(s.ops))
	at := func(x uint64) float64 { return float64(x/n)*s.optimal[n] + s.optimal[x%n] }
	return at(to) - at(from)
}
