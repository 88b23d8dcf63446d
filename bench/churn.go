package main

import (
	"fmt"
	"math/rand"
	"time"
)

// churner drives the churn-maint script: one goroutine, so every count
// repeats exactly for a given world and seed. Membership ops serialise on the
// overlay adapter's lock anyway.
//
// One epoch: joinsPerEpoch joins through random gateways, each joiner
// publishing objsPerJoiner new objects; leavesPerEpoch graceful leaves;
// failsPerEpoch silent failures; probesPerPhase verified locates before any
// repair; RunMaintenance (heartbeat sweep, then soft-state republish);
// probesPerPhase verified locates after it. Victims and join points come from
// the world stream, probes from the run's seed. Objects whose holder departed
// leave the probe set.
//
// The script does not call Network.SweepFailures: on a statically built
// facade network that call is a no-op today (the facade keeps the mesh handle
// it took before Build replaced the mesh), and RunMaintenance sweeps through
// the adapter's live mesh either way.
type churner struct {
	w     *world
	d     driver
	probe *rand.Rand
	epoch int
	t     tally
	lat   *hist // when set, every probe locate is timed into it

	pre, preOK, post, postOK uint64
	joinMsgs, leaveMsgs      []float64 // per call, for the traced run
}

func (c *churner) runEpoch() error {
	w := c.w
	c.epoch++
	for j := 0; j < joinsPerEpoch; j++ {
		addr := w.freePoint()
		msgs, err := c.d.join(addr)
		if err != nil {
			return fmt.Errorf("epoch %d: join at %d: %w", c.epoch, addr, err)
		}
		c.joinMsgs = append(c.joinMsgs, float64(msgs))
		slot := w.admit(addr)
		c.t.ops++
		for k := 0; k < objsPerJoiner; k++ {
			obj := w.newObject(fmt.Sprintf("born-%d", len(w.names)))
			msgs, err := c.d.publish(slot, obj)
			if err != nil {
				return fmt.Errorf("epoch %d: publish %s: %w", c.epoch, w.names[obj], err)
			}
			w.published(slot, obj, true)
			c.t.ops++
			c.t.publishes++
			c.t.publishMsgs += uint64(msgs)
		}
	}
	for i := 0; i < leavesPerEpoch; i++ {
		slot := w.live[w.rng.Intn(len(w.live))]
		msgs, err := c.d.leave(slot)
		if err != nil {
			return fmt.Errorf("epoch %d: leave of slot %d: %w", c.epoch, slot, err)
		}
		c.leaveMsgs = append(c.leaveMsgs, float64(msgs))
		w.depart(slot)
		c.t.ops++
	}
	for i := 0; i < failsPerEpoch; i++ {
		slot := w.live[w.rng.Intn(len(w.live))]
		c.d.fail(slot)
		w.depart(slot)
		c.t.ops++
	}
	ok := c.probes()
	c.pre, c.preOK = c.pre+probesPerPhase, c.preOK+ok
	c.d.maintain()
	c.t.ops++
	ok = c.probes()
	c.post, c.postOK = c.post+probesPerPhase, c.postOK+ok
	return nil
}

// probes issues one phase of verified locates and returns how many found
// their object at its holder. A clean miss is the availability the workload
// measures, before repair and after it: on an aged mesh a handful of objects
// in a million probes stay unfound even after the sweep and the republish
// (the first appear some 180 epochs in). An answer that names a node which
// does not hold the object is a failure.
func (c *churner) probes() (ok uint64) {
	w := c.w
	for i := 0; i < probesPerPhase; i++ {
		slot := w.live[c.probe.Intn(len(w.live))]
		obj := w.liveObjs[c.probe.Intn(len(w.liveObjs))]
		var t0 time.Time
		if c.lat != nil {
			t0 = time.Now()
		}
		r := c.d.locate(slot, obj)
		if c.lat != nil {
			c.lat.add(int64(time.Since(t0)))
		}
		c.t.ops++
		switch {
		case !r.found:
			c.t.missed++
		case !w.verify(obj, r):
			c.t.failed++
		default:
			ok++
			c.t.found(r)
			c.t.optimal += w.space.Distance(int(w.addrOf[slot]), int(w.holder[obj]))
		}
	}
	return ok
}
