package main

import (
	"runtime"
	"sync"
	"time"
)

// tally is what a run accumulates about the ops it issued.
type tally struct {
	ops, failed, missed    uint64 // failed: wrong answers and errors; missed: clean misses of a live object
	locates, hops          uint64 // successful locates and their application-level hops
	locateMsgs             uint64 // messages those locates sent
	publishes, publishMsgs uint64
	dist, optimal          float64
}

func (t *tally) add(o tally) {
	t.ops += o.ops
	t.failed += o.failed
	t.missed += o.missed
	t.locates += o.locates
	t.hops += o.hops
	t.locateMsgs += o.locateMsgs
	t.publishes += o.publishes
	t.publishMsgs += o.publishMsgs
	t.dist += o.dist
	t.optimal += o.optimal
}

// found counts one successful locate.
func (t *tally) found(r locateResult) {
	t.locates++
	t.hops += uint64(r.hops)
	t.locateMsgs += uint64(r.msgs)
	t.dist += r.dist
}

// client is one closed-loop requester replaying its own schedule.
type client struct {
	d     driver
	w     *world
	sched *schedule
	done  uint64 // ops issued since the start; the replay position is done % len
	t     tally
	lat   hist // locate latencies of the current timed slice
	open  op   // the publish not yet undone, if its kind says so
}

// settle withdraws the private name the client still has published, so the
// mesh is left as set-up built it.
func (c *client) settle() {
	if c.open.kind == opPublish {
		c.do(op{opUnpublish, c.open.slot, c.open.obj})
	}
}

// do issues one op, checks it against the oracle and keeps the oracle true.
func (c *client) do(e op) {
	c.t.ops++
	ok := true
	switch e.kind {
	case opLocate, opLocatePrivate:
		r := c.d.locate(e.slot, e.obj)
		ok = c.w.verify(e.obj, r)
		if ok && r.found {
			c.t.found(r)
		}
	case opPublish:
		msgs, err := c.d.publish(e.slot, e.obj)
		if ok = err == nil; ok {
			c.w.published(e.slot, e.obj, false)
			c.open = e
			c.t.publishes++
			c.t.publishMsgs += uint64(msgs)
		}
	case opUnpublish:
		if ok = c.d.unpublish(e.slot, e.obj) == nil; ok {
			c.w.unpublished(e.obj)
			c.open = op{}
		}
	}
	if !ok {
		c.t.failed++
	}
}

// run replays the schedule for about d (or exactly count ops when count > 0)
// and returns the seconds it took. Untimed, it reads the clock once per
// opBatch ops; timed, around every op, feeding locate latencies into lat.
func (c *client) run(d time.Duration, count int, timed bool) float64 {
	n := uint64(len(c.sched.ops))
	from := c.done
	start := time.Now()
	for {
		batch := opBatch
		if count > 0 && count < batch {
			batch = count
		}
		for i := 0; i < batch; i++ {
			e := c.sched.ops[c.done%n]
			c.done++
			if !timed {
				c.do(e)
				continue
			}
			t0 := time.Now()
			c.do(e)
			if e.kind == opLocate {
				c.lat.add(int64(time.Since(t0)))
			}
		}
		if count > 0 {
			if count -= batch; count == 0 {
				break
			}
		} else if time.Since(start) >= d {
			break
		}
	}
	el := time.Since(start).Seconds()
	c.t.optimal += c.sched.optimalBetween(from, c.done)
	return el
}

// slice is one measured interval of a cycle.
type slice struct {
	ops     uint64
	rate    float64 // ops/s, summed over clients, each over its own elapsed time
	mallocs uint64
	bytes   uint64
	msgs    int64
	cpu     float64 // process CPU seconds
}

// meter runs one slice of work between readings of the process's counters.
func meter(d driver, run func() (ops uint64, rate float64, err error)) (slice, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	msgs, cpu := d.messages(), cpuSeconds()
	ops, rate, err := run()
	s := slice{ops: ops, rate: rate, msgs: d.messages() - msgs, cpu: cpuSeconds() - cpu}
	runtime.ReadMemStats(&after)
	s.mallocs, s.bytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	return s, err
}

// runSlice runs every client for d and reports the slice. The tallies stay in
// the clients.
func runSlice(cs []*client, d time.Duration, timed bool) slice {
	for _, c := range cs {
		c.lat.reset()
	}
	s, _ := meter(cs[0].d, func() (ops uint64, rate float64, _ error) {
		opsBefore := make([]uint64, len(cs))
		secs := make([]float64, len(cs))
		var wg sync.WaitGroup
		for i, c := range cs {
			opsBefore[i] = c.t.ops
			wg.Add(1)
			go func(i int, c *client) {
				defer wg.Done()
				secs[i] = c.run(d, 0, timed)
			}(i, c)
		}
		wg.Wait()
		for i, c := range cs {
			n := c.t.ops - opsBefore[i]
			ops += n
			rate += float64(n) / secs[i]
		}
		return ops, rate, nil
	})
	return s
}
