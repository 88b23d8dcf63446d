package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"tapestry/internal/core"
	"tapestry/internal/ids"
	"tapestry/internal/netsim"
	"tapestry/internal/wire"
)

// perLayer is BENCHMARK.json's per_layer table: what a --trace 1 run reports.
// Layers are this repository's packages. Times are calibrated (raw time times
// the machine factor of the pass they ran in).
var perLayer = []metricDef{
	// tapestry (facade)
	{name: "facade.locate_us", unit: "us", better: "lower"},
	{name: "facade.self_us", unit: "us", better: "lower"},
	{name: "facade.locate_p50_us", unit: "us", better: "lower"},
	{name: "facade.locate_p99_us", unit: "us", better: "lower"},
	{name: "facade.publish_us", unit: "us", better: "lower"},
	{name: "facade.publish_p99_us", unit: "us", better: "lower"},
	{name: "facade.unpublish_us", unit: "us", better: "lower"},
	{name: "facade.join_p50_ms", unit: "ms", better: "lower"},
	{name: "facade.leave_p50_ms", unit: "ms", better: "lower"},
	{name: "facade.sweep_ms", unit: "ms", better: "lower"},
	{name: "facade.maintain_ms", unit: "ms", better: "lower"},
	// overlay
	{name: "overlay.locate_us", unit: "us", better: "lower"},
	{name: "overlay.self_us", unit: "us", better: "lower"},
	// ids
	{name: "ids.hash_ns", unit: "ns", better: "lower"},
	// core, routing
	{name: "core.locate_us", unit: "us", better: "lower"},
	{name: "core.locate_self_us", unit: "us", better: "lower"},
	{name: "core.nexthop_ns", unit: "ns", better: "lower"},
	{name: "core.publish_us", unit: "us", better: "lower"},
	{name: "core.unpublish_us", unit: "us", better: "lower"},
	// core, dynamics
	{name: "core.join_msgs", unit: "1", better: "lower"},
	{name: "core.leave_msgs", unit: "1", better: "lower"},
	{name: "core.sweep_msgs", unit: "1", better: "lower"},
	{name: "core.sweep_allocs", unit: "1", better: "lower"},
	{name: "core.republish_msgs", unit: "1", better: "lower"},
	{name: "core.republish_allocs", unit: "1", better: "lower"},
	{name: "core.nearest_us", unit: "us", better: "lower"},
	{name: "core.links_removed_per_epoch", unit: "1", better: "lower"},
	{name: "avail.prerepair_ok_pct", unit: "%", better: "higher"},
	{name: "avail.postrepair_ok_pct", unit: "%", better: "higher"},
	// core, state
	{name: "core.table_entries_mean", unit: "1", better: "lower"},
	{name: "core.pointers_total", unit: "1", better: "lower"},
	// route
	{name: "route.setview_ns", unit: "ns", better: "lower"},
	// the core.Transport seam
	{name: "transport.invoke_us_per_msg", unit: "us", better: "lower"},
	// wire
	{name: "wire.encode_ns_per_msg", unit: "ns", better: "lower"},
	{name: "wire.decode_ns_per_msg", unit: "ns", better: "lower"},
	{name: "wire.decode_allocs_per_msg", unit: "1", better: "lower"},
	{name: "wire.bytes_per_msg", unit: "B", better: "lower"},
	// netsim
	{name: "netsim.send_ns", unit: "ns", better: "lower"},
	{name: "netsim.msgs_per_locate", unit: "1", better: "lower"},
	{name: "netsim.msgs_per_publish", unit: "1", better: "lower"},
	{name: "netsim.distance_per_locate", unit: "1", better: "lower"},
	// metric
	{name: "metric.distance_ns", unit: "ns", better: "lower"},
	// process
	{name: "proc.raw_ops_per_s", unit: "1/s", better: "higher"},
	{name: "proc.machine_factor", unit: "1", better: "higher"},
	{name: "proc.cycles_rejected", unit: "count", better: "lower"},
	{name: "proc.cpu_us_per_op", unit: "us", better: "lower"},
	{name: "proc.ops_per_s_c1", unit: "1/s", better: "higher"},
	{name: "proc.scaling", unit: "1", better: "higher"},
	{name: "proc.gc_cycles", unit: "count", better: "lower"},
	{name: "proc.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "proc.rss_mb", unit: "MB", better: "lower"},
	// the trace itself
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
	{name: "trace.unattributed_pct", unit: "%", better: "lower"},
}

// Shape of the traced run.
const (
	traceRounds     = 6    // each round: one window in lockstep, two on the facade alone
	traceWindow     = 4096 // ops per window on the in-process transports
	traceWindowTCP  = 1024
	traceSideWindow = 512 // write-only ops, so read-only workloads report publish costs too
	leafBatch       = 256 // calls per standalone leaf timing
	leafBatches     = 64
	procCycles      = 2
)

// traceClient is the extra request stream the traced run replays; the
// clients' own streams stay untouched for the untraced throughput cycles.
const traceClient = maxClients

// lockstep feeds every call to the facade and then to each of its twins, and
// notes the first disagreement: one script, one oracle, several meshes. The
// same-transport twin must agree in everything; the direct twin only in what
// a transport cannot change (TCP handlers do not charge the caller's meter).
type lockstep struct {
	facade, twin, direct driver // direct may be nil
	mismatch             string
}

// disagree notes the first disagreement; callers compare before they format.
func (l *lockstep) disagree(format string, args ...any) {
	if l.mismatch == "" {
		l.mismatch = fmt.Sprintf(format, args...)
	}
}

func (l *lockstep) join(addr int) (int, error) {
	ma, err := l.facade.join(addr)
	if err != nil {
		return ma, err
	}
	mb, err := l.twin.join(addr)
	if ma != mb {
		l.disagree("join at %d: facade sent %d messages, twin %d", addr, ma, mb)
	}
	return ma, err
}

func (l *lockstep) leave(slot int32) (int, error) {
	ma, err := l.facade.leave(slot)
	if err != nil {
		return ma, err
	}
	mb, err := l.twin.leave(slot)
	if ma != mb {
		l.disagree("leave of slot %d: facade sent %d messages, twin %d", slot, ma, mb)
	}
	return ma, err
}

func (l *lockstep) fail(slot int32) { l.facade.fail(slot); l.twin.fail(slot) }

func (l *lockstep) publish(slot, obj int32) (int, error) {
	ma, err := l.facade.publish(slot, obj)
	if err != nil {
		return ma, err
	}
	mb, err := l.twin.publish(slot, obj)
	if ma != mb {
		l.disagree("publish of object %d: facade sent %d messages, twin %d", obj, ma, mb)
	}
	if err == nil && l.direct != nil {
		_, err = l.direct.publish(slot, obj)
	}
	return ma, err
}

func (l *lockstep) unpublish(slot, obj int32) error {
	err := l.facade.unpublish(slot, obj)
	if err == nil {
		err = l.twin.unpublish(slot, obj)
	}
	if err == nil && l.direct != nil {
		err = l.direct.unpublish(slot, obj)
	}
	return err
}

func (l *lockstep) locate(slot, obj int32) locateResult {
	ra, rb := l.facade.locate(slot, obj), l.twin.locate(slot, obj)
	if ra != rb {
		l.disagree("locate of object %d from slot %d: facade %+v, twin %+v", obj, slot, ra, rb)
	}
	if l.direct != nil {
		if rd := l.direct.locate(slot, obj); rd.found != ra.found || rd.server != ra.server || rd.hops != ra.hops {
			l.disagree("locate of object %d from slot %d: facade %+v, direct twin %+v", obj, slot, ra, rd)
		}
	}
	return ra
}

func (l *lockstep) maintain() {
	fa, tw := l.facade.messages(), l.twin.messages()
	l.facade.maintain()
	l.twin.maintain()
	if fa, tw = l.facade.messages()-fa, l.twin.messages()-tw; fa != tw {
		l.disagree("maintain: facade sent %d messages, twin %d", fa, tw)
	}
}

func (l *lockstep) messages() int64 { return l.facade.messages() }

// turns sends the twin's calls to the overlay entry point and to the core
// entry point in turn, kind by kind, numbering each as the facade's traced
// driver numbers its own.
type turns struct {
	driver // membership calls, which the traced passes never make
	at     [2]*tracedDriver
	op     uint32
	byKind [calls]uint32
}

func (a *turns) next(call int) *tracedDriver {
	d := a.at[a.byKind[call]%2]
	a.byKind[call]++
	d.op = a.op
	a.op++
	return d
}

func (a *turns) locate(slot, obj int32) locateResult  { return a.next(callLocate).locate(slot, obj) }
func (a *turns) publish(slot, obj int32) (int, error) { return a.next(callPublish).publish(slot, obj) }
func (a *turns) unpublish(slot, obj int32) error      { return a.next(callUnpublish).unpublish(slot, obj) }

// splitMaintain runs the overlay adapter's Maintain as the two core calls it
// is made of, so the heartbeat sweep and the soft-state republish are timed
// and counted apart.
type splitMaintain struct {
	*overlayDriver
	rec *recorder
	op  *uint32 // the traced wrapper's request counter

	epochs                       int
	sweepMsgs, republishMsgs     int
	sweepAllocs, republishAllocs uint64
	removed                      int
}

func (d *splitMaintain) maintain() {
	var before, mid, after runtime.MemStats
	var sweep, republish netsim.Cost
	runtime.ReadMemStats(&before)
	s := d.rec.now()
	d.removed += d.mesh.SweepDeadAll(&sweep)
	d.rec.add(meshTwin, depthCore, callSweep, *d.op, s)
	runtime.ReadMemStats(&mid)
	s = d.rec.now()
	d.mesh.RunMaintenanceEpoch(&republish)
	d.rec.add(meshTwin, depthCore, callRepublish, *d.op, s)
	runtime.ReadMemStats(&after)
	d.epochs++
	d.sweepMsgs += sweep.Messages()
	d.republishMsgs += republish.Messages()
	d.sweepAllocs += mid.Mallocs - before.Mallocs
	d.republishAllocs += after.Mallocs - mid.Mallocs
}

// tracer is the state of one --trace 1 run.
type tracer struct {
	o      options
	refs   *refRunner
	rec    *recorder
	w      *world
	facade *facadeDriver
	twin   *overlayDriver // same transport as the facade
	core   *coreDriver    // the twin, entered at core depth
	direct *overlayDriver // direct-transport twin; nil when the workload is direct already
	sched  *schedule
	window int
	out    map[string]float64
	t      tally

	overlayOverCore float64 // us an overlay-depth locate takes over a core-depth one
}

func runTraced(o options) (*result, error) {
	t := &tracer{o: o, refs: newRefRunner(1, o.tm.ref), rec: newRecorder(), out: map[string]float64{}}
	if err := t.build(); err != nil {
		return nil, err
	}
	defer t.close()
	steps := []func() error{t.state, t.procStatic, t.passes, t.leaves, t.dynamics, t.procChurn, t.sweep}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	path := filepath.Join("out", "trace-"+o.sp.name+".json")
	if err := t.rec.write(path, o.sp.name, o.seed); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "bench: %s: %d spans in %d passes written to %s\n", o.sp.name, len(t.rec.spans), len(t.rec.passes), path)
	return newResult(perLayer, t.t, t.out), nil
}

// build sets up the facade mesh and its twins and generates the traced
// request stream: three closed windows of the workload's own mix per round,
// then one write-only window.
func (t *tracer) build() error {
	su, err := buildFacade(t.o.sp, t.o.world, t.refs)
	if err != nil {
		return err
	}
	t.w, t.facade = su.w, su.d
	addrs := make([]int, len(t.w.addrOf))
	for i, a := range t.w.addrOf {
		addrs[i] = int(a)
	}
	kind := core.TransportKind(t.o.sp.transport)
	if t.twin, err = newOverlayDriver(t.w, t.o.world, kind, addrs); err != nil {
		return err
	}
	if err := t.w.populate(t.twin); err != nil {
		return err
	}
	t.core = newCoreDriver(t.twin)
	if kind != core.TransportDirect {
		if t.direct, err = newOverlayDriver(t.w, t.o.world, core.TransportDirect, addrs); err != nil {
			return err
		}
		if err := t.w.populate(t.direct); err != nil {
			return err
		}
	}
	t.window = traceWindow
	if kind == core.TransportTCP {
		t.window = traceWindowTCP
	}
	if t.o.smoke {
		t.window = 256
	}
	main := generateSchedule(t.w, t.o.seed, traceClient, 3*traceRounds*t.window, t.window, t.o.sp.mix)
	side := generateSchedule(t.w, t.o.seed+1, traceClient, traceSideWindow, traceSideWindow, mix{publish: 0.5, unpublish: 0.5})
	t.sched = &schedule{ops: append(main.ops, side.ops...), optimal: main.optimal}
	for _, v := range side.optimal[1:] {
		t.sched.optimal = append(t.sched.optimal, main.optimal[len(main.ops)]+v)
	}
	return nil
}

func (t *tracer) close() {
	_ = t.facade.nw.Close()
	_ = t.twin.mesh.Close()
	if t.direct != nil {
		_ = t.direct.mesh.Close()
	}
}

// state reports what set-up left behind.
func (t *tracer) state() error {
	st := t.facade.nw.Stats()
	t.out["core.table_entries_mean"] = st.MeanTableLinks
	t.out["core.pointers_total"] = float64(st.TotalPointers)
	return nil
}

// procBlock runs a few untraced cycles of a load and summarises them.
func (t *tracer) procBlock(l load, goroutines int) (summary, error) {
	refs := newRefRunner(goroutines, t.o.tm.ref)
	cycles, err := measure(l, refs, procCycles)
	if err != nil {
		return summary{}, err
	}
	if sl, ok := l.(*staticLoad); ok {
		for _, c := range sl.cs {
			c.settle() // the twins never saw these publishes
		}
	}
	s := summarize(cycles, refs, l.total())
	t.t.add(s.t)
	return s, nil
}

func (t *tracer) reportProc(all, one summary, gc0 runtime.MemStats) {
	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)
	t.out["proc.raw_ops_per_s"] = all.rawRate
	t.out["proc.machine_factor"] = all.factor
	t.out["proc.cycles_rejected"] = float64(all.cycles - all.accepted)
	t.out["proc.cpu_us_per_op"] = all.cpuUs
	t.out["proc.ops_per_s_c1"] = one.rate
	t.out["proc.scaling"] = all.rate / one.rate
	t.out["proc.gc_cycles"] = float64(gc1.NumGC - gc0.NumGC)
	t.out["proc.gc_pause_ms"] = float64(gc1.PauseTotalNs-gc0.PauseTotalNs) / 1e6
	t.out["proc.rss_mb"] = rssMB()
}

// procStatic measures the untraced loop with every client and with one, on
// the facade mesh; their ratio is what a second core buys.
func (t *tracer) procStatic() error {
	if t.o.sp.churn {
		return nil
	}
	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	clients := clientCount(t.o.sp)
	all, err := t.procBlock(newStaticLoad(t.w, t.facade, t.o.seed, clients, t.o.tm), clients)
	if err != nil {
		return err
	}
	one, err := t.procBlock(newStaticLoad(t.w, t.facade, t.o.seed, 1, t.o.tm), 1)
	if err != nil {
		return err
	}
	t.reportProc(all, one, gc0)
	return nil
}

// procChurn is the same for churn-maint, whose one driver is both cases. It
// runs after the lockstep epochs, on the facade mesh alone.
func (t *tracer) procChurn() error {
	if !t.o.sp.churn {
		return nil
	}
	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	s, err := t.procBlock(newChurnLoad(t.w, t.facade, t.o.seed, t.o.tm), refGoroutines(t.o.sp))
	if err != nil {
		return err
	}
	t.reportProc(s, s, gc0)
	return nil
}

// replay runs size ops of the traced stream, from op number from, through d
// and returns what they added up to and the seconds they took.
func (t *tracer) replay(d driver, from, size int) (tally, float64) {
	c := &client{d: d, w: t.w, sched: t.sched, done: uint64(from)}
	secs := c.run(0, size, false)
	return c.t, secs
}

// passes issues the traced stream to the facade and its twins in lockstep, a
// span around every call, and reports the entry-depth times. A round is one
// reference-bracketed pass: a window in lockstep, then two more windows on the
// facade alone, one with spans and one without, which is the tracing overhead.
// Level metrics are means over every span of the kind; self times are medians
// of per-request paired differences, which a stray pause does not move.
func (t *tracer) passes() error {
	fd := &tracedDriver{driver: t.facade, rec: t.rec, mesh: meshFacade, depth: depthFacade}
	tw := &turns{driver: t.twin}
	tw.at[0] = &tracedDriver{driver: t.twin, rec: t.rec, mesh: meshTwin, depth: depthOverlay}
	tw.at[1] = &tracedDriver{driver: t.core, rec: t.rec, mesh: meshTwin, depth: depthCore}
	pair := &lockstep{facade: fd, twin: tw}
	var dd *tracedDriver
	if t.direct != nil {
		dd = &tracedDriver{driver: t.direct, rec: t.rec, mesh: meshDirect, depth: depthOverlay}
		pair.direct = dd
	}
	scratch := &tracedDriver{driver: t.facade, rec: newRecorder(), mesh: meshFacade, depth: depthFacade}
	var facade tally
	var traced, untraced float64
	for r := 0; r <= traceRounds; r++ {
		from, size := 3*r*t.window, t.window
		if r == traceRounds {
			size = traceSideWindow
		}
		fd.op, tw.op = uint32(from), uint32(from)
		if dd != nil {
			dd.op = uint32(from)
		}
		before := t.refs.sample()
		got, _ := t.replay(pair, from, size)
		var with, without float64
		if r < traceRounds {
			// Alternate which of the two goes first.
			for i := 0; i < 2; i++ {
				if (i+r)%2 == 0 {
					scratch.rec.spans = scratch.rec.spans[:0]
					_, with = t.replay(scratch, from+t.window, size)
				} else {
					_, without = t.replay(t.facade, from+2*t.window, size)
				}
			}
		}
		factor := machineFactor(before, t.refs.sample())
		t.rec.closePass(factor)
		traced, untraced = traced+with*factor, untraced+without*factor
		facade.add(got)
	}
	if pair.mismatch != "" {
		return fmt.Errorf("twins disagree: %s", pair.mismatch)
	}
	if facade.failed+facade.missed > 0 {
		return fmt.Errorf("%d of %d traced ops failed", facade.failed+facade.missed, facade.ops)
	}
	t.t.add(facade)

	// One request's spans are consecutive: the facade's, the twin's at one of
	// its two depths and, off the direct transport, the direct twin's.
	var level [len(meshNames)][depths][calls][]float64 // mesh, depth, call -> durations
	var overOverlay, overCore, overDirect []float64
	spans := t.rec.spans
	for i := 0; i < len(spans); {
		f := spans[i]
		j := i + 1
		for j < len(spans) && spans[j].op == f.op {
			j++
		}
		for _, s := range spans[i:j] {
			level[s.mesh][s.depth][s.call] = append(level[s.mesh][s.depth][s.call], t.rec.calibrated(s))
		}
		if f.call == callLocate {
			w := spans[i+1]
			if w.depth == depthOverlay {
				overOverlay = append(overOverlay, t.rec.calibrated(f)-t.rec.calibrated(w))
				if j-i == 3 {
					overDirect = append(overDirect, t.rec.calibrated(w)-t.rec.calibrated(spans[i+2]))
				}
			} else {
				overCore = append(overCore, t.rec.calibrated(f)-t.rec.calibrated(w))
			}
		}
		i = j
	}
	us := func(mesh, depth, call int) float64 { return mean(level[mesh][depth][call]) / 1e3 }
	t.out["facade.locate_us"] = us(meshFacade, depthFacade, callLocate)
	t.out["facade.publish_us"] = us(meshFacade, depthFacade, callPublish)
	t.out["facade.unpublish_us"] = us(meshFacade, depthFacade, callUnpublish)
	t.out["overlay.locate_us"] = us(meshTwin, depthOverlay, callLocate)
	t.out["core.locate_us"] = us(meshTwin, depthCore, callLocate)
	t.out["core.publish_us"] = us(meshTwin, depthCore, callPublish)
	t.out["core.unpublish_us"] = us(meshTwin, depthCore, callUnpublish)
	t.out["facade.self_us"] = median(overOverlay) / 1e3
	t.overlayOverCore = (median(overCore) - median(overOverlay)) / 1e3
	t.out["facade.locate_p50_us"] = quantileOf(level[meshFacade][depthFacade][callLocate], 0.5) / 1e3
	t.out["facade.locate_p99_us"] = quantileOf(level[meshFacade][depthFacade][callLocate], 0.99) / 1e3
	t.out["facade.publish_p99_us"] = quantileOf(level[meshFacade][depthFacade][callPublish], 0.99) / 1e3
	t.out["trace.overhead_pct"] = 100 * (traced - untraced) / untraced
	t.out["netsim.msgs_per_locate"] = float64(facade.locateMsgs) / float64(facade.locates)
	t.out["netsim.distance_per_locate"] = facade.dist / float64(facade.locates)
	t.out["transport.invoke_us_per_msg"] = 0
	if t.direct != nil {
		t.out["transport.invoke_us_per_msg"] = median(overDirect) / 1e3 / t.out["netsim.msgs_per_locate"]
	}
	return nil
}

// timeLeaf times f standalone in leafBatch-call batches and returns the
// calibrated median nanoseconds per call. f's argument counts calls, for
// picking inputs drawn from the workload.
func (t *tracer) timeLeaf(f func(i int)) float64 {
	per := make([]float64, leafBatches)
	before := t.refs.sample()
	for b := range per {
		start := time.Now()
		for i := 0; i < leafBatch; i++ {
			f(b*leafBatch + i)
		}
		per[b] = float64(time.Since(start)) / leafBatch
	}
	return median(per) * machineFactor(before, t.refs.sample())
}

// wireMessages is what the workload's ops put on the wire: the locate walk
// and its replica check everywhere; the publish walk, pointer forwarding and
// backward deletion where there are writes; heartbeats, republish caravans,
// join multicast and table transfer, and leave notices under churn.
func (t *tracer) wireMessages(rng *rand.Rand) []wire.Msg {
	spec := t.twin.mesh.Spec()
	id := func() ids.ID { return spec.Random(rng) }
	msgs := []wire.Msg{
		&wire.LocateStep{GUID: id(), Key: id(), Level: 2, Hops: 3},
		&wire.Ack{},
		&wire.VerifyReq{GUID: id()},
		&wire.VerifyResp{Serves: true},
	}
	if t.o.sp.mix.publish > 0 || t.o.sp.churn {
		msgs = append(msgs,
			&wire.RouteStep{Key: id(), Level: 3, Op: wire.RouteOpRoute},
			&wire.PtrForward{GUID: id(), Key: id(), Server: id(), ServerAddr: 77, Level: 2, PrevID: id(), PrevAddr: 1234},
			&wire.DeleteBack{GUID: id(), Key: id(), Server: id(), StopAt: id()},
		)
	}
	if t.o.sp.churn {
		entries := t.twin.mesh.Nodes()[0].Table().DistinctNeighbors()
		if len(entries) > 16 {
			entries = entries[:16]
		}
		msgs = append(msgs,
			&wire.Ping{},
			&wire.CaravanStep{Server: id(), ServerAddr: 9, Recs: []wire.PubRec{{GUID: id(), Key: id(), Level: 1, PrevID: id(), PrevAddr: 5, Hops: 2}}},
			&wire.McastStep{P: id().Prefix(2), Root: id().Prefix(1), NewNode: entries[0], HoleLevel: 1},
			&wire.TableBandReq{Floor: 1, Fold: -1},
			&wire.TableBandResp{Entries: entries},
			&wire.BackAdd{Level: 2, From: entries[0]},
			&wire.LeaveNotify{Leaver: id(), Level: 1, Replacements: entries[:2]},
		)
	}
	return msgs
}

// leaves times the leaf layers standalone on inputs drawn from the traced
// stream, and settles what is left of a locate once they are accounted for.
func (t *tracer) leaves() error {
	cd := t.core
	spec := t.twin.mesh.Spec()
	ops := t.sched.ops
	at := func(i int) op { return ops[i%len(ops)] }
	holderOf := func(e op) int {
		if h := t.w.holder[e.obj]; h >= 0 {
			return int(h)
		}
		return int(t.w.addrOf[e.slot])
	}
	var sinkID ids.ID
	t.out["ids.hash_ns"] = t.timeLeaf(func(i int) { sinkID = spec.Hash(t.w.names[at(i).obj]) })
	_ = sinkID
	t.out["core.nexthop_ns"] = t.timeLeaf(func(i int) { e := at(i); cd.node(e.slot).NextHopDecision(cd.guids[e.obj], 0) })
	t.out["route.setview_ns"] = t.timeLeaf(func(i int) {
		e := at(i)
		level := i % 2
		cd.node(e.slot).Table().SetView(level, cd.guids[e.obj].Digit(level))
	})
	var cost netsim.Cost
	t.out["netsim.send_ns"] = t.timeLeaf(func(i int) {
		e := at(i)
		_ = t.twin.net.Send(netsim.Addr(t.w.addrOf[e.slot]), netsim.Addr(holderOf(e)), &cost, true) // both ends are live members
	})
	var sinkF float64
	t.out["metric.distance_ns"] = t.timeLeaf(func(i int) { e := at(i); sinkF += t.w.space.Distance(int(t.w.addrOf[e.slot]), holderOf(e)) })
	_ = sinkF
	rng := rand.New(rand.NewSource(t.o.seed))
	nearest := make([]float64, 0, 32)
	before := t.refs.sample()
	for i := 0; i < cap(nearest); i++ {
		e := at(rng.Intn(len(ops)))
		start := time.Now()
		cd.node(e.slot).NearestForSlot(rng.Intn(2), ids.Digit(rng.Intn(spec.Base)), nil)
		nearest = append(nearest, float64(time.Since(start)))
	}
	t.out["core.nearest_us"] = median(nearest) / 1e3 * machineFactor(before, t.refs.sample())

	msgs := t.wireMessages(rng)
	frames := make([][]byte, len(msgs))
	recycled := make([]wire.Msg, len(msgs))
	bytes := 0
	for i, m := range msgs {
		frames[i] = wire.AppendFrame(nil, m)
		recycled[i] = wire.New(m.WireType())
		bytes += len(frames[i])
	}
	t.out["wire.bytes_per_msg"] = float64(bytes) / float64(len(msgs))
	var buf []byte
	t.out["wire.encode_ns_per_msg"] = t.timeLeaf(func(i int) { buf = wire.AppendFrame(buf[:0], msgs[i%len(msgs)]) })
	var decodeErr error
	decode := func(i int) {
		if _, err := wire.DecodeFrameInto(frames[i%len(frames)], recycled[i%len(frames)]); err != nil {
			decodeErr = err
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t.out["wire.decode_ns_per_msg"] = t.timeLeaf(decode)
	runtime.ReadMemStats(&m1)
	t.out["wire.decode_allocs_per_msg"] = float64(m1.Mallocs-m0.Mallocs) / (leafBatch * leafBatches)
	if decodeErr != nil {
		return fmt.Errorf("wire decode: %w", decodeErr)
	}

	// The budget of one locate. Going down: the facade's own time, the
	// overlay adapter's, the hash, then core — of which the per-hop decision
	// and the per-message send (which contains the metric distance) and, off
	// the direct transport, the seam are timed standalone. What remains is
	// core.Node.Locate's own walk: the share no span or leaf timing explains.
	hops := float64(t.t.hops) / float64(t.t.locates)
	perMsg := t.out["netsim.send_ns"]/1e3 + t.out["transport.invoke_us_per_msg"]
	t.out["overlay.self_us"] = t.overlayOverCore - t.out["ids.hash_ns"]/1e3
	t.out["core.locate_self_us"] = t.out["core.locate_us"] - hops*t.out["core.nexthop_ns"]/1e3 - t.out["netsim.msgs_per_locate"]*perMsg
	t.out["trace.unattributed_pct"] = 100 * t.out["core.locate_self_us"] / t.out["facade.locate_us"]
	return nil
}

// dynamics runs churn epochs on the facade and its twin in lockstep, with a
// span around every call, and reports the membership and repair costs. Every
// workload does at least one epoch, so each reports every metric; churn-maint
// does about one per two seconds of its run.
func (t *tracer) dynamics() error {
	epochs := 1
	if t.o.sp.churn && !t.o.smoke {
		epochs = int(t.o.seconds / 2)
	}
	fd := &tracedDriver{driver: t.facade, rec: t.rec, mesh: meshFacade, depth: depthFacade, op: uint32(len(t.sched.ops))}
	td := &tracedDriver{rec: t.rec, mesh: meshTwin, depth: depthOverlay, op: fd.op}
	split := &splitMaintain{overlayDriver: t.twin, rec: t.rec, op: &td.op}
	td.driver = split
	pair := &lockstep{facade: fd, twin: td}
	c := &churner{w: t.w, d: pair, probe: rand.New(rand.NewSource(t.o.seed))}
	before := t.refs.sample()
	for i := 0; i < epochs; i++ {
		if err := c.runEpoch(); err != nil {
			return err
		}
	}
	churn := t.rec.closePass(machineFactor(before, t.refs.sample()))
	if pair.mismatch != "" {
		return fmt.Errorf("twins disagree: %s", pair.mismatch)
	}
	if c.t.failed > 0 {
		return fmt.Errorf("%d wrong answers in %d probes", c.t.failed, c.pre+c.post)
	}
	t.t.add(c.t)

	t.out["facade.join_p50_ms"] = median(t.rec.durations(churn, meshFacade, depthFacade, callJoin)) / 1e6
	t.out["facade.leave_p50_ms"] = median(t.rec.durations(churn, meshFacade, depthFacade, callLeave)) / 1e6
	t.out["facade.maintain_ms"] = mean(t.rec.durations(churn, meshFacade, depthFacade, callMaintain)) / 1e6
	n := float64(split.epochs)
	t.out["core.join_msgs"] = mean(c.joinMsgs)
	t.out["core.leave_msgs"] = mean(c.leaveMsgs)
	t.out["core.sweep_msgs"] = float64(split.sweepMsgs) / n
	t.out["core.sweep_allocs"] = float64(split.sweepAllocs) / n
	t.out["core.republish_msgs"] = float64(split.republishMsgs) / n
	t.out["core.republish_allocs"] = float64(split.republishAllocs) / n
	t.out["core.links_removed_per_epoch"] = float64(split.removed) / n
	t.out["avail.prerepair_ok_pct"] = 100 * float64(c.preOK) / float64(c.pre)
	t.out["avail.postrepair_ok_pct"] = 100 * float64(c.postOK) / float64(c.post)
	t.out["netsim.msgs_per_publish"] = float64(t.t.publishMsgs) / float64(t.t.publishes)
	return nil
}

// sweep times the facade's own SweepFailures once, at the very end, where it
// cannot disturb the twin comparison. On a statically built network it is a
// no-op today (see churner), which is what the number then says.
func (t *tracer) sweep() error {
	before := t.refs.sample()
	start := time.Now()
	t.facade.nw.SweepFailures()
	el := time.Since(start).Seconds()
	t.out["facade.sweep_ms"] = el * 1e3 * machineFactor(before, t.refs.sample())
	return nil
}

// rssMB reads the resident set size from /proc; 0 where there is none.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1e3
		}
	}
	return 0
}
