package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// Entry depths of the traced run. The facade hides its inner handles, so a
// request is traced by issuing it at several depths at once: on the facade
// mesh through the public API and, right after, on a twin of that mesh
// through overlay.Protocol or through core.Node with the guid already hashed,
// the two taking turns request by request. A layer's self time is the paired
// difference between a request's span and its span one depth down.
const (
	depthFacade = iota
	depthOverlay
	depthCore
	depths
)

// Calls a driver makes; with a depth they name a span.
const (
	callLocate = iota
	callPublish
	callUnpublish
	callJoin
	callLeave
	callFail
	callMaintain
	callSweep     // core depth only: the heartbeat half of Maintain
	callRepublish // core depth only: the soft-state half
	calls
)

var spanNames = [depths][calls]string{
	depthFacade: {
		callLocate: "tapestry.Node.Locate", callPublish: "tapestry.Node.Publish", callUnpublish: "tapestry.Node.UnpublishChecked",
		callJoin: "tapestry.Network.AddNode", callLeave: "tapestry.Node.Leave", callFail: "tapestry.Network.Fail",
		callMaintain: "tapestry.Network.RunMaintenance",
	},
	depthOverlay: {
		callLocate: "overlay.Protocol.Locate", callPublish: "overlay.Protocol.Publish", callUnpublish: "overlay.Protocol.Unpublish",
		callJoin: "overlay.Protocol.Join", callLeave: "overlay.Protocol.Leave", callFail: "overlay.Protocol.Fail",
		callMaintain: "overlay.Protocol.Maintain",
	},
	depthCore: {
		callLocate: "core.Node.Locate", callPublish: "core.Node.Publish", callUnpublish: "core.Node.Unpublish",
		callSweep: "core.Mesh.SweepDeadAll", callRepublish: "core.Mesh.RunMaintenanceEpoch",
	},
}

// Meshes a span can be recorded on.
const (
	meshFacade = iota // the network the public facade built
	meshTwin          // its bottom-up twin on the same transport
	meshDirect        // a second twin on the direct transport, for the transport seam
)

var meshNames = [...]string{meshFacade: "facade", meshTwin: "twin", meshDirect: "direct"}

// span is one call into a layer, recorded from bench/ around the call.
type span struct {
	start, end int64  // ns since the recorder's epoch
	op         uint32 // request id: one request's spans on every mesh share it
	pass       uint16 // the reference-bracketed pass it ran in, which carries the machine factor
	mesh       uint8
	depth      uint8
	call       uint8
}

// pass is one reference-bracketed stretch of spans.
type pass struct {
	factor float64 // machine factor: a span's calibrated time is its raw time times this
}

// recorder keeps every span in memory until the run ends.
type recorder struct {
	epoch  time.Time
	spans  []span
	passes []pass
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(mesh, depth, call int, op uint32, start int64) {
	r.spans = append(r.spans, span{start: start, end: r.now(), op: op, pass: uint16(len(r.passes)),
		mesh: uint8(mesh), depth: uint8(depth), call: uint8(call)})
}

// closePass ends the current pass: spans recorded since the previous close
// belong to it.
func (r *recorder) closePass(factor float64) int {
	r.passes = append(r.passes, pass{factor: factor})
	return len(r.passes) - 1
}

// calibrated is the span's duration in ns on the nominal box.
func (r *recorder) calibrated(s span) float64 {
	return float64(s.end-s.start) * r.passes[s.pass].factor
}

// tracedDriver records one span around every call it forwards. Request ids
// count calls, so two drivers fed the same script agree on them.
type tracedDriver struct {
	driver
	rec         *recorder
	mesh, depth int
	op          uint32
}

func (t *tracedDriver) done(call int, start int64) {
	t.rec.add(t.mesh, t.depth, call, t.op, start)
	t.op++
}

func (t *tracedDriver) join(addr int) (int, error) {
	s := t.rec.now()
	m, err := t.driver.join(addr)
	t.done(callJoin, s)
	return m, err
}

func (t *tracedDriver) leave(slot int32) (int, error) {
	s := t.rec.now()
	m, err := t.driver.leave(slot)
	t.done(callLeave, s)
	return m, err
}

func (t *tracedDriver) fail(slot int32) {
	s := t.rec.now()
	t.driver.fail(slot)
	t.done(callFail, s)
}

func (t *tracedDriver) publish(slot, obj int32) (int, error) {
	s := t.rec.now()
	m, err := t.driver.publish(slot, obj)
	t.done(callPublish, s)
	return m, err
}

func (t *tracedDriver) unpublish(slot, obj int32) error {
	s := t.rec.now()
	err := t.driver.unpublish(slot, obj)
	t.done(callUnpublish, s)
	return err
}

func (t *tracedDriver) locate(slot, obj int32) locateResult {
	s := t.rec.now()
	r := t.driver.locate(slot, obj)
	t.done(callLocate, s)
	return r
}

func (t *tracedDriver) maintain() {
	s := t.rec.now()
	t.driver.maintain()
	t.done(callMaintain, s)
}

// write stores the trace as JSON: the passes, then one object per span with
// its id, name, mesh, request id, parent span, pass and raw start and end in
// nanoseconds. A span's parent is the span of the same request one depth up:
// the call that would have caused it had the facade let a tracer in.
func (r *recorder) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"unit\":\"ns\",\"passes\":[", workload, seed)
	for i, p := range r.passes {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n{\"id\":%d,\"machine_factor\":%g}", i, p.factor)
	}
	w.WriteString("],\"spans\":[")

	// A request's spans on the facade and then on the same-transport twin
	// are the chain a parent link follows; the direct twin hangs off the
	// facade.
	type key struct {
		op    uint32
		depth uint8
	}
	chain := map[key]int{}
	for i, s := range r.spans {
		if s.mesh != meshDirect {
			chain[key{s.op, s.depth}] = i
		}
	}
	buf := make([]byte, 0, 256)
	for i, s := range r.spans {
		parent := -1
		for d := int(s.depth) - 1; d >= 0 && parent < 0; d-- {
			if p, ok := chain[key{s.op, uint8(d)}]; ok {
				parent = p
			}
		}
		buf = buf[:0]
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, "\n{\"id\":"...)
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, ",\"name\":\""...)
		buf = append(buf, spanNames[s.depth][s.call]...)
		buf = append(buf, "\",\"mesh\":\""...)
		buf = append(buf, meshNames[s.mesh]...)
		buf = append(buf, "\",\"op\":"...)
		buf = strconv.AppendUint(buf, uint64(s.op), 10)
		buf = append(buf, ",\"parent\":"...)
		buf = strconv.AppendInt(buf, int64(parent), 10)
		buf = append(buf, ",\"pass\":"...)
		buf = strconv.AppendUint(buf, uint64(s.pass), 10)
		buf = append(buf, ",\"start\":"...)
		buf = strconv.AppendInt(buf, s.start, 10)
		buf = append(buf, ",\"end\":"...)
		buf = strconv.AppendInt(buf, s.end, 10)
		buf = append(buf, '}')
		w.Write(buf)
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// durations lists the calibrated durations, in ns, of one kind of span in one
// pass.
func (r *recorder) durations(pass, mesh, depth, call int) []float64 {
	var out []float64
	for _, s := range r.spans {
		if int(s.pass) == pass && int(s.mesh) == mesh && int(s.depth) == depth && int(s.call) == call {
			out = append(out, r.calibrated(s))
		}
	}
	return out
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}
