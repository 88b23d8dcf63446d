package main

import "tapestry"

// worldSeed fixes everything that is not a request stream: the metric space,
// node identifiers and addresses, the object set, which node holds which
// object, the popularity ranking and the churn script. Counts such as
// hops_per_locate and stretch depend on these, so a run's -seed draws only
// the clients' request streams and the counts repeat across seeds.
// heldOutWorldSeed is never used while a change is written; pass it with
// -world to confirm a claim on a mesh the change was not tuned on.
const (
	worldSeed        = 20020810 // SPAA 2002
	heldOutWorldSeed = 19970611
)

// mix is the share of each op kind in a client's schedule; the rest are
// locates of the static objects.
type mix struct {
	publish, unpublish, locatePrivate float64
}

// spec is one workload's fixed parameters.
type spec struct {
	name      string
	why       string
	nodes     int // overlay members, built statically
	points    int // metric-space points; members sit at a quarter of them
	objects   int // static objects, each published once
	transport tapestry.Transport
	mix       mix
	churn     bool // the churn-maint epoch script instead of client schedules
}

const (
	zipfS          = 1.2   // popularity skew of static-object locates
	scheduleLen    = 65536 // ops per client schedule, replayed cyclically
	privateNames   = 64    // private object names per client (mixed workloads)
	maxClients     = 2
	opBatch        = 64 // ops between stop-flag checks and counter flushes
	joinsPerEpoch  = 8
	objsPerJoiner  = 4 // keeps the object population stationary: 8 departures drop 32, 8 joiners add 32
	leavesPerEpoch = 4
	failsPerEpoch  = 4
	probesPerPhase = 2000
)

var writeMix = mix{publish: 0.15, unpublish: 0.15, locatePrivate: 0.05}

var specs = []spec{
	{
		name: "locate-direct", nodes: 2048, points: 8192, objects: 8192,
		transport: tapestry.TransportDirect,
		why:       "read-only Zipf locates, direct transport: facade, overlay, core routing, route, netsim and metric do all the work and wire none",
	},
	{
		name: "mixed-loopback", nodes: 2048, points: 8192, objects: 8192,
		transport: tapestry.TransportLoopback, mix: writeMix,
		why: "70% locate, 15% publish, 15% unpublish through the wire codec: writers take the Node.mu the readers take, every message is encoded and decoded",
	},
	{
		name: "locate-tcp", nodes: 2048, points: 8192, objects: 8192,
		transport: tapestry.TransportTCP,
		why:       "locate-direct's request streams over real localhost sockets: framing and the conn pool are most of the time and core routing is noise",
	},
	{
		name: "churn-maint", nodes: 1024, points: 4096, objects: 4096,
		transport: tapestry.TransportDirect, churn: true,
		why: "one driver scripts join, leave, fail, probe, repair epochs: join, nnSearch, leave, sweep and republish do the work and plain routing little",
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// smoke shrinks a workload to a mesh that builds in milliseconds; the unit
// tests run every workload this way.
func (s spec) smoke() spec {
	s.nodes, s.points, s.objects = 256, 1024, 1024
	return s
}

// metricDef is one row of BENCHMARK.json; TestBenchmarkJSON keeps the file
// and these tables in step.
type metricDef struct {
	name, unit, better string
	bound              float64
}

var endToEnd = []metricDef{
	// A bound is at least three times the interquartile spread the metric
	// showed over ten runs of the same code on the shared box (README.md,
	// "What the noise looks like here"): timings spread by 2-7%, counts by
	// under 0.4%.
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.24},
	{"locate_p50_us", "us", "lower", 0.2},
	{"allocs_per_op", "1", "lower", 0.01},
	{"alloc_bytes_per_op", "B", "lower", 0.02},
	{"msgs_per_op", "1", "lower", 0.01},
	{"hops_per_locate", "1", "lower", 0.01},
	{"stretch", "1", "lower", 0.02},
	{"ok_pct", "%", "higher", 0.001},
	{"heap_mb", "MB", "lower", 0.03},
}
