package scenario

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"tapestry/internal/metric"
	"tapestry/internal/netsim"
	"tapestry/internal/overlay"
	"tapestry/internal/stats"
	"tapestry/internal/workload"
)

const (
	// zipfS is the background query skew exponent of every storm.
	zipfS = 1.2
	// querySpread is the virtual-time window a storm's queries spread over
	// under an engine.
	querySpread = 5.0
)

// Config parameterizes a Driver.
type Config struct {
	// Seed drives every binding the driver makes (region picks, partition
	// cuts, query mixes, churn); identical seeds replay exactly.
	Seed int64
	// Placement names the published objects and their origin servers as
	// indices into the Build membership, exactly as the caller published
	// them. Restores republish from it.
	Placement workload.Placement
	// Reserve is the address pool joins (stampedes, churn, restores beyond
	// the original address) draw from; an exhausted pool fails the join.
	Reserve []netsim.Addr
}

// PhaseReport is the Driver's measurement for one Phase window.
type PhaseReport struct {
	Phase string
	Live  int // members at phase close

	Joins    int // successful joins (stampede, churn, restores)
	Leaves   int // graceful departures
	Crashes  int // blackout + churn crashes
	Restores int // members revived by RegionRestore

	Declined int // operations refused by the protocol's capability set
	Failed   int // operations that errored (joins under partition, pool exhaustion)

	Queries     int
	Found       int
	MeanHops    float64 // over found queries
	MeanStretch float64 // cost distance / direct distance, over found queries
	// VLat summarizes Cost.VirtualLatency over found queries: all zeros
	// without an engine, virtual-time locate latency under one.
	VLat stats.Summary
	// StormLoad counts the messages addressed to each address during the
	// phase's storms, on a network that tracks load (nil otherwise). Every
	// member live at a storm has an entry, idle ones at zero; so does any
	// other address that received traffic (a directory's server).
	StormLoad map[netsim.Addr]int64

	MaintainMsgs int64 // messages charged to Maintain passes

	// Fault accounting deltas (netsim.Stats) over the phase window.
	Blocked, Lost, Duplicated int64
}

// Driver replays scenarios against one overlay.Protocol instance. It is
// caps-gated: events a protocol cannot honor are counted as declined, never
// panicking — adversarial scenarios make operations fail, and failing is data
// here.
//
// The network decides the backend. Without an engine the timeline replays
// serially in time order with synchronous RPCs: no virtual clock, every event
// completes before the next starts. With one attached it replays in virtual
// time: query storms spread over a window as individual interleaving
// operations (the E-nines regime) while membership, fault and maintenance
// events run serialized on one control operation — adapters hold their
// membership lock across parks, so two overlapping membership ops would
// deadlock the one-at-a-time scheduler. The control op joins on each storm
// before advancing: virtual latency can stretch a storm far past its
// scheduled window (a partition parks every blocked send until timeout), and
// a Heal firing by wall position while the partitioned phase's queries were
// still in flight would dissolve the condition mid-measurement. Event times
// are therefore lower bounds (the op sleeps to them when ahead, proceeds
// immediately when virtual time has already passed them), and phases are
// causal eras, not wall windows.
//
// A Driver is single-use per Run and not safe for concurrent Runs.
type Driver struct {
	proto   overlay.Protocol
	net     *netsim.Network
	space   metric.Space
	cfg     Config
	reserve []netsim.Addr

	members []overlay.Handle
	origin  map[netsim.Addr][]int // build addr -> object indices it originally serves

	regionOrder []int                 // seeded shuffle of the space's region labels
	blackouts   map[int][]netsim.Addr // blackout pick -> crashed addresses
	minPop      int                   // floor under Churn-event departures

	reports []PhaseReport
	cur     PhaseReport
	open    bool
	prevNet netsim.Stats
	hopsSum float64
	strSum  float64
	strN    int
}

// NewDriver wraps a built, published protocol instance. members must be the
// Build handles (index i at the placement's server index i); the driver
// tracks membership from there.
func NewDriver(p overlay.Protocol, members []overlay.Handle, cfg Config) (*Driver, error) {
	if len(members) == 0 {
		return nil, errors.New("scenario: driver needs at least one member")
	}
	d := &Driver{
		proto:     p,
		net:       p.Net(),
		space:     p.Net().Space(),
		cfg:       cfg,
		reserve:   append([]netsim.Addr(nil), cfg.Reserve...),
		members:   append([]overlay.Handle(nil), members...),
		origin:    map[netsim.Addr][]int{},
		blackouts: map[int][]netsim.Addr{},
		minPop:    max(2, len(members)/4),
	}
	for obj, servers := range cfg.Placement.Servers {
		if len(servers) == 0 {
			continue
		}
		a := members[servers[0]].Addr()
		d.origin[a] = append(d.origin[a], obj)
	}
	d.regionOrder = append([]int(nil), metric.RegionLabels(d.space)...)
	rng := d.streamRNG("regions", 0)
	rng.Shuffle(len(d.regionOrder), func(i, j int) {
		d.regionOrder[i], d.regionOrder[j] = d.regionOrder[j], d.regionOrder[i]
	})
	return d, nil
}

func (d *Driver) streamRNG(label string, idx int) *rand.Rand {
	return rand.New(rand.NewSource(stats.StreamSeed(d.cfg.Seed, label, idx)))
}

// Run replays the scenario and returns one report per phase. Events before
// the first Phase marker accumulate under an implicit "setup" phase.
func (d *Driver) Run(s Scenario) ([]PhaseReport, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	d.reports, d.open = nil, false
	d.prevNet = d.net.Stats()
	if e := d.net.Engine(); e != nil {
		e.At(0, func() {
			for i, te := range s.Events {
				if dt := te.At - e.Now(); dt > 0 {
					e.Sleep(dt)
				}
				d.exec(te.Ev, i)
			}
		})
		e.Run()
	} else {
		for i, te := range s.Events {
			d.exec(te.Ev, i)
		}
	}
	d.closePhase()
	return d.reports, nil
}

// storm issues the mix's queries and folds the load they put on each address
// into the phase. Without an engine they run inline, in order. Under one each
// query is its own op, offset into the querySpread window by the storm's
// labeled stream, and the caller joins on all of them: queries interleave
// freely with one another (and with the engine's inbound queues), but the
// timeline never advances past a storm still in flight.
func (d *Driver) storm(mix workload.QueryMix, idx int) {
	before := d.net.Loads()
	if e := d.net.Engine(); e == nil {
		for q := range mix.Objects {
			d.oneQuery(mix.Clients[q], mix.Objects[q])
		}
	} else {
		trng := d.streamRNG("times", idx)
		handles := make([]*netsim.OpHandle, 0, len(mix.Objects))
		for q := range mix.Objects {
			c, o := mix.Clients[q], mix.Objects[q]
			off := 0.001 + trng.Float64()*querySpread
			handles = append(handles, e.Spawn(func() {
				e.Sleep(off)
				d.oneQuery(c, o)
			}))
		}
		for _, h := range handles {
			h.Wait()
		}
	}
	if before == nil || len(mix.Objects) == 0 {
		return
	}
	if d.cur.StormLoad == nil {
		d.cur.StormLoad = map[netsim.Addr]int64{}
	}
	for a, was := range before {
		if delta := d.net.LoadAt(netsim.Addr(a)) - was; delta > 0 {
			d.cur.StormLoad[netsim.Addr(a)] += delta
		}
	}
	for _, h := range d.members {
		if _, ok := d.cur.StormLoad[h.Addr()]; !ok {
			d.cur.StormLoad[h.Addr()] = 0
		}
	}
}

// stormMix draws a storm's (client draw, object) pairs from the event's
// labeled stream — identical with and without an engine. hot > 0 selects the
// flash-crowd mix with a seeded hot object.
func (d *Driver) stormMix(count int, hot float64, idx int) workload.QueryMix {
	rng := d.streamRNG("mix", idx)
	objects := len(d.cfg.Placement.Names)
	if count <= 0 || objects == 0 {
		return workload.QueryMix{}
	}
	if hot > 0 {
		hotObj := rng.Intn(objects)
		return workload.FlashCrowdQueries(count, 1<<30, objects, hotObj, hot, zipfS, rng)
	}
	return workload.ZipfQueries(count, 1<<30, objects, zipfS, rng)
}

// exec runs one event to completion.
func (d *Driver) exec(ev Event, idx int) {
	switch ev := ev.(type) {
	case Phase:
		d.closePhase()
		d.cur = PhaseReport{Phase: ev.Name}
		d.open = true
	case RegionBlackout:
		d.blackout(ev.Pick, idx)
	case RegionRestore:
		d.restore(ev.Pick)
	case Partition:
		d.net.SetPartition(d.partitionGroups(ev.Frac, idx))
	case Heal:
		d.net.HealPartition()
	case LinkFaults:
		d.net.SetLinkFaults(ev.Loss, ev.Dup, stats.StreamSeed(d.cfg.Seed, "linkfaults", idx))
	case Queries:
		d.storm(d.stormMix(ev.Count, 0, idx), idx)
	case FlashCrowd:
		d.storm(d.stormMix(ev.Count, ev.Hot, idx), idx)
	case JoinStampede:
		for i := 0; i < ev.Count; i++ {
			d.join(d.takeReserve())
		}
	case Churn:
		d.churn(ev, idx)
	case Maintain:
		cost, err := d.proto.Maintain()
		if d.classify(err) {
			d.ensurePhase()
			d.cur.MaintainMsgs += int64(cost.Messages())
		}
	default:
		panic(fmt.Sprintf("scenario: unhandled event %T", ev))
	}
}

// ensurePhase opens the implicit setup phase for events before any marker.
func (d *Driver) ensurePhase() {
	if !d.open {
		d.cur = PhaseReport{Phase: "setup"}
		d.open = true
	}
}

// classify folds an operation error into the caps-gating counters and
// reports whether the operation succeeded.
func (d *Driver) classify(err error) bool {
	if err == nil {
		return true
	}
	d.ensurePhase()
	if errors.Is(err, overlay.ErrUnsupported) {
		d.cur.Declined++
	} else {
		d.cur.Failed++
	}
	return false
}

// closePhase finalizes the open accumulator into the report list.
func (d *Driver) closePhase() {
	if !d.open {
		return
	}
	d.cur.Live = len(d.members)
	if d.cur.Found > 0 {
		d.cur.MeanHops = d.hopsSum / float64(d.cur.Found)
	}
	if d.strN > 0 {
		d.cur.MeanStretch = d.strSum / float64(d.strN)
	}
	now := d.net.Stats()
	d.cur.Blocked = now.Blocked - d.prevNet.Blocked
	d.cur.Lost = now.Lost - d.prevNet.Lost
	d.cur.Duplicated = now.Duplicated - d.prevNet.Duplicated
	d.prevNet = now
	d.reports = append(d.reports, d.cur)
	d.cur = PhaseReport{}
	d.hopsSum, d.strSum, d.strN = 0, 0, 0
	d.open = false
}

// takeReserve pops the next join address, or -1 when the pool is exhausted.
func (d *Driver) takeReserve() netsim.Addr {
	if len(d.reserve) == 0 {
		return -1
	}
	a := d.reserve[0]
	d.reserve = d.reserve[1:]
	return a
}

// join inserts a member at the address (a < 0 = exhausted pool, a failure).
func (d *Driver) join(a netsim.Addr) {
	d.ensurePhase()
	if a < 0 {
		d.cur.Failed++
		return
	}
	h, _, err := d.proto.Join(a)
	if d.classify(err) {
		d.members = append(d.members, h)
		d.cur.Joins++
	}
}

// removeMember drops the handle from the live list (linear: memberships are
// hundreds, not millions, and removal order is part of the determinism
// contract).
func (d *Driver) removeMember(h overlay.Handle) {
	for i, m := range d.members {
		if m.Addr() == h.Addr() {
			d.members = append(d.members[:i], d.members[i+1:]...)
			return
		}
	}
}

// blackout crashes every live member of the picked region. Spaces without
// region structure lose a seeded eighth of the membership instead, so the
// event stays meaningful on ring and cloud spaces.
func (d *Driver) blackout(pick, idx int) {
	d.ensurePhase()
	var victims []overlay.Handle
	if len(d.regionOrder) > 0 {
		regions := metric.Regions(d.space)
		// Take the most-populated region, scanning the shuffled order from
		// pick (ties: earliest in scan order). Sparse deployments leave
		// many stub domains empty or with one straggler, and blacking out
		// a near-empty region would test nothing.
		byLabel := map[int][]overlay.Handle{}
		for _, h := range d.members {
			l := regions[int(h.Addr())]
			byLabel[l] = append(byLabel[l], h)
		}
		for off := 0; off < len(d.regionOrder); off++ {
			label := d.regionOrder[(pick+off)%len(d.regionOrder)]
			if len(byLabel[label]) > len(victims) {
				victims = byLabel[label]
			}
		}
	} else {
		rng := d.streamRNG("blackout", idx)
		n := (len(d.members) + 7) / 8
		perm := rng.Perm(len(d.members))[:n]
		// Sort the picks so victims die in membership order (deterministic
		// and independent of the permutation's tail).
		sortInts(perm)
		for _, i := range perm {
			victims = append(victims, d.members[i])
		}
	}
	for _, h := range victims {
		if d.classify(d.proto.Fail(h)) {
			d.removeMember(h)
			d.cur.Crashes++
			d.blackouts[pick] = append(d.blackouts[pick], h.Addr())
		}
	}
}

// restore rejoins the members crashed by the matching blackout at their
// original addresses and republishes the objects they originally served.
func (d *Driver) restore(pick int) {
	d.ensurePhase()
	addrs := d.blackouts[pick]
	d.blackouts[pick] = nil
	for _, a := range addrs {
		h, _, err := d.proto.Join(a)
		if !d.classify(err) {
			continue
		}
		d.members = append(d.members, h)
		d.cur.Restores++
		for _, obj := range d.origin[a] {
			if _, err := d.proto.Publish(h, d.cfg.Placement.Names[obj]); err != nil {
				d.classify(err)
			}
		}
	}
}

// churn runs one epoch of Poisson background churn.
func (d *Driver) churn(ev Churn, idx int) {
	d.ensurePhase()
	pop := len(d.members)
	minPop := d.minPop
	if pop < minPop {
		minPop = pop
	}
	rng := d.streamRNG("churn", idx)
	plan := workload.PoissonChurn(1, pop, minPop, ev.JoinMean, ev.LeaveMean, ev.CrashMean, rng)
	for _, op := range plan[0] {
		switch {
		case op.Join:
			d.join(d.takeReserve())
		case len(d.members) <= minPop:
			// Execution-time floor: the plan assumed joins that may have
			// failed (exhausted pool, partition), so re-check before killing.
		default:
			h, ok := d.victim(op.Victim, ev.SpareServers)
			if !ok {
				continue
			}
			if op.Crash {
				if d.classify(d.proto.Fail(h)) {
					d.removeMember(h)
					d.cur.Crashes++
				}
			} else {
				if _, err := d.proto.Leave(h); d.classify(err) {
					d.removeMember(h)
					d.cur.Leaves++
				}
			}
		}
	}
}

// victim resolves a churn departure draw against the live membership. With
// spare set it scans on from the drawn member to the first one that is no
// object's origin server; ok is false when every member is one.
func (d *Driver) victim(draw int, spare bool) (h overlay.Handle, ok bool) {
	for k := range d.members {
		h = d.members[(draw+k)%len(d.members)]
		if !spare || len(d.origin[h.Addr()]) == 0 {
			return h, true
		}
	}
	return nil, false
}

// oneQuery resolves the client draw against the current membership and
// issues one locate. Unfound queries are the availability signal, not
// errors.
func (d *Driver) oneQuery(clientDraw, obj int) {
	d.ensurePhase()
	if len(d.members) == 0 {
		d.cur.Queries++
		return
	}
	h := d.members[clientDraw%len(d.members)]
	res, cost := d.proto.Locate(h, d.cfg.Placement.Names[obj])
	d.cur.Queries++
	if !res.Found {
		return
	}
	d.cur.Found++
	d.cur.VLat.Add(cost.VirtualLatency())
	d.hopsSum += float64(res.Hops)
	if direct := d.space.Distance(int(h.Addr()), int(res.Server)); direct > 0 {
		d.strSum += cost.Distance() / direct
		d.strN++
	}
}

// partitionGroups builds the netsim mask for a cut with ~frac of the
// membership on the minority side. With region structure the cut is
// region-aligned (whole stub domains fall on one side — the correlated
// geometry a real backbone cut produces, and what region-diversified
// replication is supposed to survive); otherwise addresses split
// individually.
func (d *Driver) partitionGroups(frac float64, idx int) []int {
	group := make([]int, d.net.Size())
	rng := d.streamRNG("partition", idx)
	want := int(math.Ceil(frac * float64(len(d.members))))
	if len(d.regionOrder) > 0 {
		regions := metric.Regions(d.space)
		perRegion := map[int]int{}
		for _, h := range d.members {
			perRegion[regions[int(h.Addr())]]++
		}
		order := append([]int(nil), d.regionOrder...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		minority := map[int]bool{}
		got := 0
		for _, l := range order {
			if got >= want {
				break
			}
			minority[l] = true
			got += perRegion[l]
		}
		for p := range group {
			if r := regions[p]; r >= 0 && minority[r] {
				group[p] = 1
			}
		}
		return group
	}
	memberSide := map[netsim.Addr]bool{}
	perm := rng.Perm(len(d.members))
	for _, i := range perm[:min(want, len(d.members))] {
		memberSide[d.members[i].Addr()] = true
	}
	for p := range group {
		if memberSide[netsim.Addr(p)] {
			group[p] = 1
		}
	}
	return group
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
