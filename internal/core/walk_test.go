package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"tapestry/internal/ids"
	"tapestry/internal/metric"
	"tapestry/internal/netsim"
	"tapestry/internal/route"
)

// The walk tests run on a hand-built seven-node mesh whose every routing
// decision is known, over a ring whose points carry stub labels. Base 4, four
// digits, R = 3; distances are ring arcs from the addresses below.
//
//	a 0000 @0   the start of every walk
//	c 3200 @2   a's primary for first digit 3 — and s's primary for prefix 32
//	s 3100 @4   a's secondary for first digit 3
//	o 3213 @8   c's and s's way on toward the key
//	r 3211 @20  the root of key 3210 (no node owns the key)
//	z 1000 @1   a's primary for first digit 1, the only node in stub 1
//	y 1100 @30  a's secondary for first digit 1
//
// A healthy walk from a toward 3210 goes a→c→o→r. With c unusable it goes
// a→s→o→r — and s would choose c too, so a walk that forgot the corpse probes
// it twice.
var arenaSpec = ids.Spec{Base: 4, Digits: 4}

// zonedRing is a ring metric with a region labelling.
type zonedRing struct {
	metric.Space
	labels []int
}

func (z zonedRing) Regions() []int { return z.labels }

type arena struct {
	m                   *Mesh
	a, c, s, o, r, y, z *Node
	key                 ids.ID // 3210, whose root is r
	offKey              ids.ID // 1230, which the wide area routes through z
}

func arenaID(t testing.TB, s string) ids.ID {
	t.Helper()
	id, err := arenaSpec.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func newArena(t testing.TB) *arena {
	t.Helper()
	cfg := testConfig()
	cfg.Spec = arenaSpec
	labels := make([]int, 64)
	labels[1] = 1
	net := netsim.New(zonedRing{metric.NewRing(64), labels})
	net.EnableLoadTracking()
	var parts []Participant
	for _, p := range []struct {
		id   string
		addr netsim.Addr
	}{{"0000", 0}, {"3200", 2}, {"3100", 4}, {"3213", 8}, {"3211", 20}, {"1100", 30}, {"1000", 1}} {
		parts = append(parts, Participant{arenaID(t, p.id), p.addr})
	}
	m, err := BuildStatic(net, cfg, parts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	ar := &arena{m: m, key: arenaID(t, "3210"), offKey: arenaID(t, "1230")}
	for _, p := range []struct {
		n    **Node
		addr netsim.Addr
	}{{&ar.a, 0}, {&ar.c, 2}, {&ar.s, 4}, {&ar.o, 8}, {&ar.r, 20}, {&ar.y, 30}, {&ar.z, 1}} {
		*p.n = m.NodeAt(p.addr)
	}
	return ar
}

// inserter registers x = 3210 — the key itself, so the best root there could
// be — as a node still inserting at @9, with o as its pre-insertion surrogate
// (|α| = 3), and pins it into o's table as joinSnapshot would. A walk for the
// key now reaches x from o with all four digits resolved.
func (ar *arena) inserter(t testing.TB) *Node {
	t.Helper()
	x, err := ar.m.register(ar.key, 9, ar.key.Prefix(3), ar.o.entryFor(9))
	if err != nil {
		t.Fatal(err)
	}
	ar.o.mu.Lock()
	added, _ := ar.o.table.Add(3, route.Entry{ID: x.id, Addr: x.addr, Pinned: true})
	ar.o.mu.Unlock()
	if !added {
		t.Fatal("set-up: o did not take the inserter")
	}
	return x
}

// plant gives a the record of a publish path that runs through it, so a
// re-route has something to forward.
func (ar *arena) plant(key ids.ID) pointerRec {
	rec := pointerRec{guid: key, server: ar.a.id, serverAddr: ar.a.addr, key: key, lastAddr: ar.a.addr}
	ar.a.mu.Lock()
	ar.a.objects.Put(key, &objState{recs: []pointerRec{rec}})
	ar.a.mu.Unlock()
	return rec
}

// walkKind is one way the package sends a message toward a key; run starts
// it at a. lays marks the kinds that deposit a pointer trail with Figure 9's
// teardown armed, local the ones confined to a's stub.
type walkKind struct {
	name        string
	lays, local bool
	run         func(ar *arena, key ids.ID)
}

var walkKinds = []walkKind{
	{name: "route", run: func(ar *arena, key ids.ID) { _, _, _ = ar.a.SurrogateFor(key, nil) }},
	{name: "publish", lays: true, run: func(ar *arena, key ids.ID) { _ = ar.a.Publish(key, nil) }},
	{name: "unpublish", run: func(ar *arena, key ids.ID) { ar.a.Unpublish(key, nil) }},
	{name: "locate", run: func(ar *arena, key ids.ID) { ar.a.Locate(key, nil) }},
	{name: "re-route", lays: true, run: func(ar *arena, key ids.ID) {
		ar.plant(key)
		ar.a.OptimizeObjectPtrs(nil)
	}},
	{name: "stub-local publish", local: true, run: func(ar *arena, key ids.ID) { _ = ar.a.publishPath(ar.a.mesh.getFrames(), key, key, 0, nil) }},
	{name: "stub-local locate", local: true, run: func(ar *arena, key ids.ID) { ar.a.locatePath(ar.a.mesh.getFrames(), key, 0, 0, nil) }},
}

// rootTransfer is the one walk that differs on purpose: it does not bounce.
var rootTransfer = walkKind{name: "root transfer", lays: true, run: func(ar *arena, key ids.ID) {
	ar.a.forwardPointerPath(ar.plant(key), 0, nil, ids.ID{}, false)
}}

// traffic is what a walk cost the network: every message sent, and how many
// were addressed to each address (requests, response legs and probes that
// found nobody alike).
type traffic struct {
	messages int64
	load     [64]int64
}

func (ar *arena) measure(run func()) traffic {
	ar.m.net.EnableLoadTracking() // reset
	before := ar.m.net.TotalMessages()
	run()
	tr := traffic{messages: ar.m.net.TotalMessages() - before}
	for a := range tr.load {
		tr.load[a] = ar.m.net.LoadAt(netsim.Addr(a))
	}
	return tr
}

func nodeName(n *Node) string {
	if n == nil {
		return "nobody"
	}
	return n.id.String()
}

// rootOf returns the node flagged as the root of a's (server, key) path.
func (ar *arena) rootOf(key ids.ID) *Node {
	for _, n := range ar.m.Nodes() {
		n.mu.Lock()
		st := n.find(key)
		n.mu.Unlock()
		if st == nil {
			continue
		}
		for _, r := range st.recs {
			if r.samePath(ar.a.id, key) && r.root {
				return n
			}
		}
	}
	return nil
}

// TestOneWalkPolicy drives every walk kind through the same three faults and
// requires the same traffic — message for message, address for address — and
// the same end node from each: the hop policy is the driver's, not the
// operation's.
func TestOneWalkPolicy(t *testing.T) {
	shapes := []struct {
		name  string
		fault func(t *testing.T, ar *arena)
		// The walk a→…→end as hops taken, plus probes that failed.
		hops, failed int
		// teardown names the node a trail-laying walk additionally sends one
		// DeleteBack to (Figure 9); nil when its path meets no older one.
		teardown func(ar *arena) *Node
		end      func(ar *arena) *Node
		check    func(t *testing.T, ar *arena, tr traffic)
	}{
		{
			name:  "healthy",
			fault: func(*testing.T, *arena) {},
			hops:  3, end: func(ar *arena) *Node { return ar.r },
		},
		{
			// Fails over to the secondary: one probe, one noteDead, one
			// retry — and the corpse is remembered past the node that found it.
			name:  "dead primary",
			fault: func(_ *testing.T, ar *arena) { ar.m.Fail(ar.c) },
			hops:  3, failed: 1, end: func(ar *arena) *Node { return ar.r },
			check: func(t *testing.T, ar *arena, tr traffic) {
				if ar.a.Table().Contains(0, ar.c.id) {
					t.Error("a still links to the corpse: noteDead did not run")
				}
				if !ar.s.Table().Contains(1, ar.c.id) {
					t.Error("s dropped the corpse: it was probed a second time")
				}
			},
		},
		{
			// o hands the walk to the inserter x with four digits resolved; x
			// bounces it to its pre-insertion surrogate o, which resumes at
			// |α| = 3 — anything later and o, already past its last digit,
			// would end the walk itself — without x, and so reaches r. o is
			// entered twice, which the restarted loop memory must allow; a
			// walk laying a trail finds its own record there, now arriving
			// from x instead of c, and tears the trail through c down.
			name:  "inserting terminal",
			fault: func(t *testing.T, ar *arena) { ar.inserter(t) },
			hops:  5, end: func(ar *arena) *Node { return ar.r },
			teardown: func(ar *arena) *Node { return ar.c },
		},
		{
			// The cut link fails the hop like a dead host would, and no later
			// node tries the cut peer again.
			name: "partitioned primary",
			fault: func(_ *testing.T, ar *arena) {
				sides := make([]int, 64)
				sides[ar.c.addr] = 1
				ar.m.net.SetPartition(sides)
			},
			hops: 3, failed: 1, end: func(ar *arena) *Node { return ar.r },
			check: func(t *testing.T, ar *arena, tr traffic) {
				if got := tr.load[ar.c.addr]; got != 1 {
					t.Errorf("%d messages addressed to the cut peer, want the one refused probe", got)
				}
			},
		},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			ar := newArena(t)
			sh.fault(t, ar)
			if end, _, err := ar.a.SurrogateFor(ar.key, nil); err != nil || end != sh.end(ar) {
				t.Fatalf("route ends at %v (err %v), want %v", nodeName(end), err, sh.end(ar).id)
			}
			var want traffic
			for i, k := range walkKinds {
				ar := newArena(t)
				sh.fault(t, ar)
				tr := ar.measure(func() { k.run(ar, ar.key) })
				if i == 0 {
					want = tr
					if n := int64(2*sh.hops + sh.failed); tr.messages != n {
						t.Fatalf("route sent %d messages, want %d (%d hops, %d failed probes)", tr.messages, n, sh.hops, sh.failed)
					}
				}
				want := want
				if k.lays && sh.teardown != nil {
					want.messages++
					want.load[sh.teardown(ar).addr]++
				}
				if !reflect.DeepEqual(tr, want) {
					t.Errorf("%s: traffic differs from route's:\n got  %v\n want %v", k.name, tr, want)
				}
				if k.lays {
					if root := ar.rootOf(ar.key); root != sh.end(ar) {
						t.Errorf("%s: path rooted at %v, want %v", k.name, nodeName(root), sh.end(ar).id)
					}
				}
				if sh.check != nil {
					sh.check(t, ar, tr)
				}
			}
		})
	}
}

// TestRootTransferEndsAtInserter: the one purposeful exception to Figure 10.
// A root transfer hands the record TO the node that is inserting, so its walk
// must end and deposit there instead of bouncing off it.
func TestRootTransferEndsAtInserter(t *testing.T) {
	ar := newArena(t)
	x := ar.inserter(t)
	tr := ar.measure(func() { rootTransfer.run(ar, ar.key) })
	if tr.messages != 6 {
		t.Errorf("root transfer sent %d messages, want 6 (a→c→o→x)", tr.messages)
	}
	if root := ar.rootOf(ar.key); root != x {
		t.Errorf("record rooted at %v, want the inserter %v", nodeName(root), x.id)
	}
}

// TestStubLocalWalkStaysInStub: z, alone in stub 1, is a's closest neighbor
// for first digit 1, so the wide area routes key 1230 through it; a walk
// confined to stub 0 must take y instead and address nothing to z.
func TestStubLocalWalkStaysInStub(t *testing.T) {
	for _, k := range walkKinds {
		ar := newArena(t)
		tr := ar.measure(func() { k.run(ar, ar.offKey) })
		if got := tr.load[ar.z.addr]; k.local && got != 0 {
			t.Errorf("%s: %d messages left the stub", k.name, got)
		} else if !k.local && got == 0 {
			t.Errorf("%s: the wide-area walk avoided z; the set-up no longer tests anything", k.name)
		}
		if k.local && tr.load[ar.y.addr] == 0 {
			t.Errorf("%s: the confined walk did not take the in-stub neighbor", k.name)
		}
	}
}

// TestWalkEndsOnDeadNodeWithDeadNextHop: a crash can land on the node a walk
// stands on while its message is in flight (the event engine parks a join's
// root transfer mid-send; goroutine churn does it for real). noteDead is a
// no-op on a dead node, so a walk that relied on it to make progress — and
// did not count its retries — probed the same corpse forever. Every kind must
// instead return, within the hop guard.
func TestWalkEndsOnDeadNodeWithDeadNextHop(t *testing.T) {
	for _, k := range append(walkKinds[:len(walkKinds):len(walkKinds)], rootTransfer) {
		ar := newArena(t)
		ar.m.Fail(ar.c)
		ar.m.Fail(ar.a)
		done := make(chan traffic, 1)
		go func() { done <- ar.measure(func() { k.run(ar, ar.key) }) }()
		select {
		case tr := <-done:
			if guard := int64(2 * (arenaSpec.Digits*arenaSpec.Base + 8 + 1)); tr.messages > guard {
				t.Errorf("%s: %d messages, beyond the hop guard's %d", k.name, tr.messages, guard)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: the walk never returned (livelock on a dead node's dead next hop)", k.name)
		}
	}
}

func (tr traffic) String() string {
	s := fmt.Sprintf("%d messages, to", tr.messages)
	for a, n := range tr.load {
		if n > 0 {
			s += fmt.Sprintf(" @%d×%d", a, n)
		}
	}
	return s
}
