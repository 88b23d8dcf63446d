package core

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"tapestry/internal/ids"
	"tapestry/internal/metric"
	"tapestry/internal/netsim"
	"tapestry/internal/wire"
)

// churnPhase is one epoch of the pinned churn script: the messages each phase
// spent and the dead links the heartbeat removed.
type churnPhase struct {
	join, leave, sweep, republish, removed int
}

// The constants below were recorded on the commit BEFORE the ordered-storage
// rewrite of the dynamics path (backpointer slices, flat sweep snapshot,
// ordered nnSearch pool, map-free caravan). That rewrite must keep every
// message, repair order and table byte-identical; any drift here is a
// behavior change, not a measurement.
//
// The leave column alone was re-pinned since (PR 16): Unpublish walked with a
// nil meter, so a Leave's Cost omitted its phase-2a traffic. No message was
// added — the network sent exactly what it sent before — the column grew by
// each epoch's unpublish messages (+0, +8, +6, +16, +16, +8, from 399, 467,
// 255, 350, 664, 742), and a leave's Cost now equals what the network counted
// while it ran, which runPinnedChurn checks.
var pinnedChurnPhases = [6]churnPhase{
	{join: 1398, leave: 399, sweep: 657, republish: 831, removed: 197},
	{join: 1497, leave: 475, sweep: 541, republish: 870, removed: 237},
	{join: 1410, leave: 261, sweep: 1219, republish: 910, removed: 151},
	{join: 1265, leave: 366, sweep: 1356, republish: 942, removed: 172},
	{join: 1331, leave: 680, sweep: 563, republish: 978, removed: 216},
	{join: 1375, leave: 750, sweep: 1020, republish: 1029, removed: 160},
}

// pinnedPartitionRepublish is the republish traffic of one maintenance epoch
// with the address space cut in two halves, and of the epoch after the cut
// heals. A partition fails hops by link, not by host: the caravan's memory of
// a failed hop is per visited node, and carrying it from one node's decisions
// to the next changes these counts.
var pinnedPartitionRepublish = [2]int{4570, 928}

const pinnedChurnHash = "031fc1753fe79d296e08e550b0ecdd180bb5784bf4550e7ffb80637455b66b3d"

// meshStateHash digests every routing table (forward sets in slot order with
// distance and flags), every backpointer set (distance order) and every
// pointer store (GUID order, records in stored order with all fields).
func meshStateHash(m *Mesh) string {
	h := sha256.New()
	for _, n := range m.Nodes() {
		n.mu.Lock()
		fmt.Fprintf(h, "node %v@%d state=%d\n", n.id, n.addr, n.state.load())
		for l := 0; l < n.table.Levels(); l++ {
			for d := 0; d < n.table.Base(); d++ {
				for _, e := range n.table.SetView(l, ids.Digit(d)) {
					fmt.Fprintf(h, "f %d/%d %v@%d %.17g %v %v\n", l, d, e.ID, e.Addr, e.Distance, e.Pinned, e.Leaving)
				}
			}
			fmt.Fprintf(h, "bc %d %d\n", l, n.table.BackCount(l))
			for _, e := range n.table.Backs(l) {
				fmt.Fprintf(h, "b %d %v@%d %.17g\n", l, e.ID, e.Addr, e.Distance)
			}
		}
		for _, g := range sortedGUIDs(nil, &n.objects) {
			for _, r := range n.find(g).recs {
				fmt.Fprintf(h, "o %v srv=%v@%d key=%v last=%v@%d lvl=%d ep=%d root=%v\n",
					g, r.server, r.serverAddr, r.key, r.lastHop, r.lastAddr, r.level, r.epoch, r.root)
			}
		}
		n.mu.Unlock()
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// runPinnedChurn drives the script: a 256-node mesh with two salted roots and
// 96 seeded objects, then six epochs of 4 joins (each joiner publishing two
// objects), 2 graceful leaves and 3 crashes, followed by the coalesced
// heartbeat and one soft-state maintenance epoch; then one maintenance epoch
// under a two-way partition and one after it heals.
func runPinnedChurn(t *testing.T, kind TransportKind) ([6]churnPhase, [2]int, string) {
	t.Helper()
	cfg := testConfig()
	cfg.RootSetSize = 2
	cfg.Transport = kind
	rng := rand.New(rand.NewSource(20020810))
	space := metric.NewRing(1024)
	m, err := NewMesh(netsim.New(space), cfg)
	if err != nil {
		t.Fatalf("NewMesh(%v): %v", kind, err)
	}
	t.Cleanup(func() { m.Close() })
	// The codec transports hand every handler a recycled request struct.
	// Overwriting it the moment the handler returns turns anything a handler
	// kept — the struct, a slice of it — into a drifted count or digest below.
	switch tr := m.tr.(type) {
	case *loopbackTransport:
		tr.afterDispatch = scribble
	case *tcpTransport:
		tr.srv.AfterDispatch = scribble
	}
	// The pointer store recycles its states the same way, under the same kind
	// of rule — nothing keeps a state or its records past the node's lock —
	// and gets the same treatment on every transport (store_test.go).
	m.afterRelease = poisonState
	perm := rng.Perm(space.Size())
	addrs := make([]netsim.Addr, 256)
	for i := range addrs {
		addrs[i] = netsim.Addr(perm[i])
	}
	if _, _, err := m.GrowSequential(addrs, rng); err != nil {
		t.Fatalf("GrowSequential(%v): %v", kind, err)
	}
	for i := 0; i < 96; i++ {
		srv := m.randomLiveNode(rng)
		if err := srv.Publish(testSpec.Hash(fmt.Sprintf("pinned-%d", i)), nil); err != nil {
			t.Fatalf("%v: publish: %v", kind, err)
		}
	}

	var phases [6]churnPhase
	born := 0
	for ep := range phases {
		var join, leave, sweep, repub netsim.Cost
		for j := 0; j < 4; j++ {
			n, c, err := m.Join(m.randomLiveNode(rng), m.freshID(rng), freeAddr(m))
			if err != nil {
				t.Fatalf("%v: epoch %d join: %v", kind, ep, err)
			}
			join.Merge(c)
			for k := 0; k < 2; k++ {
				if err := n.Publish(testSpec.Hash(fmt.Sprintf("born-%d", born)), &join); err != nil {
					t.Fatalf("%v: epoch %d publish: %v", kind, ep, err)
				}
				born++
			}
		}
		sent := m.net.TotalMessages()
		for j := 0; j < 2; j++ {
			if err := m.randomLiveNode(rng).Leave(&leave); err != nil {
				t.Fatalf("%v: epoch %d leave: %v", kind, ep, err)
			}
		}
		// A leave is charged every message it causes, its handlers' included.
		if sent = m.net.TotalMessages() - sent; int64(leave.Messages()) != sent {
			t.Errorf("%v: epoch %d: leaves were charged %d messages, the network counted %d", kind, ep, leave.Messages(), sent)
		}
		for j := 0; j < 3; j++ {
			m.Fail(m.randomLiveNode(rng))
		}
		removed := m.SweepDeadAll(&sweep)
		m.RunMaintenanceEpoch(&repub)
		phases[ep] = churnPhase{join.Messages(), leave.Messages(), sweep.Messages(), repub.Messages(), removed}
	}

	sides := make([]int, space.Size())
	for a := range sides {
		sides[a] = a * 2 / len(sides)
	}
	var cut, healed netsim.Cost
	m.net.SetPartition(sides)
	m.RunMaintenanceEpoch(&cut)
	m.net.HealPartition()
	m.RunMaintenanceEpoch(&healed)
	return phases, [2]int{cut.Messages(), healed.Messages()}, meshStateHash(m)
}

// scribble overwrites every field of a message, and every element its slices
// have room for, with values no protocol run produces.
func scribble(m wire.Msg) { scribbleValue(reflect.ValueOf(m).Elem()) }

func scribbleValue(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		switch v.Interface().(type) {
		case ids.ID:
			v.Set(reflect.ValueOf(ids.FromDigits([]ids.Digit{15, 15, 15, 14, 14, 14, 13, 13})))
		case ids.Prefix:
			v.Set(reflect.ValueOf(ids.PrefixFromDigits([]ids.Digit{15, 14, 13})))
		default:
			for i := 0; i < v.NumField(); i++ {
				scribbleValue(v.Field(i))
			}
		}
	case reflect.Slice:
		whole := v.Slice(0, v.Cap())
		for i := 0; i < whole.Len(); i++ {
			scribbleValue(whole.Index(i))
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(-7777)
	case reflect.Uint8:
		v.SetUint(0xEE)
	case reflect.Float64:
		v.SetFloat(math.Inf(-1))
	case reflect.Bool:
		v.SetBool(!v.Bool())
	default:
		panic(fmt.Sprintf("scribble: unhandled kind %v", v.Kind()))
	}
}

// TestScribbleReachesEveryField keeps the retention guard honest: a scribbled
// message of every core type must differ from the original in its encoding.
func TestScribbleReachesEveryField(t *testing.T) {
	for _, typ := range wire.Types() {
		if typ >= wire.TClusterInstall {
			continue // the cluster protocol does not travel these transports
		}
		m := wire.New(typ)
		if s := reflect.ValueOf(m).Elem(); s.NumField() == 1 && s.Field(0).Kind() == reflect.Slice {
			s.Field(0).Set(reflect.MakeSlice(s.Field(0).Type(), 2, 2)) // a list is all it carries
		}
		before := wire.AppendFrame(nil, m)
		scribble(m)
		if after := wire.AppendFrame(nil, m); len(before) > 5 && string(before) == string(after) {
			t.Errorf("%v: scribble left the message unchanged", typ)
		}
	}
}

// TestChurnFingerprintPinned replays the pinned churn script on all three
// transports and requires the per-phase message counts, the links the sweep
// removed and the final mesh digest to equal the recorded constants exactly.
func TestChurnFingerprintPinned(t *testing.T) {
	for _, kind := range allTransports {
		phases, partition, hash := runPinnedChurn(t, kind)
		if phases != pinnedChurnPhases {
			t.Errorf("%v: per-phase costs drifted:\n got  %+v\n want %+v", kind, phases, pinnedChurnPhases)
		}
		if partition != pinnedPartitionRepublish {
			t.Errorf("%v: republish under/after partition sent %v messages, want %v", kind, partition, pinnedPartitionRepublish)
		}
		if hash != pinnedChurnHash {
			t.Errorf("%v: mesh digest %s, want %s", kind, hash, pinnedChurnHash)
		}
	}
}
