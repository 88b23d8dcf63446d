package tapestry

import (
	"errors"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func newNet(t testing.TB, nodes int) (*Network, []*Node) {
	t.Helper()
	nw, err := New(RingSpace(nodes*4), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	ns, err := nw.Grow(nodes)
	if err != nil {
		t.Fatal(err)
	}
	return nw, ns
}

func TestFacadeLifecycle(t *testing.T) {
	nw, nodes := newNet(t, 24)
	if nw.Size() != 24 || len(nw.Nodes()) != 24 {
		t.Fatalf("size %d", nw.Size())
	}
	if _, err := nodes[0].Publish("hello"); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		res, cost := n.Locate("hello")
		if !res.Found {
			t.Fatalf("locate failed from %s", n.ID())
		}
		if res.ServerID != nodes[0].ID() {
			t.Fatalf("wrong server %s", res.ServerID)
		}
		if n != nodes[0] && cost.Messages == 0 {
			t.Error("no cost charged")
		}
	}
	if v := nw.CheckConsistency(); len(v) != 0 {
		t.Fatalf("consistency: %v", v)
	}
	if s := nw.Stats(); s.Nodes != 24 || s.TotalPointers == 0 || s.String() == "" {
		t.Errorf("stats: %+v", s)
	}
}

func TestFacadeUnpublish(t *testing.T) {
	_, nodes := newNet(t, 16)
	pub, _ := nodes[3].Publish("temp")
	// The withdrawal retraces the publish path, and reports what it cost.
	if unpub := nodes[3].Unpublish("temp"); unpub.Messages == 0 || unpub.Messages != pub.Messages {
		t.Errorf("unpublish cost %d messages, the publish over the same path %d", unpub.Messages, pub.Messages)
	}
	if res, _ := nodes[8].Locate("temp"); res.Found {
		t.Error("found after unpublish")
	}
}

func TestFacadeLeaveAndFail(t *testing.T) {
	nw, nodes := newNet(t, 24)
	nodes[0].Publish("durable")
	if _, err := nodes[5].Leave(); err != nil {
		t.Fatal(err)
	}
	if nw.Size() != 23 {
		t.Errorf("size after leave: %d", nw.Size())
	}
	nw.Fail(nodes[7])
	nw.SweepFailures()
	nw.RunMaintenance()
	for _, n := range nw.Nodes() {
		if res, _ := n.Locate("durable"); !res.Found {
			t.Fatalf("object lost after churn (client %s)", n.ID())
		}
	}
	if v := nw.CheckConsistency(); len(v) != 0 {
		t.Fatalf("consistency after churn: %v", v)
	}
}

func TestFacadeConfigVariants(t *testing.T) {
	cfg := Defaults()
	cfg.PRRRouting = true
	cfg.RootSetSize = 2
	cfg.Base = 4
	cfg.Digits = 12
	nw, err := New(RingSpace(128), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := nw.Grow(16)
	if err != nil {
		t.Fatal(err)
	}
	ns[0].Publish("x")
	if res, _ := ns[10].Locate("x"); !res.Found {
		t.Error("PRR-variant locate failed")
	}
	// Invalid config.
	bad := Defaults()
	bad.R = 1
	if _, err := New(RingSpace(8), bad); err == nil {
		t.Error("R=1 accepted")
	}
}

func TestFacadeSpaceConstructors(t *testing.T) {
	if RingSpace(8).Size() != 8 {
		t.Error("ring")
	}
	if TorusSpace(4).Size() != 16 {
		t.Error("torus")
	}
	if CloudSpace(10, 1).Size() != 10 {
		t.Error("cloud")
	}
	if RandomGraphSpace(12, 2, 1).Size() != 12 {
		t.Error("graph")
	}
	if TransitStubSpace(1).Size() == 0 {
		t.Error("transit-stub")
	}
}

func TestFacadeSpaceFull(t *testing.T) {
	nw, err := New(RingSpace(4), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Grow(5); err == nil {
		t.Error("overfull space accepted")
	}
}

func TestFacadeStubLocality(t *testing.T) {
	nw, err := New(TransitStubSpace(3), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := nw.Grow(48)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[0].PublishLocal("regional"); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range nodes[1:] {
		res, _, _ := n.LocateLocal("regional")
		if res.Found {
			found = true
		}
	}
	if !found {
		t.Error("nobody found the regional object")
	}
}

func TestFacadeLinkFaults(t *testing.T) {
	cfg := Defaults()
	cfg.LinkLossRate = 0.5
	// The oracle static build constructs the mesh without messages: the
	// injected loss then hits only the measured lookups, not the joins.
	cfg.StaticBuild = true
	nw, err := New(RingSpace(128), cfg)
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := nw.Grow(24)
	if err != nil {
		t.Fatal(err)
	}
	nodes[0].Publish("stormy")
	for _, n := range nodes {
		n.Locate("stormy")
	}
	s := nw.Stats()
	if s.LinkLost == 0 {
		t.Fatalf("no messages lost at 50%% loss: %+v", s)
	}
	if s.String() == "" || !strings.Contains(s.String(), "lost=") {
		t.Errorf("stats string omits fault tallies: %q", s.String())
	}

	// Clearing faults stops the injection: the tallies freeze. (Lookups are
	// not asserted flawless — a loss mid-route makes the sender treat the
	// silent peer as dead and evict it, and that routing-state scar
	// legitimately outlives the faulty era; see the chaos README section.)
	nw.ClearFaults()
	before := nw.Stats().LinkLost
	for _, n := range nodes {
		n.Locate("stormy")
	}
	if got := nw.Stats().LinkLost; got != before {
		t.Errorf("faults still injected after ClearFaults: %d -> %d", before, got)
	}

	// Mid-run reconfiguration validates its rates.
	if err := nw.SetLinkFaults(0.1, 0.05); err != nil {
		t.Fatal(err)
	}
	if err := nw.SetLinkFaults(0.7, 0.7); err == nil {
		t.Error("rates summing past 1 accepted")
	}
	if err := nw.SetLinkFaults(-0.1, 0); err == nil {
		t.Error("negative rate accepted")
	}
	cfg.LinkLossRate, cfg.LinkDupRate = 2, 0
	if _, err := New(RingSpace(64), cfg); err == nil {
		t.Error("invalid Config.LinkLossRate accepted")
	}
}

// TestNewRejectsSpecPastCapacity: an identifier holds twenty digits; a
// configuration asking for more is an error from New on the protocols that
// draw identifiers from the Spec, not a panic in the first constructor that
// would have to build one.
func TestNewRejectsSpecPastCapacity(t *testing.T) {
	for _, p := range []Protocol{Tapestry, Pastry} {
		cfg := Defaults()
		cfg.Digits = 21
		if nw, err := NewProtocol(RingSpace(64), p, cfg); err == nil {
			nw.Close()
			t.Errorf("%v: Config.Digits = 21 accepted", p)
		}
		cfg.Digits = 20
		nw, err := NewProtocol(RingSpace(64), p, cfg)
		if err != nil {
			t.Errorf("%v: Config.Digits = 20 refused: %v", p, err)
			continue
		}
		if _, err := nw.Grow(4); err != nil {
			t.Errorf("%v: growing a 20-digit network: %v", p, err)
		}
		nw.Close()
	}
}

// TestFacadeLocateAllocationBudget pins what an operation allocates from the
// facade down: nothing. Core's walk allocates nothing, the operation's ledger
// lives in the bundle the walk recycles and comes back through the overlay by
// value, the server's ID is not rendered again (the node keeps its label), the
// GUID hashed from the name is a value, and — the loopback rows — so is every
// identifier the codec decodes on the way. The messages charged are checked
// alongside: a ledger that forgot to fold into the caller's would allocate
// nothing too.
func TestFacadeLocateAllocationBudget(t *testing.T) {
	var pool sync.Pool
	for i, item := 0, new(int); i < 64; i++ {
		pool.Put(item)
		if pool.Get() == nil {
			t.Skip("sync.Pool is dropping items (the race detector does, on purpose): allocation counts would measure that")
		}
	}
	for _, tr := range []Transport{TransportDirect, TransportLoopback} {
		t.Run(tr.String(), func(t *testing.T) {
			cfg := Defaults()
			cfg.Transport = tr
			nw, err := New(RingSpace(256), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer nw.Close()
			nodes, err := nw.Grow(64)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := nodes[0].Publish("budget"); err != nil {
				t.Fatal(err)
			}
			i := 0
			locate := func() {
				res, cost := nodes[i%len(nodes)].Locate("budget")
				if !res.Found || res.ServerID != nodes[0].ID() {
					t.Fatalf("locate from %s: %+v", nodes[i%len(nodes)].ID(), res)
				}
				// The last hop to the replica is an exchange of its own, so a
				// locate that leaves its node costs two messages a hop.
				if cost.Hops != res.Hops || cost.Messages != 2*res.Hops {
					t.Fatalf("locate from %s: %d hops charged %+v", nodes[i%len(nodes)].ID(), res.Hops, cost)
				}
				i++
			}
			locate() // warms the frame pool
			if n := testing.AllocsPerRun(500, locate); n != 0 {
				t.Errorf("%v allocs per facade Locate, want none", n)
			}

			// Publish and unpublish alternate on one name, each half counted
			// on its own (AllocsPerRun could only average the pair).
			const rounds = 300
			var counts [2]uint64
			ops := [2]func(){
				func() {
					if cost, err := nodes[1].Publish("written"); err != nil || cost.Messages == 0 {
						t.Fatalf("publish charged %+v, err %v", cost, err)
					}
				},
				func() {
					if cost := nodes[1].Unpublish("written"); cost.Messages == 0 {
						t.Fatalf("unpublish charged %+v", cost)
					}
				},
			}
			ops[0]() // warms the path nodes' free lists
			ops[1]()
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			for r := 0; r < rounds; r++ {
				for k, op := range ops {
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					op()
					runtime.ReadMemStats(&after)
					counts[k] += after.Mallocs - before.Mallocs
				}
			}
			for k, name := range [2]string{"Publish", "Unpublish"} {
				if counts[k] >= rounds/10 { // a stray runtime allocation or two in 300 rounds is not the operation's
					t.Errorf("%d allocs in %d facade %s calls, want none", counts[k], rounds, name)
				}
			}
		})
	}
}

// TestFacadeRejectsOutOfRangeInput pins the package comment's "never panic"
// at the facade boundary: a point outside the metric space and a negative
// node count are errors (RegionOf answers -1), on every backing protocol,
// and none of them changes the membership.
func TestFacadeRejectsOutOfRangeInput(t *testing.T) {
	cases := []struct {
		name string
		call func(nw *Network) error // non-nil = rejected
	}{
		{"AddNode past the space", func(nw *Network) error { _, _, err := nw.AddNode(99); return err }},
		{"AddNode at the space's size", func(nw *Network) error { _, _, err := nw.AddNode(16); return err }},
		{"AddNode negative", func(nw *Network) error { _, _, err := nw.AddNode(-3); return err }},
		{"Grow negative", func(nw *Network) error { _, err := nw.Grow(-1); return err }},
	}
	for _, p := range []Protocol{Tapestry, Chord, Pastry, CAN, Directory} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			for _, populated := range []bool{false, true} {
				nw, err := NewProtocol(RingSpace(16), p, Defaults())
				if err != nil {
					t.Fatal(err)
				}
				defer nw.Close()
				if populated {
					if _, err := nw.Grow(4); err != nil {
						t.Fatal(err)
					}
				}
				size := nw.Size()
				for _, c := range cases {
					if err := c.call(nw); err == nil {
						t.Errorf("%s (populated=%v): accepted", c.name, populated)
					}
					if nw.Size() != size {
						t.Fatalf("%s (populated=%v): membership %d -> %d", c.name, populated, size, nw.Size())
					}
				}
			}

			space := TransitStubSpace(3)
			nw, err := NewProtocol(space, p, Defaults())
			if err != nil {
				t.Fatal(err)
			}
			defer nw.Close()
			for _, addr := range []int{-1, space.Size(), space.Size() + 7} {
				if r := nw.RegionOf(addr); r != -1 {
					t.Errorf("RegionOf(%d) = %d, want -1", addr, r)
				}
			}
		})
	}
}

// TestVirtualTimeSurface is the consumer that keeps Config.EventDriven,
// Schedule, RunEvents and VirtualNow on the facade: locates scheduled at
// distinct virtual times around a scheduled Leave all succeed, the clock ends
// past the last scheduled start, the same seed replays the same traffic, and
// a direct-call network refuses both calls with ErrNotEventDriven.
func TestVirtualTimeSurface(t *testing.T) {
	const lastAt = 9.0
	run := func() (msgs int64, now float64) {
		cfg := Defaults()
		cfg.EventDriven = true
		cfg.Seed = 7
		nw, err := New(RingSpace(128), cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes, err := nw.Grow(32)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nodes[0].Publish("timed"); err != nil {
			t.Fatal(err)
		}
		if nw.VirtualNow() != 0 {
			t.Fatalf("clock at %v before any event ran", nw.VirtualNow())
		}
		found := 0
		locate := func(n *Node) func() {
			return func() {
				if res, _ := n.Locate("timed"); res.Found {
					found++
				}
			}
		}
		// Locates on both sides of — and, in virtual time, during — the
		// departure of a node that is neither client nor server.
		ats := []float64{1, 2.5, 4, 4.001, 4.002, 6, lastAt}
		for i, at := range ats {
			if err := nw.Schedule(at, locate(nodes[1+i])); err != nil {
				t.Fatal(err)
			}
		}
		if err := nw.Schedule(4, func() {
			if _, err := nodes[20].Leave(); err != nil {
				t.Errorf("scheduled Leave: %v", err)
			}
		}); err != nil {
			t.Fatal(err)
		}
		if err := nw.RunEvents(); err != nil {
			t.Fatal(err)
		}
		if found != len(ats) {
			t.Errorf("%d of %d scheduled locates found the object", found, len(ats))
		}
		if nw.Size() != 31 {
			t.Errorf("size %d after the scheduled Leave, want 31", nw.Size())
		}
		return nw.TotalMessages(), nw.VirtualNow()
	}
	msgs, now := run()
	if now <= lastAt {
		t.Errorf("VirtualNow %v not past the last scheduled start %v", now, lastAt)
	}
	if again, _ := run(); again != msgs {
		t.Errorf("same seed replayed %d messages, then %d", msgs, again)
	}

	direct, _ := newNet(t, 4)
	if err := direct.Schedule(1, func() {}); !errors.Is(err, ErrNotEventDriven) {
		t.Errorf("Schedule on a direct-call network: %v", err)
	}
	if err := direct.RunEvents(); !errors.Is(err, ErrNotEventDriven) {
		t.Errorf("RunEvents on a direct-call network: %v", err)
	}
	if direct.VirtualNow() != 0 {
		t.Errorf("direct-call clock at %v", direct.VirtualNow())
	}
}

// TestBenchModuleVets type-checks the frozen benchmark harness against this
// tree. bench/ is a module of its own, so `go test ./...` here never compiles
// it, and a deleted internal symbol it imports would otherwise break it
// unseen.
func TestBenchModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a second module")
	}
	cmd := exec.Command("go", "vet", "./...")
	cmd.Dir = "bench"
	if out, err := cmd.CombinedOutput(); err != nil || len(out) != 0 {
		t.Fatalf("go vet ./... in bench/: %v\n%s", err, out)
	}
}
