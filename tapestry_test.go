package tapestry

import (
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

// TestFacadeLocateAllocationBudget pins what a locate costs above core: the
// GUID hashed from the name and the Cost the overlay hands back. Core's walk
// allocates nothing, the server's ID is not rendered again (the node keeps its
// label), and the digits of the hash are drawn on the stack.
func TestFacadeLocateAllocationBudget(t *testing.T) {
	var pool sync.Pool
	for i, item := 0, new(int); i < 64; i++ {
		pool.Put(item)
		if pool.Get() == nil {
			t.Skip("sync.Pool is dropping items (the race detector does, on purpose): allocation counts would measure that")
		}
	}
	_, nodes := newNet(t, 64)
	if _, err := nodes[0].Publish("budget"); err != nil {
		t.Fatal(err)
	}
	i := 0
	locate := func() {
		if res, _ := nodes[i%len(nodes)].Locate("budget"); !res.Found || res.ServerID != nodes[0].ID() {
			t.Fatalf("locate from %s: %+v", nodes[i%len(nodes)].ID(), res)
		}
		i++
	}
	locate() // warms the frame pool
	if n := testing.AllocsPerRun(500, locate); n > 2 {
		t.Errorf("%v allocs per facade Locate, want at most 2", n)
	}
}
