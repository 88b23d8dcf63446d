package netsim

import (
	"errors"
	"sync"
	"testing"

	"tapestry/internal/metric"
)

// faultNet builds a small fully-attached network over a ring space.
func faultNet(t *testing.T, size int) *Network {
	t.Helper()
	n := New(metric.NewRing(size))
	for a := 0; a < size; a++ {
		n.Attach(Addr(a))
	}
	return n
}

// drive sends a fixed deterministic message pattern and returns the per-op
// cost ledger alongside the outcome of each send.
func drive(n *Network, msgs int) (cost *Cost, errs []error) {
	cost = &Cost{}
	size := n.Size()
	for i := 0; i < msgs; i++ {
		from := Addr(i % size)
		to := Addr((i*7 + 3) % size)
		errs = append(errs, n.Send(from, to, cost, true))
	}
	return cost, errs
}

// TestFaultFreeDefaultIdentical pins the satellite claim: a network that
// never configured faults behaves byte-identically to one that configured
// and then cleared them — same per-op cost, same network counters, zero
// fault accounting on the former.
func TestFaultFreeDefaultIdentical(t *testing.T) {
	virgin := faultNet(t, 32)
	cycled := faultNet(t, 32)
	cycled.SetLinkFaults(0.5, 0.25, 99)
	group := make([]int, 32)
	for i := 16; i < 32; i++ {
		group[i] = 1
	}
	cycled.SetPartition(group)
	cycled.ClearFaults()

	vc, verrs := drive(virgin, 200)
	cc, cerrs := drive(cycled, 200)

	for i := range verrs {
		if (verrs[i] == nil) != (cerrs[i] == nil) {
			t.Fatalf("send %d: virgin err=%v cycled err=%v", i, verrs[i], cerrs[i])
		}
	}
	vm, vh, vd := vc.Snapshot()
	cm, ch, cd := cc.Snapshot()
	if vm != cm || vh != ch || vd != cd {
		t.Fatalf("cost diverged: virgin (%d,%d,%g) vs cycled (%d,%d,%g)", vm, vh, vd, cm, ch, cd)
	}
	vs, cs := virgin.Stats(), cycled.Stats()
	if vs != cs {
		t.Fatalf("stats diverged: virgin %+v vs cycled %+v", vs, cs)
	}
	if vs.Lost != 0 || vs.Duplicated != 0 || vs.Blocked != 0 {
		t.Fatalf("fault counters nonzero on fault-free run: %+v", vs)
	}
	if vs.TotalMessages != 200 {
		t.Fatalf("TotalMessages = %d, want 200", vs.TotalMessages)
	}
}

func TestLinkLossAll(t *testing.T) {
	n := faultNet(t, 16)
	n.SetLinkFaults(1.0, 0, 7)
	cost, errs := drive(n, 50)
	for i, err := range errs {
		if !errors.Is(err, ErrUnreachable) {
			t.Fatalf("send %d: err = %v, want ErrUnreachable", i, err)
		}
	}
	s := n.Stats()
	if s.Lost != 50 || s.Duplicated != 0 || s.Blocked != 0 {
		t.Fatalf("stats = %+v, want 50 lost only", s)
	}
	// The attempt is still charged.
	if m := cost.Messages(); m != 50 {
		t.Fatalf("cost.Messages = %d, want 50", m)
	}
}

func TestDuplicationAll(t *testing.T) {
	n := faultNet(t, 16)
	n.EnableLoadTracking()
	n.SetLinkFaults(0, 1.0, 7)
	cost, errs := drive(n, 50)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("send %d: unexpected error %v", i, err)
		}
	}
	s := n.Stats()
	if s.Duplicated != 50 || s.Lost != 0 || s.Blocked != 0 {
		t.Fatalf("stats = %+v, want 50 duplicated only", s)
	}
	if s.TotalMessages != 100 {
		t.Fatalf("TotalMessages = %d, want 100 (each message doubled)", s.TotalMessages)
	}
	m, h, _ := cost.Snapshot()
	if m != 100 || h != 50 {
		t.Fatalf("cost = (%d msgs, %d hops), want (100, 50): duplicates are not hops", m, h)
	}
	var load int64
	for a := 0; a < n.Size(); a++ {
		load += n.LoadAt(Addr(a))
	}
	if load != 100 {
		t.Fatalf("summed load = %d, want 100", load)
	}
}

func TestPartialLossIsSeededAndBounded(t *testing.T) {
	runOnce := func() (int64, []error) {
		n := faultNet(t, 16)
		n.SetLinkFaults(0.3, 0, 42)
		_, errs := drive(n, 400)
		return n.Stats().Lost, errs
	}
	lostA, errsA := runOnce()
	lostB, errsB := runOnce()
	if lostA != lostB {
		t.Fatalf("same seed lost %d vs %d messages", lostA, lostB)
	}
	for i := range errsA {
		if (errsA[i] == nil) != (errsB[i] == nil) {
			t.Fatalf("send %d fate differs across identically seeded runs", i)
		}
	}
	if lostA < 60 || lostA > 180 {
		t.Fatalf("lost %d of 400 at rate 0.3 — far outside plausible range", lostA)
	}
}

func TestPartitionBlocksAndHeals(t *testing.T) {
	n := faultNet(t, 16)
	group := make([]int, 16)
	for i := 8; i < 16; i++ {
		group[i] = 1
	}
	n.SetPartition(group)

	cost := &Cost{}
	if err := n.Send(0, 7, cost, true); err != nil {
		t.Fatalf("same-side send failed: %v", err)
	}
	err := n.Send(0, 12, cost, true)
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("cross-cut send err = %v, want ErrUnreachable", err)
	}
	if err := n.RPC(9, 15, cost); err != nil {
		t.Fatalf("minority-side RPC failed: %v", err)
	}
	if s := n.Stats(); s.Blocked != 1 {
		t.Fatalf("Blocked = %d, want 1", s.Blocked)
	}

	n.HealPartition()
	if err := n.Send(0, 12, cost, true); err != nil {
		t.Fatalf("post-heal send failed: %v", err)
	}
	if s := n.Stats(); s.Blocked != 1 {
		t.Fatalf("Blocked grew after heal: %+v", s)
	}
}

// TestPartitionSurvivesLinkFaultReconfig pins the copy-on-write contract:
// changing one knob keeps the other, and the draw stream survives
// partition-only changes.
func TestPartitionSurvivesLinkFaultReconfig(t *testing.T) {
	n := faultNet(t, 16)
	group := make([]int, 16)
	for i := 8; i < 16; i++ {
		group[i] = 1
	}
	n.SetPartition(group)
	n.SetLinkFaults(0, 1.0, 3) // all-duplicate: deterministic without draws
	cost := &Cost{}
	if err := n.Send(0, 12, cost, true); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("partition dropped by SetLinkFaults: err = %v", err)
	}
	if err := n.Send(0, 7, cost, true); err != nil {
		t.Fatalf("same-side send failed: %v", err)
	}
	n.HealPartition()
	if err := n.Send(0, 12, cost, true); err != nil {
		t.Fatalf("post-heal send failed: %v", err)
	}
	if s := n.Stats(); s.Duplicated != 2 || s.Blocked != 1 {
		t.Fatalf("stats = %+v, want 2 duplicated, 1 blocked", s)
	}
}

func TestFaultRateValidation(t *testing.T) {
	n := faultNet(t, 8)
	for _, c := range []struct{ loss, dup float64 }{
		{-0.1, 0}, {0, -0.1}, {1.1, 0}, {0, 1.1}, {0.6, 0.6},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetLinkFaults(%v, %v) did not panic", c.loss, c.dup)
				}
			}()
			n.SetLinkFaults(c.loss, c.dup, 1)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SetPartition with short mask did not panic")
			}
		}()
		n.SetPartition([]int{0, 1})
	}()
}

// TestTotalMessagesExactUnderConcurrency pins the striped counter and the
// ledger's ownership rule together. Ten goroutines send from many addresses
// at once on one Network: eight meter their sends on a ledger with a counter
// stripe of its own (UseStripe), one on a zero-value ledger and one on no
// ledger at all (both counted by sender address). No ledger is shared — that
// is the rule, and what lets the ledger's fields be plain — so under -race
// the only shared writes are the Network's atomics, and the summed stripes
// equal exactly the sends made plus the duplicates injected, which is the sum
// of the ledgers plus the nil sender's count.
//
// At duplication rate 1 every send counts exactly twice, so each term is
// known on its own; at 0.3 some sends count twice and the duplicates only the
// nil sender's messages can account for must fit its sends.
func TestTotalMessagesExactUnderConcurrency(t *testing.T) {
	const striped, sends = 8, 4000
	const zeroValue, nilLedger = striped, striped + 1 // the two goroutines without a stripe
	const goroutines = striped + 2
	for _, dup := range []float64{0.3, 1} {
		n := faultNet(t, 256)
		n.SetLinkFaults(0, dup, 41)
		ledgers := make([]*Cost, goroutines)
		for g := range ledgers {
			if g != nilLedger {
				ledgers[g] = &Cost{}
			}
			if g < striped {
				ledgers[g].UseStripe()
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < sends; i++ {
					// Walk the senders so the address-striped goroutines hit
					// every stripe, the ledger-striped ones' included.
					from := Addr((g*31 + i) % 256)
					if err := n.Send(from, Addr((i*7+g)%256), ledgers[g], i%2 == 0); err != nil {
						t.Errorf("goroutine %d send %d: %v", g, i, err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		s := n.Stats()
		if dup < 1 && (s.Duplicated == 0 || s.Duplicated == goroutines*sends) {
			t.Fatalf("dup %g: duplicated = %d of %d sends: the rate did not take", dup, s.Duplicated, goroutines*sends)
		}
		if want := int64(goroutines*sends) + s.Duplicated; s.TotalMessages != want || n.TotalMessages() != want {
			t.Fatalf("dup %g: TotalMessages = %d (Stats %d), want %d sends + %d duplicates = %d",
				dup, n.TotalMessages(), s.TotalMessages, goroutines*sends, s.Duplicated, want)
		}
		var charged int64
		for g, c := range ledgers {
			if c == nil {
				continue
			}
			m, h, _ := c.Snapshot()
			// A duplicate is a message and never a hop.
			if h != sends/2 || m < sends || m > 2*sends || (dup == 1 && m != 2*sends) {
				t.Errorf("dup %g: ledger %d reads %s after %d sends, half of them hops", dup, g, c, sends)
			}
			charged += int64(m)
			if c.stripe != 0 {
				if got := n.sent[c.stripe-1].n.Load(); got < int64(m) {
					t.Errorf("dup %g: ledger %d charged %d messages, its stripe %d counted %d", dup, g, m, c.stripe-1, got)
				}
			}
		}
		// What no ledger was charged is the nil sender's: its sends, and
		// between none and all of them again.
		unmetered := s.TotalMessages - charged
		if unmetered < sends || unmetered > 2*sends || (dup == 1 && unmetered != 2*sends) {
			t.Fatalf("dup %g: ledgers charged %d of %d messages, leaving %d for the nil sender's %d sends",
				dup, charged, s.TotalMessages, unmetered, sends)
		}
	}
}

// TestSendErrorText pins the failure Send returns: it matches ErrUnreachable
// and reads as it always has, for each of the three causes.
func TestSendErrorText(t *testing.T) {
	down := faultNet(t, 16)
	down.Detach(5)
	cut := faultNet(t, 16)
	group := make([]int, 16)
	group[5] = 1
	cut.SetPartition(group)
	lossy := faultNet(t, 16)
	lossy.SetLinkFaults(1, 0, 3)
	for _, tc := range []struct {
		net  *Network
		want string
	}{
		{down, "netsim: destination unreachable: 3 -> 5"},
		{cut, "netsim: destination unreachable: 3 -> 5 (partitioned)"},
		{lossy, "netsim: destination unreachable: 3 -> 5 (message lost)"},
	} {
		err := tc.net.Send(3, 5, nil, true)
		if !errors.Is(err, ErrUnreachable) {
			t.Errorf("err = %v, want ErrUnreachable", err)
		}
		if err == nil || err.Error() != tc.want {
			t.Errorf("err = %q, want %q", err, tc.want)
		}
	}
}
