package netsim

import (
	"errors"
	"sync"
	"testing"

	"tapestry/internal/metric"
)

func newNet() *Network { return New(metric.NewRing(16)) }

func TestAttachDetachAlive(t *testing.T) {
	n := newNet()
	if n.Alive(3) {
		t.Error("fresh address should be dead")
	}
	n.Attach(3)
	if !n.Alive(3) {
		t.Error("attached address should be alive")
	}
	if n.LiveCount() != 1 {
		t.Errorf("LiveCount = %d", n.LiveCount())
	}
	n.Detach(3)
	if n.Alive(3) || n.LiveCount() != 0 {
		t.Error("detach failed")
	}
}

func TestSendChargesAndFails(t *testing.T) {
	n := newNet()
	n.Attach(0)
	n.Attach(4)
	var c Cost
	if err := n.Send(0, 4, &c, true); err != nil {
		t.Fatalf("send to live node: %v", err)
	}
	if c.Messages() != 1 || c.Hops() != 1 || c.Distance() != 4 {
		t.Errorf("cost after send: %s", &c)
	}
	// Dead destination: error, but the attempt is still charged.
	if err := n.Send(0, 9, &c, false); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("expected ErrUnreachable, got %v", err)
	}
	if c.Messages() != 2 || c.Hops() != 1 {
		t.Errorf("failed send must still be charged: %s", &c)
	}
	if n.TotalMessages() != 2 {
		t.Errorf("TotalMessages = %d", n.TotalMessages())
	}
}

func TestRPCCost(t *testing.T) {
	n := newNet()
	n.Attach(1)
	n.Attach(2)
	var c Cost
	if err := n.RPC(1, 2, &c); err != nil {
		t.Fatal(err)
	}
	if c.Messages() != 2 || c.Hops() != 1 || c.Distance() != 2 {
		t.Errorf("rpc cost: %s", &c)
	}
}

func TestNilCostSafe(t *testing.T) {
	n := newNet()
	n.Attach(0)
	n.Attach(1)
	var nilCost *Cost
	if err := n.Send(0, 1, nilCost, true); err != nil {
		t.Fatal(err)
	}
	nilCost.Add(3, true) // must not panic
	if nilCost.Messages() != 0 || nilCost.Distance() != 0 {
		t.Error("nil cost must read as zero")
	}
	var c Cost
	c.Merge(nilCost)
	nilCost.Merge(&c)
}

func TestCostMerge(t *testing.T) {
	var a, b Cost
	a.Add(1, true)
	b.Add(2, false)
	b.Add(3, true)
	a.Merge(&b)
	m, h, d := a.Snapshot()
	if m != 3 || h != 2 || d != 6 {
		t.Errorf("merge: msgs=%d hops=%d dist=%g", m, h, d)
	}
}

// TestCostResetKeepsStripe pins what Reset is for: a recycled ledger meters
// the next operation from zero, on the counter stripe it was given once.
func TestCostResetKeepsStripe(t *testing.T) {
	n := newNet()
	n.Attach(0)
	n.Attach(4)
	var c Cost
	c.UseStripe()
	stripe := c.stripe
	if stripe == 0 || int(stripe) > sentStripes {
		t.Fatalf("UseStripe gave stripe %d, want 1..%d", stripe, sentStripes)
	}
	c.Stamp(2)
	_ = n.Send(0, 4, &c, true)
	c.Reset()
	if m, h, d := c.Snapshot(); m != 0 || h != 0 || d != 0 {
		t.Errorf("after Reset: %s", &c)
	}
	if _, _, ok := c.VirtualSpan(); ok {
		t.Error("Reset kept the virtual span")
	}
	if c.stripe != stripe {
		t.Errorf("Reset moved the ledger from stripe %d to %d", stripe, c.stripe)
	}
	_ = n.Send(0, 4, &c, true)
	if got := n.sent[stripe-1].n.Load(); got != 2 {
		t.Errorf("stripe %d counted %d of the ledger's 2 messages", stripe-1, got)
	}
	// The stripe names where a ledger counts, not what it counted: Merge
	// leaves the receiver's alone.
	var sum Cost
	sum.Merge(&c)
	if sum.stripe != 0 || sum.Messages() != 1 {
		t.Errorf("Merge: stripe %d, %s", sum.stripe, &sum)
	}
}

// TestLivenessConcurrent races attaches, detaches, sends and live counts on
// the lock-free bitset; the maintained count must end exact, and -race must
// stay silent.
func TestLivenessConcurrent(t *testing.T) {
	n := New(metric.NewRing(512))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker owns a disjoint 63-address range so the final state
			// is known — but 63 is deliberately NOT word-aligned, so adjacent
			// workers hammer the same bitset words and the CAS loop really
			// contends.
			base := Addr(w * 63)
			for r := 0; r < 50; r++ {
				for a := Addr(0); a < 63; a++ {
					n.Attach(base + a)
					n.Attach(base + a) // idempotent: must not double-count
				}
				for a := Addr(0); a < 63; a++ {
					_ = n.Alive(base + a)
					_ = n.Send(base, base+a, nil, false)
				}
				_ = n.LiveCount()
				for a := Addr(32); a < 63; a++ {
					n.Detach(base + a)
					n.Detach(base + a)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := n.LiveCount(); got != 8*32 {
		t.Errorf("LiveCount = %d after concurrent churn, want %d", got, 8*32)
	}
	for w := 0; w < 8; w++ {
		if !n.Alive(Addr(w*63)) || n.Alive(Addr(w*63+62)) {
			t.Fatalf("worker %d range in wrong state", w)
		}
	}
}

// TestAddrBoundsPanic pins the padded-word guard: addresses beyond the space
// must fail at the call site, not set phantom bits in the last bitset word.
func TestAddrBoundsPanic(t *testing.T) {
	n := New(metric.NewRing(100)) // 2 words = 128 bits for 100 addresses
	for name, f := range map[string]func(){
		"attach": func() { n.Attach(120) },
		"alive":  func() { n.Alive(120) },
		"detach": func() { n.Detach(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected out-of-range panic", name)
				}
			}()
			f()
		}()
	}
	if n.LiveCount() != 0 {
		t.Error("failed operations must not touch the live count")
	}
}

func TestEpochs(t *testing.T) {
	n := newNet()
	if n.Epoch() != 0 {
		t.Error("epoch should start at 0")
	}
	if n.Tick() != 1 || n.Epoch() != 1 {
		t.Error("tick")
	}
}

func TestDistanceDelegates(t *testing.T) {
	n := newNet()
	if n.Distance(0, 8) != 8 || n.Distance(0, 15) != 1 {
		t.Error("distance does not match ring metric")
	}
	if n.Size() != 16 {
		t.Error("size")
	}
	if n.Space().Name() == "" {
		t.Error("space accessor")
	}
}
