package tapestry

import (
	"net"
	"runtime"
	"testing"
	"time"
)

// TestCloseIdempotent pins that Close can be called more than once — callers
// commonly pair a deferred Close with an explicit one on the error path —
// and that a default (direct-transport) network closes without error.
func TestCloseIdempotent(t *testing.T) {
	nw, _ := newNet(t, 8)
	if err := nw.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := nw.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestCloseTCPTeardown pins that closing a TCP-backed network tears down its
// listener and connection-pool goroutines: the goroutine count settles back
// to (at most) its pre-network level. The count is polled with a retry loop —
// connection readers exit asynchronously after the sockets close.
func TestCloseTCPTeardown(t *testing.T) {
	before := runtime.NumGoroutine()

	cfg := Defaults()
	cfg.Transport = TransportTCP
	nw, err := New(RingSpace(64), cfg)
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := nw.Grow(16)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-node traffic forces connections (and their reader goroutines)
	// into existence before the teardown being tested.
	if _, err := nodes[0].Publish("close-teardown"); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if res, _ := nodes[len(nodes)-1].Locate("close-teardown"); !res.Found {
		t.Fatal("object not found over TCP transport")
	}
	if during := runtime.NumGoroutine(); during <= before {
		t.Fatalf("TCP transport spawned no goroutines (%d before, %d during): test is vacuous", before, during)
	}

	if err := nw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := nw.Close(); err != nil {
		t.Fatalf("second Close after TCP teardown: %v", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // nudges finalizer-held stacks; cheap in a test
		after := runtime.NumGoroutine()
		if after <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after Close: %d before, %d after", before, after)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestStaticBuildKeepsLiveMeshHandle pins the facade's extended surface to
// the mesh StaticBuild actually built: Build replaces the adapter's mesh, and
// a handle taken before it made SweepFailures sweep an empty mesh and
// CheckConsistency audit nothing.
func TestStaticBuildKeepsLiveMeshHandle(t *testing.T) {
	cfg := Defaults()
	cfg.StaticBuild = true
	nw, err := New(RingSpace(256), cfg)
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := nw.Grow(64)
	if err != nil {
		t.Fatal(err)
	}
	if v := nw.CheckConsistency(); len(v) != 0 {
		t.Fatalf("static build inconsistent: %v", v)
	}
	nw.Fail(nodes[5])
	nw.Fail(nodes[40])
	if v := nw.CheckConsistency(); len(v) == 0 {
		t.Error("CheckConsistency reports nothing with two crashed nodes still linked: it is not auditing the live mesh")
	}
	if removed := nw.SweepFailures(); removed == 0 {
		t.Error("SweepFailures removed no links after two nodes failed: it is not sweeping the live mesh")
	}
}

// TestStaticBuildTCPCloseReleasesListeners: over TCP every mesh owns a
// listener. Build must close the one of the mesh it discards and Close the
// one of the mesh it built: afterwards a dial to the live mesh's old address
// is refused and no accept loop is left running.
func TestStaticBuildTCPCloseReleasesListeners(t *testing.T) {
	before := runtime.NumGoroutine()

	cfg := Defaults()
	cfg.StaticBuild = true
	cfg.Transport = TransportTCP
	nw, err := New(RingSpace(64), cfg)
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := nw.Grow(16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[0].Publish("static-tcp"); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if res, _ := nodes[len(nodes)-1].Locate("static-tcp"); !res.Found {
		t.Fatal("object not found over TCP transport")
	}
	listener, ok := nw.coreMesh().Transport().(interface{ Addr() net.Addr })
	if !ok {
		t.Fatal("the live mesh's transport exposes no listener address")
	}
	addr := listener.Addr().String()
	if c, err := net.Dial("tcp", addr); err != nil {
		t.Fatalf("live listener %s not reachable before Close: %v", addr, err)
	} else {
		c.Close()
	}

	if err := nw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Errorf("listener %s still accepts connections after Close", addr)
	}

	// Both accept loops (the discarded pre-build mesh's and the live one's)
	// and the connection readers must be gone.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after Close: %d before, %d after", before, after)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
