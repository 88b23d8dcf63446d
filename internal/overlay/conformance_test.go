package overlay

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"tapestry/internal/ids"
	"tapestry/internal/metric"
	"tapestry/internal/netsim"
)

// The conformance suite drives every registered protocol through the same
// lifecycle — build → publish → locate → churn (caps-gated) → maintain →
// locate — and pins the adapter contract:
//
//   - universal operations work and charge non-zero cost from remote clients;
//   - operations outside Caps() return a typed refusal matching
//     ErrUnsupported (and never panic);
//   - two identically-seeded runs produce identical results and identical
//     cost accounting, operation by operation.

const (
	confNodes   = 48
	confObjects = 8
	confSeed    = int64(42)
)

var confSpec = ids.Spec{Base: 16, Digits: 8}

// confTrace is the op-by-op record two identically-seeded runs must agree on.
type confTrace struct {
	lines []string
}

func (tr *confTrace) addf(format string, args ...interface{}) {
	tr.lines = append(tr.lines, fmt.Sprintf(format, args...))
}

func costLine(c netsim.Cost) string {
	m, h, d := c.Snapshot()
	return fmt.Sprintf("msgs=%d hops=%d dist=%.6f", m, h, d)
}

// runConformance drives one protocol instance through the lifecycle and
// returns the trace plus aggregate checks via t.
func runConformance(t *testing.T, b Builder, seed int64) *confTrace {
	t.Helper()
	tr := &confTrace{}
	space := metric.NewRing(8 * confNodes)
	net := netsim.New(space)
	p, err := b.New(net, Config{Spec: confSpec, Seed: seed})
	if err != nil {
		t.Fatalf("%s: New: %v", b.Name, err)
	}
	if p.Name() != b.Name {
		t.Fatalf("instance name %q != registry name %q", p.Name(), b.Name)
	}
	if p.Caps() != b.Caps {
		t.Fatalf("%s: instance caps %v != registry caps %v", b.Name, p.Caps(), b.Caps)
	}

	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(space.Size())
	addrs := make([]netsim.Addr, confNodes)
	for i := range addrs {
		addrs[i] = netsim.Addr(perm[i])
	}
	reserve := make([]netsim.Addr, 4)
	for i := range reserve {
		reserve[i] = netsim.Addr(perm[confNodes+i])
	}

	handles, buildMsgs, err := p.Build(addrs)
	if err != nil {
		t.Fatalf("%s: Build: %v", b.Name, err)
	}
	if len(handles) != confNodes || len(buildMsgs) != confNodes {
		t.Fatalf("%s: Build returned %d handles, %d costs", b.Name, len(handles), len(buildMsgs))
	}
	for i, h := range handles {
		if h.Addr() != addrs[i] {
			t.Fatalf("%s: handle %d at %d, want %d (address-order contract)", b.Name, i, h.Addr(), addrs[i])
		}
	}
	if _, _, err := p.Build(addrs); err == nil {
		t.Fatalf("%s: second Build accepted", b.Name)
	}
	if got := len(p.Handles()); got != confNodes {
		t.Fatalf("%s: Handles() = %d members, want %d", b.Name, got, confNodes)
	}
	tr.addf("build msgs=%v", buildMsgs)

	// Publish one object per server from the first confObjects members.
	for i := 0; i < confObjects; i++ {
		key := fmt.Sprintf("conf-%d", i)
		c, err := p.Publish(handles[i], key)
		if err != nil {
			t.Fatalf("%s: Publish %s: %v", b.Name, key, err)
		}
		tr.addf("publish %s %s", key, costLine(c))
	}

	// Locate every object from a fixed remote client; cost must be charged.
	client := handles[confNodes-1]
	totalMsgs := 0
	for i := 0; i < confObjects; i++ {
		key := fmt.Sprintf("conf-%d", i)
		res, c := p.Locate(client, key)
		if !res.Found {
			t.Fatalf("%s: object %s not found pre-churn", b.Name, key)
		}
		if res.Hops <= 0 {
			t.Errorf("%s: locate %s reported %d hops", b.Name, key, res.Hops)
		}
		m, _, _ := c.Snapshot()
		totalMsgs += m
		tr.addf("locate %s found=%v server=%d id=%q hops=%d %s",
			key, res.Found, res.Server, res.ServerID, res.Hops, costLine(c))
	}
	if totalMsgs == 0 {
		t.Errorf("%s: locate phase charged zero messages from a remote client", b.Name)
	}

	// Missing objects are a miss, not an error or panic.
	if res, _ := p.Locate(client, "conf-missing"); res.Found {
		t.Errorf("%s: found an object never published", b.Name)
	}

	// Churn, capability-gated. Unsupported operations must refuse with
	// ErrUnsupported; supported ones must succeed and be traced.
	caps := p.Caps()
	if caps.Has(CapJoin) {
		for i, a := range reserve {
			h, c, err := p.Join(a)
			if err != nil {
				t.Fatalf("%s: Join %d: %v", b.Name, a, err)
			}
			if h.Addr() != a {
				t.Fatalf("%s: joined handle at %d, want %d", b.Name, h.Addr(), a)
			}
			tr.addf("join %d %s", i, costLine(c))
		}
	} else {
		if _, _, err := p.Join(reserve[0]); !errors.Is(err, ErrUnsupported) {
			t.Errorf("%s: Join without CapJoin returned %v, want ErrUnsupported", b.Name, err)
		}
	}
	// Victims are non-servers (object availability must survive the churn).
	victims := p.Handles()[confObjects : confObjects+4]
	if caps.Has(CapLeave) {
		for i := 0; i < 2; i++ {
			c, err := p.Leave(victims[i])
			if err != nil {
				t.Fatalf("%s: Leave: %v", b.Name, err)
			}
			tr.addf("leave %d %s", i, costLine(c))
		}
	} else {
		if _, err := p.Leave(victims[0]); !errors.Is(err, ErrUnsupported) {
			t.Errorf("%s: Leave without CapLeave returned %v, want ErrUnsupported", b.Name, err)
		}
	}
	if caps.Has(CapFail) {
		for i := 2; i < 4; i++ {
			if err := p.Fail(victims[i]); err != nil {
				t.Fatalf("%s: Fail: %v", b.Name, err)
			}
			tr.addf("fail %d", i)
		}
	} else {
		if err := p.Fail(victims[3]); !errors.Is(err, ErrUnsupported) {
			t.Errorf("%s: Fail without CapFail returned %v, want ErrUnsupported", b.Name, err)
		}
	}
	if caps.Has(CapMaintain) {
		c, err := p.Maintain()
		if err != nil {
			t.Fatalf("%s: Maintain: %v", b.Name, err)
		}
		tr.addf("maintain %s", costLine(c))
	} else {
		if _, err := p.Maintain(); !errors.Is(err, ErrUnsupported) {
			t.Errorf("%s: Maintain without CapMaintain returned %v, want ErrUnsupported", b.Name, err)
		}
	}

	// Membership bookkeeping must reflect exactly the applied churn.
	want := confNodes
	if caps.Has(CapJoin) {
		want += len(reserve)
	}
	if caps.Has(CapLeave) {
		want -= 2
	}
	if caps.Has(CapFail) {
		want -= 2
	}
	if got := len(p.Handles()); got != want {
		t.Fatalf("%s: %d members after churn, want %d", b.Name, got, want)
	}

	// Post-churn availability: every object's server is still alive, so
	// locates must still succeed (after maintenance where supported).
	for i := 0; i < confObjects; i++ {
		key := fmt.Sprintf("conf-%d", i)
		res, c := p.Locate(client, key)
		if !res.Found {
			t.Fatalf("%s: object %s lost after caps-gated churn", b.Name, key)
		}
		tr.addf("relocate %s hops=%d %s", key, res.Hops, costLine(c))
	}

	// Unpublish, capability-gated: a withdrawn object must vanish.
	if caps.Has(CapUnpublish) {
		c, err := p.Unpublish(handles[0], "conf-0")
		if err != nil {
			t.Fatalf("%s: Unpublish: %v", b.Name, err)
		}
		tr.addf("unpublish %s", costLine(c))
		if res, _ := p.Locate(client, "conf-0"); res.Found {
			t.Errorf("%s: object found after Unpublish", b.Name)
		}
	} else {
		if _, err := p.Unpublish(handles[0], "conf-0"); !errors.Is(err, ErrUnsupported) {
			t.Errorf("%s: Unpublish without CapUnpublish returned %v, want ErrUnsupported", b.Name, err)
		}
	}

	// TableSize and Stats must be sane.
	if b.Name != "directory" { // directory clients legitimately hold no state
		if p.TableSize(p.Handles()[0]) <= 0 {
			t.Errorf("%s: TableSize = %d", b.Name, p.TableSize(p.Handles()[0]))
		}
	}
	st := p.Stats()
	if st.Nodes != want || st.TotalMessages <= 0 {
		t.Errorf("%s: stats %+v", b.Name, st)
	}
	tr.addf("stats nodes=%d", st.Nodes)
	return tr
}

func TestConformanceAllProtocols(t *testing.T) {
	for _, b := range Builders() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			first := runConformance(t, b, confSeed)
			second := runConformance(t, b, confSeed)
			if len(first.lines) != len(second.lines) {
				t.Fatalf("twin runs traced %d vs %d operations", len(first.lines), len(second.lines))
			}
			for i := range first.lines {
				if first.lines[i] != second.lines[i] {
					t.Fatalf("twin runs diverge at op %d:\n  run1: %s\n  run2: %s",
						i, first.lines[i], second.lines[i])
				}
			}
		})
	}
}

// TestLookup pins the registry: five protocols, presentation order, and a
// helpful error for unknown names.
func TestLookup(t *testing.T) {
	wantOrder := []string{"tapestry", "chord", "pastry", "can", "directory"}
	bs := Builders()
	if len(bs) != len(wantOrder) {
		t.Fatalf("%d builders registered, want %d", len(bs), len(wantOrder))
	}
	for i, b := range bs {
		if b.Name != wantOrder[i] {
			t.Errorf("builder %d = %q, want %q", i, b.Name, wantOrder[i])
		}
		got, err := Lookup(b.Name)
		if err != nil || got.Name != b.Name {
			t.Errorf("Lookup(%q) = %v, %v", b.Name, got.Name, err)
		}
	}
	if _, err := Lookup("gnutella"); err == nil {
		t.Error("Lookup of unknown protocol succeeded")
	}
}

// TestCapsString pins the capability-matrix rendering.
func TestCapsString(t *testing.T) {
	if got := Caps(0).String(); got != "static" {
		t.Errorf("empty caps = %q", got)
	}
	if got := (CapJoin | CapFail).String(); got != "join,fail" {
		t.Errorf("join|fail = %q", got)
	}
	if got := tapestryCaps.String(); got != "join,leave,fail,unpublish,maintain,locality,cache,replication" {
		t.Errorf("tapestry caps = %q", got)
	}
}

// TestOpErrorShape pins the typed-refusal contract satellite: the concrete
// error names protocol and operation and matches the sentinel.
func TestOpErrorShape(t *testing.T) {
	err := unsupported("can", "Leave")
	if !errors.Is(err, ErrUnsupported) {
		t.Fatal("OpError does not match ErrUnsupported")
	}
	var op *OpError
	if !errors.As(err, &op) || op.Protocol != "can" || op.Op != "Leave" {
		t.Fatalf("OpError fields: %+v", op)
	}
	if err.Error() != "overlay: can does not support Leave" {
		t.Fatalf("message: %q", err.Error())
	}
}
