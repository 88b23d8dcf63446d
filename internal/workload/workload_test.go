package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUniformPlacement(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := UniformPlacement(10, 3, 20, rng)
	if len(p.Servers) != 10 || len(p.Names) != 10 {
		t.Fatal("shape")
	}
	for i, servers := range p.Servers {
		if len(servers) != 3 {
			t.Fatalf("object %d has %d replicas", i, len(servers))
		}
		seen := map[int]bool{}
		for _, s := range servers {
			if s < 0 || s >= 20 || seen[s] {
				t.Fatalf("bad/duplicate server %d", s)
			}
			seen[s] = true
		}
	}
	if p.Names[0] == p.Names[1] {
		t.Error("names must be distinct")
	}
}

func TestUniformPlacementPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	UniformPlacement(1, 5, 3, rand.New(rand.NewSource(1)))
}

func TestUniformQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := UniformQueries(100, 8, 5, rng)
	for i := range m.Clients {
		if m.Clients[i] < 0 || m.Clients[i] >= 8 || m.Objects[i] < 0 || m.Objects[i] >= 5 {
			t.Fatal("out of range")
		}
	}
}

func TestZipfQueriesSkewed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := ZipfQueries(4000, 4, 50, 1.5, rng)
	counts := map[int]int{}
	for _, o := range m.Objects {
		if o < 0 || o >= 50 {
			t.Fatal("object out of range")
		}
		counts[o]++
	}
	if counts[0] < 4000/10 {
		t.Errorf("zipf head got %d of 4000; expected heavy skew", counts[0])
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for s<=1")
		}
	}()
	ZipfQueries(1, 1, 2, 1.0, rng)
}

func TestUniformPlacementDeterministic(t *testing.T) {
	a := UniformPlacement(50, 4, 200, rand.New(rand.NewSource(9)))
	b := UniformPlacement(50, 4, 200, rand.New(rand.NewSource(9)))
	for i := range a.Servers {
		for k := range a.Servers[i] {
			if a.Servers[i][k] != b.Servers[i][k] {
				t.Fatal("same seed must give the same placement")
			}
		}
	}
}

func TestPoissonChurnInvariants(t *testing.T) {
	f := func(seed int64, popRaw, epochRaw uint8) bool {
		pop := int(popRaw)%100 + 20
		epochs := int(epochRaw)%8 + 1
		minPop := pop / 2
		sched := PoissonChurn(epochs, pop, minPop, 4, 2, 2, rand.New(rand.NewSource(seed)))
		if len(sched) != epochs {
			return false
		}
		p := pop
		for _, ops := range sched {
			for _, op := range ops {
				if op.Join {
					p++
				} else {
					p--
					if op.Crash && op.Victim < 0 {
						return false
					}
				}
			}
			// The plan keeps the end-of-epoch population at or above the floor.
			if p < minPop {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	// Zero rates yield empty epochs; the schedule shape is still correct.
	empty := PoissonChurn(3, 10, 1, 0, 0, 0, rand.New(rand.NewSource(1)))
	for _, ops := range empty {
		if len(ops) != 0 {
			t.Error("zero-rate epochs must be empty")
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic when population < minimum")
		}
	}()
	PoissonChurn(1, 1, 5, 1, 1, 1, rand.New(rand.NewSource(1)))
}

func TestPoissonLargeMean(t *testing.T) {
	// Means past exp-underflow (~745) must still track the requested rate
	// instead of silently capping; the splitting rule keeps the sampler
	// exact at any scale.
	rng := rand.New(rand.NewSource(4))
	const mean = 2000.0
	total := 0.0
	const draws = 200
	for i := 0; i < draws; i++ {
		total += float64(poisson(mean, rng))
	}
	got := total / draws
	if got < mean*0.95 || got > mean*1.05 {
		t.Errorf("poisson(%g) sample mean %g, want within 5%%", mean, got)
	}
}

func TestChurnEdgeCaseContracts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))

	// Zero means: every epoch is empty, but the schedule has the right shape.
	sched := PoissonChurn(4, 10, 2, 0, 0, 0, rng)
	if len(sched) != 4 {
		t.Fatalf("got %d epochs, want 4", len(sched))
	}
	for e, ops := range sched {
		if len(ops) != 0 {
			t.Fatalf("epoch %d has %d ops under zero means", e, len(ops))
		}
	}

	// A zero mean disables only its own stream.
	sched = PoissonChurn(6, 50, 1, 3, 0, 0, rng)
	for e, ops := range sched {
		for _, op := range ops {
			if !op.Join {
				t.Fatalf("epoch %d planned a departure with leave/crash means 0", e)
			}
		}
	}

	// minPopulation < 1 clamps to 1: a singleton population is accepted and
	// never scheduled away.
	sched = PoissonChurn(8, 1, -5, 0, 4, 4, rng)
	pop := 1
	for _, ops := range sched {
		for _, op := range ops {
			if op.Join {
				pop++
			} else {
				pop--
			}
		}
		if pop < 1 {
			t.Fatalf("population plan dropped to %d", pop)
		}
	}

	// Negative epochs degrade to an empty plan.
	if got := PoissonChurn(-3, 10, 1, 1, 1, 1, rng); len(got) != 0 {
		t.Fatalf("negative epochs produced %d epochs", len(got))
	}

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("negative mean", func() { PoissonChurn(1, 10, 1, -1, 0, 0, rng) })
	mustPanic("NaN mean", func() { PoissonChurn(1, 10, 1, 0, math.NaN(), 0, rng) })
	mustPanic("population below minimum", func() { PoissonChurn(1, 1, 5, 0, 0, 0, rng) })
}

func TestFlashCrowdQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const q, objects, hotObj = 4000, 64, 17
	m := FlashCrowdQueries(q, 100, objects, hotObj, 0.8, 1.2, rng)
	if len(m.Clients) != q || len(m.Objects) != q {
		t.Fatalf("mix sized (%d,%d), want %d", len(m.Clients), len(m.Objects), q)
	}
	hot := 0
	for i, o := range m.Objects {
		if o < 0 || o >= objects {
			t.Fatalf("object %d out of range", o)
		}
		if c := m.Clients[i]; c < 0 || c >= 100 {
			t.Fatalf("client %d out of range", c)
		}
		if o == hotObj {
			hot++
		}
	}
	// 80% directed + Zipf background spillover; demand well above a plain
	// Zipf mix and below everything.
	if hot < q*7/10 || hot == q {
		t.Fatalf("hot object drew %d/%d queries at hot=0.8", hot, q)
	}

	// hot=0 degenerates to the background mix; hot=1 is all-hot.
	all := FlashCrowdQueries(500, 10, objects, hotObj, 1.0, 1.2, rand.New(rand.NewSource(8)))
	for _, o := range all.Objects {
		if o != hotObj {
			t.Fatalf("hot=1 drew object %d", o)
		}
	}

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("hot out of range", func() { FlashCrowdQueries(1, 1, 4, 0, 1.5, 1.2, rng) })
	mustPanic("hot object out of range", func() { FlashCrowdQueries(1, 1, 4, 9, 0.5, 1.2, rng) })
	mustPanic("zipf exponent", func() { FlashCrowdQueries(1, 1, 4, 0, 0.5, 1.0, rng) })
}

func TestJoinStampede(t *testing.T) {
	ops := JoinStampede(12)
	if len(ops) != 12 {
		t.Fatalf("got %d ops, want 12", len(ops))
	}
	for i, op := range ops {
		if !op.Join || op.Crash {
			t.Fatalf("op %d = %+v, want pure join", i, op)
		}
	}
	if len(JoinStampede(0)) != 0 {
		t.Fatal("JoinStampede(0) not empty")
	}
	defer func() {
		if recover() == nil {
			t.Error("negative stampede did not panic")
		}
	}()
	JoinStampede(-1)
}
