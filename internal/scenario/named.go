package scenario

import (
	"fmt"
	"sort"
)

// Spec sizes the named scenarios: the same timeline shapes replay at smoke
// or full scale by swapping the spec (E-chaos passes its -quick or full pair).
type Spec struct {
	// Queries is the size of each measurement storm (per phase).
	Queries int
	// Stampede is the join-burst size of the flash-stampede scenario.
	Stampede int
}

// DefaultSpec matches the E-chaos full-scale defaults.
func DefaultSpec() Spec { return Spec{Queries: 512, Stampede: 24} }

// named maps each suite scenario to its constructor. Timelines follow one
// grammar: a baseline phase measures the healthy overlay, an adversarial
// phase applies the correlated failure mid-measurement, and a recovery phase
// measures re-convergence after repair.
var named = map[string]func(Spec) Scenario{
	// blackout: a whole transit-stub region crashes at once (correlated,
	// unlike Poisson churn), then comes back and republishes.
	"blackout": func(sp Spec) Scenario {
		return New("blackout").
			At(0, Phase{Name: "baseline"}, Queries{Count: sp.Queries}).
			At(10, Phase{Name: "blackout"}, RegionBlackout{Pick: 0}, Maintain{}, Queries{Count: sp.Queries}).
			At(20, Phase{Name: "restored"}, RegionRestore{Pick: 0}, Maintain{}, Queries{Count: sp.Queries}).
			MustBuild()
	},
	// healing-partition: a region-aligned cut isolates ~35% of the members,
	// queries run on both sides of the cut, then the cut heals and a
	// maintenance pass repairs soft state.
	"healing-partition": func(sp Spec) Scenario {
		return New("healing-partition").
			At(0, Phase{Name: "baseline"}, Queries{Count: sp.Queries}).
			At(10, Phase{Name: "partitioned"}, Partition{Frac: 0.35}, Maintain{}, Queries{Count: sp.Queries}).
			At(20, Phase{Name: "healed"}, Heal{}, Maintain{}, Queries{Count: sp.Queries}).
			MustBuild()
	},
	// flash-stampede: one object abruptly draws 80% of a doubled query
	// load while a wave of new nodes joins — the §4.4 concurrent-insertion
	// machinery under a hot-object storm.
	"flash-stampede": func(sp Spec) Scenario {
		return New("flash-stampede").
			At(0, Phase{Name: "baseline"}, Queries{Count: sp.Queries}).
			At(10, Phase{Name: "flash"}, JoinStampede{Count: sp.Stampede}, FlashCrowd{Count: 2 * sp.Queries, Hot: 0.8}).
			At(20, Phase{Name: "settled"}, Maintain{}, Queries{Count: sp.Queries}).
			MustBuild()
	},
	// lossy-links: seeded message loss and duplication ramp up under
	// continuous measurement, then the links recover.
	"lossy-links": func(sp Spec) Scenario {
		phases := New("phases").
			At(0, Phase{Name: "clean"}, Queries{Count: sp.Queries}).
			At(10, Phase{Name: "degrading"}).
			At(11, Queries{Count: sp.Queries}).
			At(16, Queries{Count: sp.Queries}).
			At(21, Queries{Count: sp.Queries}).
			At(30, Phase{Name: "recovered"}, LinkFaults{}, Maintain{}, Queries{Count: sp.Queries}).
			MustBuild()
		ramp, err := Ramp("ramp", 10, 5, 3, LinkFaults{}, LinkFaults{Loss: 0.2, Dup: 0.05})
		if err != nil {
			panic(err)
		}
		return Overlay("lossy-links", phases, ramp)
	},
}

// Names lists the named suite in sorted order.
func Names() []string {
	out := make([]string, 0, len(named))
	for n := range named {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Named builds a suite scenario at the given scale.
func Named(name string, sp Spec) (Scenario, error) {
	f, ok := named[name]
	if !ok {
		return Scenario{}, fmt.Errorf("scenario: unknown scenario %q (have %v)", name, Names())
	}
	return f(sp), nil
}
