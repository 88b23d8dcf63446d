package expt

import (
	"fmt"
	"regexp"
	"sort"
)

// Scale is everything a run chooses about experiment sizes. Each registry
// row below writes its own full/quick literal pair; a Scale picks between
// them, and replaces the few by name that a CLI flag exposes.
type Scale struct {
	// Quick selects every row's reduced size (-quick: the whole suite in a
	// couple of seconds) instead of the paper-comparable one.
	Quick bool
	// Workers is the run's worker budget: the size of the cell pool, and of
	// E-planet's sampled static build (0 = one per CPU; every table is
	// byte-identical for every value).
	Workers int
	// Scenarios restricts E-chaos to the named scenarios (nil = the whole
	// suite); Protocols restricts E-faceoff and E-chaos to the named overlay
	// protocols (nil = every registered one).
	Scenarios []string
	Protocols []string
	// override replaces a row's literal pair at either scale, keyed by the
	// flag name in sizeFlags (absent or 0 = the row's own literals).
	override map[string]int
}

// pick returns the full-scale literal, or the quick one under Quick.
func (s Scale) pick(full, quick int) int {
	if s.Quick {
		return quick
	}
	return full
}

// size is pick for a literal pair a flag can override by name. A Scale
// resolved from flags carries every sizeFlags name, so a row asking for a
// name no flag has is caught the first time it is made.
func (s Scale) size(name string, full, quick int) int {
	v, ok := s.override[name]
	if !ok && s.override != nil {
		panic("expt: no size flag named " + name)
	}
	if v > 0 {
		return v
	}
	return s.pick(full, quick)
}

// The four sizes more than one row reads.

// sizes are the network sizes of the Table 1 sweeps.
func (s Scale) sizes() []int {
	if s.Quick {
		return []int{64, 256}
	}
	return []int{64, 256, 1024, 4096}
}

// queries is the lookup count per table cell.
func (s Scale) queries() int { return s.pick(2048, 256) }

// nnSize is the network size of the nearest-neighbor and churn experiments.
func (s Scale) nnSize() int { return s.pick(256, 64) }

// stretchN is the network size of the stretch and ablation experiments.
func (s Scale) stretchN() int { return s.pick(512, 128) }

// Experiment is one registered evaluation: a stable ID (the E/A numbering
// the README and the CLIs' -run use), a name (keyed into per-cell seed
// derivation, so renaming an experiment deliberately reshuffles its
// streams), and a definition builder binding a Scale to concrete cells.
type Experiment struct {
	ID   string // "E0".."E16", "E-scale".."E-chaos", "A1".."A3"
	Name string
	Make func(s Scale) Def
}

// registry holds every experiment in presentation order. A size is written
// (full, quick) where it is read.
var registry = []Experiment{
	{"E0", "MetricExpansion", func(s Scale) Def { return metricExpansionDef() }},
	{"E1", "Table1Hops", func(s Scale) Def { return table1HopsDef(s.sizes(), s.queries()) }},
	{"E2", "Table1Space", func(s Scale) Def { return table1SpaceDef(s.sizes()) }},
	{"E3", "Table1InsertCost", func(s Scale) Def {
		sizes := s.sizes()
		if !s.Quick {
			sizes = sizes[:3] // dynamic joins at 4096 take minutes; cap
		}
		return table1InsertCostDef(sizes)
	}},
	{"E4", "Table1Balance", func(s Scale) Def {
		n := s.pick(512, 128)
		return table1BalanceDef(n, 8*n)
	}},
	{"E5", "StretchVsDistance", func(s Scale) Def { return stretchVsDistanceDef(s.stretchN(), 256, 4*s.queries()) }},
	{"E6", "SurrogateOverhead", func(s Scale) Def { return surrogateOverheadDef(s.sizes(), 512) }},
	{"E7", "NNCorrectness", func(s Scale) Def {
		return nnCorrectnessDef(s.nnSize(), []int{4, 8, 16, 32, 64, s.nnSize()})
	}},
	{"E8", "Multicast", func(s Scale) Def { return multicastDef(s.stretchN()) }},
	{"E9", "AvailabilityDuringJoin", func(s Scale) Def { return availabilityDuringJoinDef(64, 32) }},
	{"E10", "ParallelJoin", func(s Scale) Def { return parallelJoinDef(32, 5, 8) }},
	{"E11", "Deletion", func(s Scale) Def { return deletionDef(s.nnSize()) }},
	{"E12", "OptimizePointers", func(s Scale) Def { return optimizePointersDef(96, 24) }},
	{"E13", "StubLocality", func(s Scale) Def { return stubLocalityDef() }},
	{"E14", "GeneralMetric", func(s Scale) Def { return generalMetricDef([]int{64, 128, 256, 512}) }},
	{"E15", "MultiRoot", func(s Scale) Def { return multiRootDef(s.stretchN(), []int{1, 2, 4}, 0.15) }},
	{"E16", "ContinualOptimization", func(s Scale) Def { return continualOptimizationDef(s.nnSize()) }},
	{"E-scale", "ScaleChurn", func(s Scale) Def {
		// The quick point count stays above metric.DenseLimit, so the
		// on-demand metric path is exercised at both scales.
		return scaleChurnDef(s.size("scale-points", 50000, 2600), s.size("scale-nodes", 1024, 96),
			s.pick(6, 3), s.pick(1024, 128))
	}},
	{"E-repair", "RepairQuality", func(s Scale) Def {
		return repairQualityDef(s.pick(256, 96), s.pick(48, 20), s.pick(512, 128))
	}},
	{"E-hotspot", "HotObjects", func(s Scale) Def {
		return hotspotDef(s.size("hotspot-n", 512, 128), s.pick(256, 64), s.size("hotspot-queries", 8192, 2048))
	}},
	{"E-faceoff", "Faceoff", func(s Scale) Def {
		return faceoffDef(s.pick(256, 96), s.pick(64, 32), s.pick(4, 2), s.pick(2048, 512), s.Protocols)
	}},
	{"E-planet", "Planet", func(s Scale) Def {
		return planetDef(s.size("planet-nodes", 100000, 2000), s.size("planet-objects", 1000000, 20000),
			s.pick(4, 2), s.pick(2048, 256), s.Workers)
	}},
	{"E-nines", "Nines", func(s Scale) Def {
		// Queries bound the nines resolution: a flawless configuration
		// reports log10(epochs*queries) nines.
		return ninesDef(s.size("nines-n", 256, 96), s.pick(64, 32), s.pick(4, 2), s.size("nines-queries", 1024, 256))
	}},
	{"E-chaos", "Chaos", func(s Scale) Def {
		return chaosDef(s.size("chaos-n", 128, 64), s.pick(64, 32), s.pick(512, 192), s.pick(24, 12),
			s.Scenarios, s.Protocols)
	}},
	{"A1", "AblationSurrogate", func(s Scale) Def { return ablationSurrogateDef(s.stretchN()) }},
	{"A2", "AblationR", func(s Scale) Def { return ablationRDef(s.stretchN(), []int{2, 3, 4}) }},
	{"A3", "AblationBase", func(s Scale) Def { return ablationBaseDef(s.stretchN(), []int{4, 8, 16, 32}) }},
}

// Experiments returns every registered experiment in presentation order.
func Experiments() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// Match selects experiments whose ID or Name matches the anchored,
// case-insensitive pattern. An empty pattern selects everything.
func Match(pattern string) ([]Experiment, error) {
	if pattern == "" {
		return Experiments(), nil
	}
	re, err := regexp.Compile("(?i)^(" + pattern + ")$")
	if err != nil {
		return nil, fmt.Errorf("expt: bad -run pattern %q: %w", pattern, err)
	}
	var out []Experiment
	for _, e := range registry {
		if re.MatchString(e.ID) || re.MatchString(e.Name) {
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		var names []string
		for _, e := range registry {
			names = append(names, e.ID)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("expt: pattern %q matches no experiment (have %v)", pattern, names)
	}
	return out, nil
}
