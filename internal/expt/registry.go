package expt

import (
	"fmt"
	"regexp"
	"sort"
)

// Params carries the scale knobs shared by every registered experiment, so
// one flag set (-quick, custom sizes) tunes the whole suite coherently.
type Params struct {
	Sizes     []int // network sizes for the Table 1 sweeps
	JoinSizes []int // sizes for dynamic-join experiments (capped: joins are slow)
	Queries   int   // lookup count per table cell
	NNSize    int   // network size for nearest-neighbor / churn experiments
	StretchN  int   // network size for stretch and ablation experiments
	BalanceN  int   // network size for the load-balance experiment

	// E-scale (substrate-scale churn) knobs: metric-space points of the full
	// cell (the quarter-scale cell uses ScalePoints/4), initial overlay
	// population, churn epochs, and Zipf queries per epoch.
	ScalePoints  int
	ScaleNodes   int
	ScaleEpochs  int
	ScaleQueries int

	// E-repair (repair-quality) knobs: mesh size, nodes killed before the
	// sweep, and post-churn queries.
	RepairN       int
	RepairKills   int
	RepairQueries int

	// E-hotspot (serving-layer) knobs: mesh size of the full cell (the half
	// cell uses HotspotN/2), published objects, and Zipf queries.
	HotspotN       int
	HotspotObjects int
	HotspotQueries int

	// E-faceoff (cross-protocol churn + Zipf storm) knobs: base population
	// of the full cell (the half cell uses FaceoffN/2), published objects,
	// churn epochs, Zipf queries per epoch, and the protocol selection
	// (nil = every registered overlay protocol).
	FaceoffN         int
	FaceoffObjects   int
	FaceoffEpochs    int
	FaceoffQueries   int
	FaceoffProtocols []string

	// E-planet (virtual-time run at planetary scale) knobs: overlay
	// population, published objects, virtual-time epochs, Zipf queries per
	// epoch, and the worker count of the sampled static build (0 = one per
	// CPU; the mesh is byte-identical for every value).
	PlanetNodes        int
	PlanetObjects      int
	PlanetEpochs       int
	PlanetQueries      int
	PlanetBuildWorkers int

	// E-nines (availability under crash churn) knobs: overlay population,
	// published objects, churn epochs, and Zipf queries per epoch. Queries
	// bound the nines resolution: a flawless configuration reports
	// log10(epochs*queries) nines.
	NinesN       int
	NinesObjects int
	NinesEpochs  int
	NinesQueries int

	// E-chaos (named adversarial scenarios) knobs: overlay population,
	// published objects, queries per measurement phase, join-stampede size,
	// the scenario selection (nil = the whole named suite) and the protocol
	// selection (nil = every registered overlay protocol).
	ChaosN         int
	ChaosObjects   int
	ChaosQueries   int
	ChaosStampede  int
	ChaosScenarios []string
	ChaosProtocols []string
}

// DefaultParams reproduces the paper-comparable scale.
func DefaultParams() Params {
	sizes := []int{64, 256, 1024, 4096}
	return Params{
		Sizes:     sizes,
		JoinSizes: sizes[:3], // dynamic joins at 4096 take minutes; cap
		Queries:   2048,
		NNSize:    256,
		StretchN:  512,
		BalanceN:  512,

		ScalePoints:  50000,
		ScaleNodes:   1024,
		ScaleEpochs:  6,
		ScaleQueries: 1024,

		RepairN:       256,
		RepairKills:   48,
		RepairQueries: 512,

		HotspotN:       512,
		HotspotObjects: 256,
		HotspotQueries: 8192,

		FaceoffN:       256,
		FaceoffObjects: 64,
		FaceoffEpochs:  4,
		FaceoffQueries: 2048,

		PlanetNodes:   100000,
		PlanetObjects: 1000000,
		PlanetEpochs:  4,
		PlanetQueries: 2048,

		NinesN:       256,
		NinesObjects: 64,
		NinesEpochs:  4,
		NinesQueries: 1024,

		ChaosN:        128,
		ChaosObjects:  64,
		ChaosQueries:  512,
		ChaosStampede: 24,
	}
}

// QuickParams is the reduced scale for smoke runs (-quick).
func QuickParams() Params {
	sizes := []int{64, 256}
	return Params{
		Sizes:     sizes,
		JoinSizes: sizes,
		Queries:   256,
		NNSize:    64,
		StretchN:  128,
		BalanceN:  128,

		ScalePoints:  2600, // above metric.DenseLimit: the on-demand path stays exercised
		ScaleNodes:   96,
		ScaleEpochs:  3,
		ScaleQueries: 128,

		RepairN:       96,
		RepairKills:   20,
		RepairQueries: 128,

		HotspotN:       128,
		HotspotObjects: 64,
		HotspotQueries: 2048,

		FaceoffN:       96,
		FaceoffObjects: 32,
		FaceoffEpochs:  2,
		FaceoffQueries: 512,

		PlanetNodes:   2000,
		PlanetObjects: 20000,
		PlanetEpochs:  2,
		PlanetQueries: 256,

		NinesN:       96,
		NinesObjects: 32,
		NinesEpochs:  2,
		NinesQueries: 256,

		ChaosN:        64,
		ChaosObjects:  32,
		ChaosQueries:  192,
		ChaosStampede: 12,
	}
}

// Experiment is one registered evaluation: a stable ID (the E/A numbering
// the README and the CLIs' -run use), a name (keyed into per-cell seed
// derivation, so renaming an experiment deliberately reshuffles its
// streams), and a definition builder binding Params to concrete cells.
type Experiment struct {
	ID   string // "E0".."E16", "E-scale".."E-chaos", "A1".."A3"
	Name string
	Make func(p Params) Def
}

// registry holds every experiment in presentation order.
var registry = []Experiment{
	{"E0", "MetricExpansion", func(p Params) Def { return metricExpansionDef() }},
	{"E1", "Table1Hops", func(p Params) Def { return table1HopsDef(p.Sizes, p.Queries) }},
	{"E2", "Table1Space", func(p Params) Def { return table1SpaceDef(p.Sizes) }},
	{"E3", "Table1InsertCost", func(p Params) Def { return table1InsertCostDef(p.JoinSizes) }},
	{"E4", "Table1Balance", func(p Params) Def { return table1BalanceDef(p.BalanceN, 8*p.BalanceN) }},
	{"E5", "StretchVsDistance", func(p Params) Def { return stretchVsDistanceDef(p.StretchN, 256, 4*p.Queries) }},
	{"E6", "SurrogateOverhead", func(p Params) Def { return surrogateOverheadDef(p.Sizes, 512) }},
	{"E7", "NNCorrectness", func(p Params) Def {
		return nnCorrectnessDef(p.NNSize, []int{4, 8, 16, 32, 64, p.NNSize})
	}},
	{"E8", "Multicast", func(p Params) Def { return multicastDef(p.StretchN) }},
	{"E9", "AvailabilityDuringJoin", func(p Params) Def { return availabilityDuringJoinDef(64, 32) }},
	{"E10", "ParallelJoin", func(p Params) Def { return parallelJoinDef(32, 5, 8) }},
	{"E11", "Deletion", func(p Params) Def { return deletionDef(p.NNSize) }},
	{"E12", "OptimizePointers", func(p Params) Def { return optimizePointersDef(96, 24) }},
	{"E13", "StubLocality", func(p Params) Def { return stubLocalityDef() }},
	{"E14", "GeneralMetric", func(p Params) Def { return generalMetricDef([]int{64, 128, 256, 512}) }},
	{"E15", "MultiRoot", func(p Params) Def { return multiRootDef(p.StretchN, []int{1, 2, 4}, 0.15) }},
	{"E16", "ContinualOptimization", func(p Params) Def { return continualOptimizationDef(p.NNSize) }},
	{"E-scale", "ScaleChurn", func(p Params) Def {
		return scaleChurnDef(p.ScalePoints, p.ScaleNodes, p.ScaleEpochs, p.ScaleQueries)
	}},
	{"E-repair", "RepairQuality", func(p Params) Def {
		return repairQualityDef(p.RepairN, p.RepairKills, p.RepairQueries)
	}},
	{"E-hotspot", "HotObjects", func(p Params) Def {
		return hotspotDef(p.HotspotN, p.HotspotObjects, p.HotspotQueries)
	}},
	{"E-faceoff", "Faceoff", func(p Params) Def {
		return faceoffDef(p.FaceoffN, p.FaceoffObjects, p.FaceoffEpochs,
			p.FaceoffQueries, p.FaceoffProtocols)
	}},
	{"E-planet", "Planet", func(p Params) Def {
		return planetDef(p.PlanetNodes, p.PlanetObjects, p.PlanetEpochs,
			p.PlanetQueries, p.PlanetBuildWorkers)
	}},
	{"E-nines", "Nines", func(p Params) Def {
		return ninesDef(p.NinesN, p.NinesObjects, p.NinesEpochs, p.NinesQueries)
	}},
	{"E-chaos", "Chaos", func(p Params) Def {
		return chaosDef(p.ChaosN, p.ChaosObjects, p.ChaosQueries, p.ChaosStampede,
			p.ChaosScenarios, p.ChaosProtocols)
	}},
	{"A1", "AblationSurrogate", func(p Params) Def { return ablationSurrogateDef(p.StretchN) }},
	{"A2", "AblationR", func(p Params) Def { return ablationRDef(p.StretchN, []int{2, 3, 4}) }},
	{"A3", "AblationBase", func(p Params) Def { return ablationBaseDef(p.StretchN, []int{4, 8, 16, 32}) }},
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
