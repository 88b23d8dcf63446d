package expt

import (
	"flag"
	"strings"
)

// Flags holds the experiment flags cmd/benchtables and cmd/tapestry-sim
// share, bound once so the two cannot drift. Zero and empty mean "the
// Params default".
type Flags struct {
	Quick          bool
	ScalePoints    int
	ScaleNodes     int
	HotspotN       int
	HotspotQueries int
	PlanetNodes    int
	PlanetObjects  int
	NinesN         int
	NinesQueries   int
	ChaosN         int
	ChaosScenario  string
	Protocol       string
}

// BindFlags registers the shared experiment flags on fs; read the result
// after fs.Parse.
func BindFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.BoolVar(&f.Quick, "quick", false, "reduced experiment sizes for a fast run")
	fs.IntVar(&f.ScalePoints, "scale-points", 0, "E-scale: metric-space points of the full churn cell (0 = params default)")
	fs.IntVar(&f.ScaleNodes, "scale-nodes", 0, "E-scale: initial overlay population (0 = params default)")
	fs.IntVar(&f.HotspotN, "hotspot-n", 0, "E-hotspot: mesh size of the full cell (0 = params default)")
	fs.IntVar(&f.HotspotQueries, "hotspot-queries", 0, "E-hotspot: Zipf queries of the full cell (0 = params default)")
	fs.IntVar(&f.PlanetNodes, "planet-nodes", 0, "E-planet: overlay population of the virtual-time run (0 = params default)")
	fs.IntVar(&f.PlanetObjects, "planet-objects", 0, "E-planet: published objects (0 = params default)")
	fs.IntVar(&f.NinesN, "nines-n", 0, "E-nines: overlay population of the availability sweep (0 = params default)")
	fs.IntVar(&f.NinesQueries, "nines-queries", 0, "E-nines: Zipf queries per epoch (0 = params default)")
	fs.IntVar(&f.ChaosN, "chaos-n", 0, "E-chaos: overlay population of the scenario suite (0 = params default)")
	fs.StringVar(&f.ChaosScenario, "chaos-scenario", "", "E-chaos: comma-separated named scenarios to replay (empty = whole suite)")
	fs.StringVar(&f.Protocol, "protocol", "", "E-faceoff/E-chaos: comma-separated overlay protocols (empty = all registered)")
	return f
}

// Params resolves the parsed flags into experiment parameters, rejecting an
// unknown scenario or protocol name before any experiment runs. workers is
// the caller's cell-pool size: E-planet's sampled static build parallelises
// under the same budget, and its output is byte-identical for every value.
func (f *Flags) Params(workers int) (Params, error) {
	p := DefaultParams()
	if f.Quick {
		p = QuickParams()
	}
	for _, o := range []struct {
		flag int
		dst  *int
	}{
		{f.ScalePoints, &p.ScalePoints}, {f.ScaleNodes, &p.ScaleNodes},
		{f.HotspotN, &p.HotspotN}, {f.HotspotQueries, &p.HotspotQueries},
		{f.PlanetNodes, &p.PlanetNodes}, {f.PlanetObjects, &p.PlanetObjects},
		{f.NinesN, &p.NinesN}, {f.NinesQueries, &p.NinesQueries},
		{f.ChaosN, &p.ChaosN},
	} {
		if o.flag > 0 {
			*o.dst = o.flag
		}
	}
	p.PlanetBuildWorkers = workers
	if f.ChaosScenario != "" {
		p.ChaosScenarios = strings.Split(f.ChaosScenario, ",")
		if err := ValidateScenarios(p.ChaosScenarios); err != nil {
			return Params{}, err
		}
	}
	if f.Protocol != "" {
		selected := strings.Split(f.Protocol, ",")
		if err := ValidateProtocols(selected); err != nil {
			return Params{}, err
		}
		p.FaceoffProtocols, p.ChaosProtocols = selected, selected
	}
	return p, nil
}
