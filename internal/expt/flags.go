package expt

import (
	"flag"
	"strings"
)

// sizeFlags are the by-name integer overrides cmd/benchtables and
// cmd/tapestry-sim expose: each replaces, at either scale, one literal pair
// of the registry row that names it.
var sizeFlags = []struct{ name, usage string }{
	{"scale-points", "E-scale: metric-space points of the full churn cell"},
	{"scale-nodes", "E-scale: initial overlay population"},
	{"hotspot-n", "E-hotspot: mesh size of the full cell"},
	{"hotspot-queries", "E-hotspot: Zipf queries of the full cell"},
	{"planet-nodes", "E-planet: overlay population of the virtual-time run"},
	{"planet-objects", "E-planet: published objects"},
	{"nines-n", "E-nines: overlay population of the availability sweep"},
	{"nines-queries", "E-nines: Zipf queries per epoch"},
	{"chaos-n", "E-chaos: overlay population of the scenario suite"},
}

// Flags is the experiment flag set the two CLIs share, bound once so they
// cannot drift; read it after fs.Parse.
type Flags struct {
	quick     bool
	sizes     map[string]*int // by sizeFlags name
	scenarios string
	// Protocol is the raw -protocol value, which tapestry-sim's ad-hoc
	// workload also reads.
	Protocol string
}

// BindFlags registers the shared experiment flags on fs.
func BindFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{sizes: map[string]*int{}}
	fs.BoolVar(&f.quick, "quick", false, "reduced experiment sizes for a fast run")
	for _, sf := range sizeFlags {
		f.sizes[sf.name] = fs.Int(sf.name, 0, sf.usage+" (0 = the experiment's own size)")
	}
	fs.StringVar(&f.scenarios, "chaos-scenario", "", "E-chaos: comma-separated named scenarios to replay (empty = whole suite)")
	fs.StringVar(&f.Protocol, "protocol", "", "E-faceoff/E-chaos: comma-separated overlay protocols (empty = all registered)")
	return f
}

// Size returns the parsed value of the named size flag (0 = not given).
func (f *Flags) Size(name string) int { return *f.sizes[name] }

// Scale resolves the parsed flags into a run's Scale under the caller's
// worker budget, rejecting an unknown scenario or protocol name before any
// experiment runs.
func (f *Flags) Scale(workers int) (Scale, error) {
	s := Scale{Quick: f.quick, Workers: workers, override: map[string]int{}}
	for name, v := range f.sizes {
		s.override[name] = *v
	}
	if f.scenarios != "" {
		s.Scenarios = strings.Split(f.scenarios, ",")
		if err := ValidateScenarios(s.Scenarios); err != nil {
			return Scale{}, err
		}
	}
	if f.Protocol != "" {
		s.Protocols = strings.Split(f.Protocol, ",")
		if err := ValidateProtocols(s.Protocols); err != nil {
			return Scale{}, err
		}
	}
	return s, nil
}
