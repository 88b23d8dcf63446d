// Command tapestry-sim stands up a Tapestry overlay on a simulated metric
// space, runs a publish/locate workload with optional churn, and prints
// routing statistics — a one-shot driver for exploring configurations.
//
// It shares the registry-driven experiment engine with benchtables: pass
// -run to reproduce any subset of the paper's tables in parallel instead of
// running the ad-hoc workload.
//
// Examples:
//
//	tapestry-sim -n 512 -space torus -objects 128 -queries 4096 -churn 32
//	tapestry-sim -run 'E5|SurrogateOverhead' -workers 8 -format csv
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"

	"tapestry"
	"tapestry/internal/expt"
)

func main() {
	n := flag.Int("n", 256, "number of overlay nodes")
	spaceKind := flag.String("space", "ring", "metric space: ring | torus | cloud | graph | transitstub")
	objects := flag.Int("objects", 64, "objects to publish (one replica each)")
	replicas := flag.Int("replicas", 1, "replicas per object")
	queries := flag.Int("queries", 1024, "random (client, object) queries")
	churn := flag.Int("churn", 0, "membership events after publishing (alternating join/leave)")
	base := flag.Int("base", 16, "identifier radix b")
	r := flag.Int("r", 3, "neighbor-set capacity R")
	roots := flag.Int("roots", 1, "root-set size |R_psi|")
	prr := flag.Bool("prr", false, "use PRR-like surrogate routing")
	cacheCap := flag.Int("cache-cap", 0, "per-node locate-cache capacity (the serving layer; 0 = off)")
	seed := flag.Int64("seed", 1, "RNG seed")
	run := flag.String("run", "", "run registry experiments matching this id/name regexp instead of the ad-hoc workload")
	workers := flag.Int("workers", 0, "with -run: experiment cells run in parallel (0 = GOMAXPROCS)")
	format := flag.String("format", "table", "with -run: output format: table | json | csv")
	// The experiment flags configure -run. The ad-hoc workload reads two of
	// them: -protocol names the one overlay it grows (empty = tapestry) and
	// -scale-points overrides the transit-stub size (0 = auto).
	exptFlags := expt.BindFlags(flag.CommandLine)
	transport := flag.String("transport", "", "message transport backend: direct | loopback | tcp (default: $TAPESTRY_TRANSPORT, then direct)")
	flag.Parse()

	if *transport != "" {
		if _, err := tapestry.ParseTransport(*transport); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		os.Setenv("TAPESTRY_TRANSPORT", *transport)
	}

	if *run != "" {
		scale, err := exptFlags.Scale(*workers)
		if err != nil {
			fail(err)
		}
		runner := expt.Runner{Seed: *seed, Scale: scale}
		if err := runner.RunAndEmit(os.Stdout, *run, *format); err != nil {
			fail(err)
		}
		return
	}

	var space tapestry.Space
	switch *spaceKind {
	case "ring":
		space = tapestry.RingSpace(4 * *n)
	case "torus":
		side := int(math.Ceil(math.Sqrt(float64(4 * *n))))
		space = tapestry.TorusSpace(side)
	case "cloud":
		space = tapestry.CloudSpace(4**n, *seed)
	case "graph":
		space = tapestry.RandomGraphSpace(2**n, 3, *seed)
	case "transitstub":
		// Size the substrate to the overlay unless explicitly overridden;
		// above metric.DenseLimit points the space is computed on demand, so
		// tens of thousands of points stay cheap.
		points := 4 * *n
		if p := exptFlags.Size("scale-points"); p > 0 {
			points = p
		}
		space = tapestry.ScaledTransitStubSpace(points, *seed)
	default:
		fmt.Fprintf(os.Stderr, "unknown space %q\n", *spaceKind)
		os.Exit(2)
	}

	protocol := exptFlags.Protocol
	if protocol == "" {
		protocol = "tapestry"
	}
	proto, ok := map[string]tapestry.Protocol{
		"tapestry": tapestry.Tapestry, "chord": tapestry.Chord,
		"pastry": tapestry.Pastry, "can": tapestry.CAN,
		"directory": tapestry.Directory,
	}[protocol]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown protocol %q\n", protocol)
		os.Exit(2)
	}

	cfg := tapestry.Defaults()
	cfg.Base = *base
	cfg.R = *r
	cfg.RootSetSize = *roots
	cfg.PRRRouting = *prr
	cfg.LocateCacheCap = *cacheCap
	cfg.Seed = *seed
	nw, err := tapestry.NewProtocol(space, proto, cfg)
	if err != nil {
		fail(err)
	}

	fmt.Printf("growing %d %s nodes on %s (caps: %s) ...\n", *n, proto, space.Name(), nw.Caps())
	nodes, err := nw.Grow(*n)
	if err != nil {
		fail(err)
	}
	fmt.Printf("  %s\n", nw.Stats())

	rng := rand.New(rand.NewSource(*seed))
	names := make([]string, *objects)
	for i := range names {
		names[i] = fmt.Sprintf("object-%04d", i)
		for rep := 0; rep < *replicas; rep++ {
			if _, err := nodes[rng.Intn(len(nodes))].Publish(names[i]); err != nil {
				fail(err)
			}
		}
	}
	fmt.Printf("published %d objects x %d replicas\n", *objects, *replicas)

	declined := 0
	for e := 0; e < *churn; e++ {
		if e%2 == 0 {
			if _, err := nw.Grow(1); err != nil {
				if errors.Is(err, tapestry.ErrUnsupported) {
					declined++
					continue
				}
				fail(err)
			}
		} else {
			all := nw.Nodes()
			victim := all[rng.Intn(len(all))]
			if _, err := victim.Leave(); errors.Is(err, tapestry.ErrUnsupported) {
				declined++
			}
		}
	}
	if *churn > 0 {
		if declined > 0 {
			fmt.Printf("churn: %d of %d events declined (protocol caps: %s)\n", declined, *churn, nw.Caps())
		}
		fmt.Printf("after %d churn events: %s\n", *churn, nw.Stats())
		if v := nw.CheckConsistency(); len(v) != 0 {
			fmt.Printf("CONSISTENCY VIOLATIONS: %d (first: %s)\n", len(v), v[0])
		} else {
			fmt.Println("consistency audit: clean")
		}
	}

	var hops, msgs, dist float64
	found := 0
	all := nw.Nodes()
	for q := 0; q < *queries; q++ {
		c := all[rng.Intn(len(all))]
		res, cost := c.Locate(names[rng.Intn(len(names))])
		if res.Found {
			found++
			hops += float64(res.Hops)
			msgs += float64(cost.Messages)
			dist += cost.Distance
		}
	}
	if found == 0 {
		fail(fmt.Errorf("no queries succeeded"))
	}
	fmt.Printf("queries: %d/%d found | mean hops %.2f | mean msgs %.1f | mean distance %.1f\n",
		found, *queries, hops/float64(found), msgs/float64(found), dist/float64(found))
	fmt.Printf("final: %s\n", nw.Stats())
	fmt.Printf("total network messages: %d\n", nw.TotalMessages())
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tapestry-sim:", err)
	os.Exit(1)
}
