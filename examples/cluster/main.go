// Cluster: the multi-process overlay, end to end. The harness computes a
// Tapestry overlay centrally (an in-memory core mesh over a ring metric),
// boots one cmd/tapestry-node daemon process per overlay node, installs each
// daemon's routing table and endpoint book over TCP with the wire cluster
// protocol, and then drives publish and locate traffic that the daemons
// forward among themselves — every hop of every walk a real socket exchange
// between real processes.
//
// Each daemon-routed walk is cross-checked against the central mesh: the
// root a publish terminates at must equal the surrogate the in-memory
// overlay computes for the same key, and every located replica must be the
// server the object was actually placed on. Run from the repository root
// (the harness builds cmd/tapestry-node with the go tool).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"tapestry/internal/core"
	"tapestry/internal/ids"
	"tapestry/internal/metric"
	"tapestry/internal/netsim"
	"tapestry/internal/route"
	"tapestry/internal/wire"
)

// daemon is the harness's view of one spawned tapestry-node process: its
// socket and a client of it (the framed-TCP stack of internal/wire, the one
// the daemons forward to each other with).
type daemon struct {
	proc   *exec.Cmd
	hp     string // daemon's host:port
	client *wire.Client
}

func main() {
	n := flag.Int("n", 100, "daemon processes to boot")
	objects := flag.Int("objects", 50, "objects to publish (round-robin servers)")
	queries := flag.Int("queries", 200, "random (client, object) locate queries")
	seed := flag.Int64("seed", 1, "RNG seed for the overlay build and workload")
	basePort := flag.Int("base-port", 0,
		"bind daemon i to 127.0.0.1:<base-port+i> instead of an ephemeral port "+
			"(0 = ephemeral; also settable via $TAPESTRY_CLUSTER_BASE_PORT)")
	flag.Parse()
	if *basePort == 0 {
		if env := os.Getenv("TAPESTRY_CLUSTER_BASE_PORT"); env != "" {
			p, err := strconv.Atoi(env)
			if err != nil {
				log.Fatalf("TAPESTRY_CLUSTER_BASE_PORT=%q: %v", env, err)
			}
			*basePort = p
		}
	}
	if err := run(*n, *objects, *queries, *seed, *basePort); err != nil {
		log.Fatal(err)
	}
}

func run(n, objects, queries int, seed int64, basePort int) error {
	// 1. Build the daemon binary once; spawning 100+ `go run` children would
	// pay the toolchain startup per process.
	tmp, err := os.MkdirTemp("", "tapestry-cluster")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	bin := filepath.Join(tmp, "tapestry-node")
	if out, err := exec.Command("go", "build", "-o", bin, "tapestry/cmd/tapestry-node").CombinedOutput(); err != nil {
		return fmt.Errorf("building tapestry-node: %v\n%s", err, out)
	}

	// 2. Compute the overlay centrally: a core mesh over a ring metric. The
	// daemons get static snapshots of these tables; the in-memory mesh stays
	// around as the oracle the daemon walks are checked against.
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	rng := rand.New(rand.NewSource(seed))
	space := metric.NewRing(n * 4)
	mesh, err := core.NewMesh(netsim.New(space), cfg)
	if err != nil {
		return err
	}
	perm := rng.Perm(space.Size())
	addrs := make([]netsim.Addr, n)
	for i := range addrs {
		addrs[i] = netsim.Addr(perm[i])
	}
	nodes, _, err := mesh.GrowSequential(addrs, rng)
	if err != nil {
		return err
	}

	// 3. Boot one daemon per overlay node and scrape its bound address.
	start := time.Now()
	daemons := make([]*daemon, n)
	defer func() {
		for _, d := range daemons {
			if d == nil {
				continue
			}
			if d.client != nil {
				d.client.Close()
			}
			if d.proc != nil {
				d.proc.Process.Kill()
				d.proc.Wait()
			}
		}
	}()
	for i := range daemons {
		var args []string
		if basePort > 0 {
			// Fixed ports, one per daemon. The daemon retries a few ports
			// forward if its slot is taken, and the banner below reports the
			// port that actually won, so a stray occupant costs nothing.
			args = append(args, "-listen", fmt.Sprintf("127.0.0.1:%d", basePort+i))
		}
		proc := exec.Command(bin, args...)
		proc.Stderr = os.Stderr
		stdout, err := proc.StdoutPipe()
		if err != nil {
			return err
		}
		if err := proc.Start(); err != nil {
			return fmt.Errorf("daemon %d: %v", i, err)
		}
		daemons[i] = &daemon{proc: proc}
		sc := bufio.NewScanner(stdout)
		if !sc.Scan() {
			return fmt.Errorf("daemon %d exited before announcing its address", i)
		}
		hp, ok := strings.CutPrefix(sc.Text(), "LISTEN ")
		if !ok {
			return fmt.Errorf("daemon %d: unexpected banner %q", i, sc.Text())
		}
		daemons[i].hp = hp
		// The pipe stays open but unread from here on; the daemon prints
		// nothing else, so no writer ever blocks on it.
	}
	fmt.Printf("booted %d daemon processes in %v\n", n, time.Since(start).Round(time.Millisecond))

	// 4. Install each daemon: identity, flattened routing table, and the
	// address book mapping every overlay address to its daemon's socket.
	eps := make([]wire.Endpoint, n)
	for i, d := range daemons {
		eps[i] = wire.Endpoint{Addr: nodes[i].Addr(), HostPort: d.hp}
	}
	for i, d := range daemons {
		d.client = wire.NewClient(d.hp)
		inst := &wire.ClusterInstall{
			Base:      mesh.Spec().Base,
			Digits:    mesh.Spec().Digits,
			R:         cfg.R,
			Self:      route.Entry{ID: nodes[i].ID(), Addr: nodes[i].Addr()},
			Endpoints: eps,
		}
		nodes[i].Table().ForEachNeighbor(func(l int, e route.Entry) {
			inst.Rows = append(inst.Rows, wire.LeveledEntry{Level: l, E: e})
		})
		// Unaddressed (the zero ID): the daemon has no identity until this lands.
		if err := d.client.Exchange(nodes[i].Addr(), ids.ID{}, inst, &wire.ClusterAck{}, nil); err != nil {
			return fmt.Errorf("installing daemon %d: %v", i, err)
		}
	}
	fmt.Printf("installed %d routing tables (%d-ary digits, %d levels)\n",
		n, mesh.Spec().Base, mesh.Spec().Digits)

	// ask is one addressed round trip with daemon i.
	ask := func(i int, req, resp wire.Msg) error {
		return daemons[i].client.Exchange(nodes[i].Addr(), nodes[i].ID(), req, resp, nil)
	}

	// 5. Publish: each object is stored at a round-robin server; the server's
	// daemon deposits pointers hop by hop toward the key's root. The root a
	// walk terminates at must match the central mesh's surrogate.
	guids := make([]ids.ID, objects)
	servers := make([]int, objects)
	published := 0
	for j := range guids {
		guids[j] = mesh.Spec().Hash(fmt.Sprintf("object-%04d", j))
		servers[j] = j % n
		s := servers[j]
		if err := ask(s, &wire.ClusterServe{GUIDs: guids[j : j+1]}, &wire.ClusterAck{}); err != nil {
			return fmt.Errorf("serve %d: %v", j, err)
		}
		var done wire.ClusterPubDone
		if err := ask(s, &wire.ClusterPublish{
			GUID: guids[j], Key: guids[j],
			Server: nodes[s].ID(), ServerAddr: nodes[s].Addr(),
		}, &done); err != nil {
			return fmt.Errorf("publish %d: %v", j, err)
		}
		root := done.Root
		oracle, _, err := nodes[s].SurrogateFor(guids[j], nil)
		if err != nil {
			return fmt.Errorf("oracle surrogate %d: %v", j, err)
		}
		if root.IsZero() || !root.Equal(oracle.ID()) {
			fmt.Printf("publish %d: daemon root %v, oracle root %v\n", j, root, oracle.ID())
			continue
		}
		published++
	}
	fmt.Printf("published %d/%d objects (daemon roots match the central mesh)\n", published, objects)

	// 6. Locate from random clients; every hit must name the true server.
	found, hops := 0, 0
	for q := 0; q < queries; q++ {
		j := rng.Intn(objects)
		c := rng.Intn(n)
		var f wire.ClusterFound
		if err := ask(c, &wire.ClusterLocate{GUID: guids[j], Key: guids[j]}, &f); err != nil {
			return fmt.Errorf("locate %d: %v", q, err)
		}
		if f.Found && f.ServerAddr == nodes[servers[j]].Addr() {
			found++
			hops += f.Hops
		}
	}
	fmt.Printf("queries: %d/%d found | mean hops %.2f\n", found, queries,
		float64(hops)/float64(max(found, 1)))

	if published != objects || found != queries {
		return fmt.Errorf("cluster run incomplete: %d/%d published, %d/%d found",
			published, objects, found, queries)
	}
	fmt.Println("OK: every publish and every locate succeeded over real sockets")
	return nil
}
