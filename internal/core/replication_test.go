package core

import (
	"testing"

	"tapestry/internal/ids"
	"tapestry/internal/metric"
	"tapestry/internal/netsim"
)

// purgeSaltPath deletes every pointer on (server, Salt(guid, salt))'s publish
// path mesh-wide, simulating a root path that decayed — the pointer holders
// crashed and were replaced — without the server having republished yet.
func purgeSaltPath(nodes []*Node, server *Node, guid ids.ID, salt int) {
	key := server.mesh.cfg.Spec.Salt(guid, salt)
	for _, nd := range nodes {
		nd.purgePointer(guid, server.id, key)
	}
}

func TestReplicationConfigValidation(t *testing.T) {
	net := netsim.New(metric.NewRing(8))
	if _, err := NewMesh(net, Config{Spec: testSpec, Replicas: -1}); err == nil {
		t.Error("Replicas: -1 should be rejected")
	}
}

// TestPublishReplicated pins the k-replica placement: the object lands on
// exactly Replicas servers (the publisher plus the closest live peers), every
// copy is announced along every salted root, and the object survives the
// original publisher crashing.
func TestPublishReplicated(t *testing.T) {
	cfg := testConfig()
	cfg.RootSetSize = 2
	cfg.Replicas = 3
	m, nodes := buildMesh(t, 48, cfg, 5)

	guid := testSpec.Hash("replicated-object")
	placed, err := nodes[0].PublishReplicated(guid, nil)
	if err != nil {
		t.Fatalf("PublishReplicated: %v", err)
	}
	if placed != 3 {
		t.Fatalf("placed %d replicas, want 3", placed)
	}
	var servers []*Node
	for _, nd := range nodes {
		for _, g := range nd.PublishedObjects() {
			if g.Equal(guid) {
				servers = append(servers, nd)
			}
		}
	}
	if len(servers) != 3 {
		t.Fatalf("%d nodes serve the object, want 3", len(servers))
	}
	if servers[0] != nodes[0] && servers[1] != nodes[0] && servers[2] != nodes[0] {
		t.Error("the publisher itself must be one of the replicas")
	}
	// The object must be reachable through every salted root.
	for salt := 0; salt < cfg.RootSetSize; salt++ {
		if res := nodes[7].LocateVia(guid, salt, nil); !res.Found {
			t.Fatalf("salt-%d locate missed with %d replicas placed", salt, placed)
		}
	}

	// Crash the publisher: the other replicas keep the object reachable
	// (serveQuery verifies replica liveness and falls back to a live copy).
	m.Fail(nodes[0])
	res := nodes[11].Locate(guid, nil)
	if !res.Found {
		t.Fatal("object unreachable after the publisher crashed despite 2 surviving replicas")
	}
	if res.Server.Equal(nodes[0].ID()) {
		t.Errorf("locate answered with the crashed replica %v", res.Server)
	}
}

// TestPublishReplicatedSingle pins that Replicas=1 collapses to plain
// Publish: one server, no placement traffic.
func TestPublishReplicatedSingle(t *testing.T) {
	cfg := testConfig()
	m, nodes := buildMesh(t, 24, cfg, 6)
	_ = m
	guid := testSpec.Hash("solo")
	placed, err := nodes[3].PublishReplicated(guid, nil)
	if err != nil || placed != 1 {
		t.Fatalf("PublishReplicated = (%d, %v), want (1, nil)", placed, err)
	}
	count := 0
	for _, nd := range nodes {
		count += len(nd.PublishedObjects())
	}
	if count != 1 {
		t.Fatalf("%d servers hold the object, want 1", count)
	}
}

// TestReadRepair pins the locate-triggered repair: with one salted root's
// path decayed, a multi-root locate still succeeds via the surviving root
// and re-publishes toward the missed one, after which a direct single-root
// query on the previously dead salt hits again.
func TestReadRepair(t *testing.T) {
	cfg := testConfig()
	cfg.RootSetSize = 2
	_, nodes := buildMesh(t, 48, cfg, 7)

	server := nodes[1]
	guid := testSpec.Hash("repair-me")
	if err := server.Publish(guid, nil); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	purgeSaltPath(nodes, server, guid, 1)

	client := nodes[30]
	if res := client.LocateVia(guid, 1, nil); res.Found || res.Exhausted {
		t.Fatalf("salt-1 path not decayed: %+v", res)
	}

	// Locate draws its starting root pseudo-randomly; a draw starting at the
	// dead salt observes the miss, succeeds via salt 0 and repairs. A handful
	// of queries guarantees such a draw for any fixed seed.
	repaired := false
	for q := 0; q < 32 && !repaired; q++ {
		res := client.Locate(guid, nil)
		if !res.Found {
			t.Fatalf("multi-root locate %d missed entirely", q)
		}
		repaired = client.LocateVia(guid, 1, nil).Found
	}
	if !repaired {
		t.Fatal("32 multi-root locates never repaired the decayed salt-1 path")
	}
}

// TestReplicaPlacementPrefersClose pins the nearest-engine selection: the
// extra replicas are drawn from the closest candidates, not arbitrary mesh
// members. The check is loose — within the closest third of the live
// population by distance from the publisher — because the engine's k-list
// is an approximation under Lemma 1, not an oracle sort.
func TestReplicaPlacementPrefersClose(t *testing.T) {
	cfg := testConfig()
	cfg.Replicas = 3
	m, nodes := buildMesh(t, 60, cfg, 9)

	pub := nodes[4]
	guid := testSpec.Hash("near-copies")
	if _, err := pub.PublishReplicated(guid, nil); err != nil {
		t.Fatalf("PublishReplicated: %v", err)
	}

	// Rank all other nodes by distance from the publisher.
	rank := make(map[ids.ID]int)
	others := make([]*Node, 0, len(nodes)-1)
	for _, nd := range nodes {
		if nd != pub {
			others = append(others, nd)
		}
	}
	sortNodesByDistance(m.Net(), pub, others)
	for i, nd := range others {
		rank[nd.ID()] = i
	}

	limit := len(others) / 3
	for _, nd := range others {
		if len(nd.PublishedObjects()) == 0 {
			continue
		}
		if r := rank[nd.ID()]; r >= limit {
			t.Errorf("replica %v is distance-rank %d of %d, expected within the closest third",
				nd.ID(), r, len(others))
		}
	}
}

func sortNodesByDistance(net *netsim.Network, from *Node, list []*Node) {
	for i := 1; i < len(list); i++ {
		for j := i; j > 0; j-- {
			dj := net.Distance(from.Addr(), list[j].Addr())
			dp := net.Distance(from.Addr(), list[j-1].Addr())
			if dj < dp || (dj == dp && list[j].ID().Less(list[j-1].ID())) {
				list[j], list[j-1] = list[j-1], list[j]
			} else {
				break
			}
		}
	}
}
