package overlay

import (
	"errors"
	"fmt"

	"tapestry/internal/directory"
	"tapestry/internal/netsim"
)

// directoryCaps: clients come and go freely (a join is one attach, a
// graceful leave deregisters its replicas), crashed clients leave stale
// registrations behind (queries that pick the dead replica fail — the
// strawman has no repair), and Unpublish is one withdraw round trip. There
// is no maintenance: the table is hard state on the single server.
const directoryCaps = CapJoin | CapLeave | CapFail | CapUnpublish

// dirProto adapts the centralized-directory strawman: members are clients,
// the server sits at the first address the Build population leaves free.
type dirProto struct {
	members
	net *netsim.Network
	d   *directory.Directory
}

type dirHandle struct{ addr netsim.Addr }

func (h dirHandle) Addr() netsim.Addr { return h.addr }
func (h dirHandle) Label() string     { return fmt.Sprintf("client@%d", h.addr) }

func newDirectory(net *netsim.Network, cfg Config) (Protocol, error) {
	return &dirProto{net: net}, nil
}

func (p *dirProto) Name() string         { return "directory" }
func (p *dirProto) Caps() Caps           { return directoryCaps }
func (p *dirProto) Net() *netsim.Network { return p.net }

// Server returns the central server's address.
func (p *dirProto) Server() netsim.Addr { return p.d.Server() }

// DirectoryServer exposes the central server address of a directory-backed
// protocol (false for every other protocol) — experiments fold the server's
// load in explicitly, since it is not a client.
func DirectoryServer(pr Protocol) (netsim.Addr, bool) {
	d, ok := pr.(*dirProto)
	if !ok || d.d == nil {
		return 0, false
	}
	return d.Server(), true
}

func (p *dirProto) Build(addrs []netsim.Addr) ([]Handle, []int, error) {
	p.opMu.Lock()
	defer p.opMu.Unlock()
	if err := p.members.checkEmptyBuild(); err != nil {
		return nil, nil, err
	}
	used := make(map[netsim.Addr]bool, len(addrs))
	for _, a := range addrs {
		used[a] = true
	}
	server := netsim.Addr(-1)
	for a := 0; a < p.net.Size(); a++ {
		if !used[netsim.Addr(a)] {
			server = netsim.Addr(a)
			break
		}
	}
	if server < 0 {
		return nil, nil, errors.New("overlay: no free address for the directory server")
	}
	p.d = directory.New(p.net, server)
	handles := make([]Handle, len(addrs))
	for i, a := range addrs {
		p.net.Attach(a)
		handles[i] = dirHandle{a}
		p.members.add(handles[i])
	}
	return handles, make([]int, len(addrs)), nil
}

func (p *dirProto) Join(addr netsim.Addr) (Handle, netsim.Cost, error) {
	p.opMu.Lock()
	defer p.opMu.Unlock()
	var cost netsim.Cost
	if p.d == nil {
		return nil, cost, errors.New("overlay: directory joins require a prior Build")
	}
	if p.members.at(addr) != nil || addr == p.d.Server() {
		return nil, cost, fmt.Errorf("overlay: directory address %d taken", addr)
	}
	p.net.Attach(addr)
	h := dirHandle{addr}
	p.members.add(h)
	return h, cost, nil
}

func (p *dirProto) Leave(h Handle) (netsim.Cost, error) {
	var cost netsim.Cost
	if err := p.d.Deregister(h.Addr(), &cost); err != nil {
		return cost, err
	}
	p.net.Detach(h.Addr())
	p.members.remove(h)
	return cost, nil
}

// Fail kills a client without notice: its registrations stay in the table,
// so queries that pick the dead replica fail until another replica exists.
func (p *dirProto) Fail(h Handle) error {
	p.net.Detach(h.Addr())
	p.members.remove(h)
	return nil
}

func (p *dirProto) Publish(h Handle, key string) (netsim.Cost, error) {
	var cost netsim.Cost
	return cost, p.d.Publish(key, h.Addr(), &cost)
}

func (p *dirProto) Unpublish(h Handle, key string) (netsim.Cost, error) {
	var cost netsim.Cost
	return cost, p.d.Withdraw(key, h.Addr(), &cost)
}

func (p *dirProto) Locate(h Handle, key string) (Result, netsim.Cost) {
	var cost netsim.Cost
	res := p.d.Locate(h.Addr(), key, &cost)
	if !res.Found {
		return Result{}, cost
	}
	return Result{Found: true, Server: res.Server,
		ServerID: p.members.labelAt(res.Server), Hops: res.Hops}, cost
}

func (p *dirProto) Maintain() (netsim.Cost, error) {
	return netsim.Cost{}, unsupported("directory", "Maintain")
}

// TableSize is zero for clients: the directory concentrates all routing
// state on the single server.
func (p *dirProto) TableSize(h Handle) int { return 0 }

func (p *dirProto) Stats() Stats {
	return Stats{Nodes: p.members.count(), TotalMessages: p.net.TotalMessages()}
}
