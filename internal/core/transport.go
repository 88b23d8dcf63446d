package core

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"

	"tapestry/internal/ids"
	"tapestry/internal/netsim"
	"tapestry/internal/route"
	"tapestry/internal/wire"
)

// This file is the node-to-node message seam. Every remote interaction in
// the package goes through Mesh.invoke / Mesh.oneWayMsg with a typed
// internal/wire message. The mesh does what every backend shares, once:
// Mesh.rpc / Mesh.oneWay charge the simulated network (the cost model is the
// simulator's, not the kernel's), resolve the live node behind the entry and
// build the one failure shape, *PeerError. A pluggable Transport then only
// delivers the message to that node:
//
//   - TransportDirect (default): the peer-side work runs as a direct method
//     call. Zero serialization, zero allocation.
//   - TransportLoopback: every request and response round-trips through the
//     wire codec (encode -> decode into a recycled struct of its type) before
//     the peer sees it, so running the full test suite under it proves every
//     RPC survives serialization.
//   - TransportTCP: every message additionally crosses a real socket through
//     a per-mesh loopback listener, on the framed-TCP stack the daemons use
//     (wire/tcp.go). The handler runs against the connection's meter and the
//     reply carries what it spent back to the caller's, so TCP charges what
//     direct charges. Incompatible with the virtual-time event engine, whose
//     clock only advances between simulated sends.
//
// Division of labor: messages whose peer-side effect is a state mutation or a
// data-carrying response (table-band queries, join snapshots, backpointer
// registrations, leave notifications, share offers, replica verification,
// Figure 9's backward deletion) are executed by (*Node).dispatch on the
// receiving node. Walk-step messages (RouteStep, LocateStep, LocalStep,
// PtrForward; McastStep, CaravanStep) are dispatch no-ops: a key-directed
// walk is one driver (runWalk, walk.go) that owns the hop policy and, once
// the message is delivered, runs the operation's step at the node the mesh
// resolved — under one hold of that node's lock, touching only that node;
// whatever the step needs sent is a continuation the driver runs after
// unlocking. The step is therefore already a handler in all but its call
// site, while the iterative driver — and its allocation-free hot path —
// stays, and the messages themselves document and (under loopback/TCP)
// exercise the full wire protocol.

// TransportKind selects the message-transport backend of a Mesh.
type TransportKind int

const (
	// TransportAuto defers to the TAPESTRY_TRANSPORT environment variable
	// (direct | loopback | tcp), defaulting to TransportDirect.
	TransportAuto TransportKind = iota
	// TransportDirect is the in-memory direct-dispatch backend.
	TransportDirect
	// TransportLoopback round-trips every message through the wire codec.
	TransportLoopback
	// TransportTCP sends every message through a real localhost socket.
	TransportTCP
)

func (k TransportKind) String() string {
	switch k {
	case TransportAuto:
		return "auto"
	case TransportDirect:
		return "direct"
	case TransportLoopback:
		return "loopback"
	case TransportTCP:
		return "tcp"
	default:
		return fmt.Sprintf("transport(%d)", int(k))
	}
}

// ParseTransport maps a flag/environment string onto a TransportKind.
func ParseTransport(s string) (TransportKind, error) {
	switch s {
	case "", "auto":
		return TransportAuto, nil
	case "direct":
		return TransportDirect, nil
	case "loopback":
		return TransportLoopback, nil
	case "tcp":
		return TransportTCP, nil
	default:
		return TransportAuto, fmt.Errorf("core: unknown transport %q (want direct, loopback or tcp)", s)
	}
}

// transportEnv is the environment override consulted by TransportAuto.
const transportEnv = "TAPESTRY_TRANSPORT"

// resolveTransportKind folds the environment into an Auto kind.
func resolveTransportKind(k TransportKind) (TransportKind, error) {
	if k != TransportAuto {
		return k, nil
	}
	k, err := ParseTransport(os.Getenv(transportEnv))
	if err != nil {
		return TransportAuto, err
	}
	if k == TransportAuto {
		k = TransportDirect
	}
	return k, nil
}

// PeerError is the one typed error every transport backend maps a failed
// delivery onto: the host was unreachable, the overlay node is gone, the
// address hosts a different ID now, or (under TCP) the socket failed. All
// backends agree on when it is returned — a walk's failed-hop handling
// behaves identically everywhere.
type PeerError struct {
	To  route.Entry // the stale entry that was dialed
	Err error       // underlying cause (errDead, netsim.ErrUnreachable, an I/O error)
}

func (e *PeerError) Error() string {
	return fmt.Sprintf("core: peer %v@%d unavailable: %v", e.To.ID, e.To.Addr, e.Err)
}

func (e *PeerError) Unwrap() error { return e.Err }

// Transport delivers one typed wire message to a node the mesh has already
// charged for and resolved: the node's dispatch handler runs with req and —
// for a request/response exchange; nil makes it a one-way — fills resp, its
// own traffic charged to cost. An error is a delivery failure (a socket's).
type Transport interface {
	deliver(target *Node, req, resp wire.Msg, cost *netsim.Cost) error
	Close() error
}

// Shared field-less messages: safe for concurrent use on every backend
// because encoding and decoding them is a no-op.
var (
	msgPing      = &wire.Ping{}
	msgAck       = &wire.Ack{}
	msgReacquire = &wire.ReacquireReq{}
)

// msgFrames is a per-operation bundle of recyclable message structs. Walk
// drivers take one from the mesh pool (getFrames), fill the fields of the
// message they are about to send, and return the bundle when the operation
// completes. A bundle is never handed to a nested operation — anything that
// starts its own walk takes its own bundle — so a frame's contents are stable
// for the duration of one Invoke/OneWay call.
//
// The bundle also holds the operation's ledger (cost). An object operation's
// entry point (Locate, LocateVia, LocateLocal, Publish, PublishLocal,
// PublishReplicated, Unpublish) takes the bundle with beginOp, charges
// everything below it to &f.cost, and folds that into the caller's *Cost once,
// in endOp; the caller's pointer never flows inward. That is what lets a
// caller keep its Cost on its stack: whoever allocates it, a ledger handed
// down the walk escapes — walk.cost and nnSearch.cost store it in pooled
// structs, and Transport.deliver is an interface call the compiler cannot see
// through — so a ledger that must live on the heap anyway lives in the one
// heap object the operation already recycles. It is made with a counter
// stripe of its own (netsim.Cost.UseStripe) that Reset keeps: sync.Pool hands
// a bundle back to the P that returned it, so an operation's messages are
// counted on a line that stays in that core's cache. Operations that are
// handed a ledger to charge (joins, leaves, the maintenance passes, a
// dispatch handler) leave the bundle's alone.
type msgFrames struct {
	cost       netsim.Cost
	walk       walk      // the bundle's key-directed walk (walk.go); its step message is one of the frames below
	visitedBuf [8]ids.ID // backs the walk's loop memory until a walk outgrows it: a fresh bundle grows no slice hop by hop
	route      wire.RouteStep
	share      wire.ShareReq
	shareResp  wire.ShareResp
	locate     wire.LocateStep
	verify     wire.VerifyReq
	verifyResp wire.VerifyResp
	del        wire.DeleteBack
	backAdd    wire.BackAdd
	backRemove wire.BackRemove
	mcast      wire.McastStep
	notify     wire.McastNotify
	joinReq    wire.JoinSnapshotReq
	joinResp   wire.JoinSnapshotResp
	caravan    wire.CaravanStep
	batch      caravanScratch // republishBatched's buffers; caravan.Recs is a window of its arena
	sweep      sweepScratch   // SweepDeadAll's verdicts and link snapshot
	leave      wire.LeaveNotify
	deleted    wire.NodeDeleted
	drop       wire.DropLinks
	local      wire.LocalStep
	fwd        wire.PtrForward
	pub        wire.PublishReq
}

func (m *Mesh) getFrames() *msgFrames {
	if f, ok := m.framePool.Get().(*msgFrames); ok {
		return f
	}
	f := &msgFrames{}
	f.cost.UseStripe()
	return f
}

func (m *Mesh) putFrames(f *msgFrames) { m.framePool.Put(f) }

// beginOp takes the bundle of one object operation, its ledger zeroed; endOp
// folds what the operation charged into the caller's ledger (nil records
// nothing) and returns the bundle.
func (m *Mesh) beginOp() *msgFrames {
	f := m.getFrames()
	f.cost.Reset()
	return f
}

func (m *Mesh) endOp(f *msgFrames, cost *netsim.Cost) {
	cost.Merge(&f.cost)
	m.putFrames(f)
}

// invoke sends a request/response pair to the entry's node: charged and
// resolved here, delivered by the mesh transport. It returns the node for the
// walk drivers' in-process continuation; errors are always *PeerError.
func (m *Mesh) invoke(from netsim.Addr, to route.Entry, req, resp wire.Msg, cost *netsim.Cost, hop bool) (*Node, error) {
	target, err := m.rpc(from, to, cost, hop)
	if err != nil {
		return nil, err
	}
	return delivered(target, to, m.tr.deliver(target, req, resp, cost))
}

// oneWayMsg sends a fire-and-forget message to the entry's node the same way.
func (m *Mesh) oneWayMsg(from netsim.Addr, to route.Entry, msg wire.Msg, cost *netsim.Cost) (*Node, error) {
	target, err := m.oneWay(from, to, cost)
	if err != nil {
		return nil, err
	}
	return delivered(target, to, m.tr.deliver(target, msg, nil, cost))
}

// delivered maps a transport's delivery failure onto the one error shape. The
// exchange was charged before it was attempted, as a dead peer's probe is.
func delivered(target *Node, to route.Entry, err error) (*Node, error) {
	if err != nil {
		return nil, &PeerError{To: to, Err: err}
	}
	return target, nil
}

// newTransport builds the backend for a resolved (non-Auto) kind.
func newTransport(m *Mesh, k TransportKind) (Transport, error) {
	switch k {
	case TransportDirect:
		return directTransport{}, nil
	case TransportLoopback:
		return &loopbackTransport{}, nil
	case TransportTCP:
		return newTCPTransport(m)
	default:
		return nil, fmt.Errorf("core: cannot build transport %v", k)
	}
}

// dispatch applies req's peer-side effect at the target node, filling resp
// for request/response messages (resp is nil for one-ways). It runs after the
// mesh has charged the exchange and resolved the live target — the same
// point where the pre-transport code performed these mutations inline at the
// call site. cost meters what the handler itself sends: the operation's own
// meter on direct and loopback, the server connection's on TCP, whose reply
// carries it back to the operation's.
//
// req and resp belong to the transport, which reuses them for the next
// message of their type: the wire.Handler rule — retain nothing, overwrite
// every field of resp — binds every case below.
func (target *Node) dispatch(req, resp wire.Msg, cost *netsim.Cost) {
	switch q := req.(type) {
	case *wire.Ping, *wire.Ack, *wire.ReacquireReq,
		*wire.RouteStep, *wire.LocateStep, *wire.LocalStep,
		*wire.McastStep, *wire.CaravanStep, *wire.PtrForward:
		// Walk steps and probes: the walk driver runs the receiver's step
		// in-process (see the file comment).
	case *wire.TableBandReq:
		r := resp.(*wire.TableBandResp)
		r.Entries = r.Entries[:0]
		target.mu.Lock()
		top := target.table.Levels()
		if q.Fold >= 0 && q.Fold < top {
			top = q.Fold
		}
		if q.Floor < top {
			// The whole [floor, top) row band is one contiguous copy under
			// the SoA layout; each level's backpointers (kept ID-sorted) are
			// one more.
			r.Entries = append(r.Entries, target.table.RangeView(q.Floor, top)...)
			for l := q.Floor; l < top; l++ {
				r.Entries = target.table.AppendBacks(r.Entries, l)
			}
		}
		target.mu.Unlock()
	case *wire.ShareReq:
		resp.(*wire.ShareResp).Adopted = target.considerEntries(q.Entries, cost)
	case *wire.VerifyReq:
		target.mu.Lock()
		_, resp.(*wire.VerifyResp).Serves = target.published.Get(q.GUID)
		target.mu.Unlock()
	case *wire.PublishReq:
		target.handlePublishReq(q, cost)
	case *wire.JoinSnapshotReq:
		target.joinSnapshot(q, resp.(*wire.JoinSnapshotResp), cost)
	case *wire.BackAdd:
		target.mu.Lock()
		target.table.AddBack(q.Level, q.From)
		target.mu.Unlock()
	case *wire.BackRemove:
		target.mu.Lock()
		target.table.RemoveBack(q.Level, q.ID)
		target.mu.Unlock()
	case *wire.McastNotify:
		for _, s := range q.Slots {
			target.addNeighborAndNotify(s.Level, q.Me, cost)
		}
	case *wire.LeaveNotify:
		target.onPeerLeaving(q.Leaver, q.Level, q.Replacements, cost)
	case *wire.NodeDeleted:
		target.onPeerDeleted(q.ID, cost)
	case *wire.DropLinks:
		target.mu.Lock()
		target.table.Remove(q.ID)
		target.mu.Unlock()
	case *wire.DeleteBack:
		target.handleDeleteBack(q, cost)
	default:
		panic(fmt.Sprintf("core: no dispatch handler for %T", req))
	}
}

// Handle makes a Node the wire.Handler the codec receivers dispatch to.
func (target *Node) Handle(req, resp wire.Msg, cost *netsim.Cost) error {
	target.dispatch(req, resp, cost)
	return nil
}

// directTransport is the historical shared-memory path: a direct method
// dispatch. Zero serialization, zero allocation.
type directTransport struct{}

func (directTransport) deliver(target *Node, req, resp wire.Msg, cost *netsim.Cost) error {
	target.dispatch(req, resp, cost)
	return nil
}

func (directTransport) Close() error { return nil }

// loopbackTransport encodes the request, has the scratch's wire.Receiver
// receive it — decoded into the recycled struct of its type, dispatched, the
// response framed — and decodes the response back into the caller's struct. A
// codec defect anywhere is a loud panic under the test suite rather than
// silent state corruption.
//
// The scratch is held THROUGH dispatch: the handler reads the recycled
// request in place, and whatever the handler sends itself takes another
// scratch from the pool.
type loopbackTransport struct {
	pool sync.Pool // *loopScratch

	// afterDispatch, when set (tests only), sees each recycled request struct
	// the moment its handler has returned.
	afterDispatch func(req wire.Msg)
}

// loopScratch is one message exchange's codec state: the caller's half (the
// request out, the response back in) and the receiver.
type loopScratch struct {
	out wire.Enc
	dec wire.Dec
	rc  wire.Receiver
}

func (t *loopbackTransport) deliver(target *Node, req, resp wire.Msg, cost *netsim.Cost) error {
	s, ok := t.pool.Get().(*loopScratch)
	if !ok {
		s = &loopScratch{}
	}
	respType := wire.Type(0)
	if resp != nil {
		respType = resp.WireType()
	}
	s.out.Reset()
	s.out.Frame(req)
	reply, err := s.rc.Serve(target, s.out.Bytes(), respType, cost, t.afterDispatch)
	if err == nil && resp != nil {
		_, err = s.dec.Frame(reply, resp)
	}
	if err != nil {
		panic(fmt.Sprintf("core: loopback codec round-trip of %T/%T failed: %v", req, resp, err))
	}
	t.pool.Put(s)
	return nil
}

func (t *loopbackTransport) Close() error { return nil }

// tcpTransport sends every message through a real localhost TCP listener
// owned by the mesh, on the shared framed-TCP stack (wire/tcp.go): it is the
// listener, the wire.Host that resolves an envelope's target, and a client of
// itself.
type tcpTransport struct {
	m      *Mesh
	ln     net.Listener
	srv    wire.Server
	client *wire.Client
}

func newTCPTransport(m *Mesh) (*tcpTransport, error) {
	if m.net.Engine() != nil {
		return nil, errors.New("core: the TCP transport is incompatible with the virtual-time event engine (real sockets cannot park on simulated time)")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("core: tcp transport listener: %w", err)
	}
	t := &tcpTransport{m: m, ln: ln, client: wire.NewClient(ln.Addr().String())}
	t.srv.Host = t
	go t.srv.Serve(ln) // returns when Close closes the listener
	return t, nil
}

// Addr returns the listener's address (teardown tests dial it after Close).
func (t *tcpTransport) Addr() net.Addr { return t.ln.Addr() }

// Lookup is the server side's resolution of an envelope: the message crossed
// a socket as bytes, so the node the caller resolved is found again by the
// address and identifier it was sent to. A node that went away in between is
// a status-1 reply, which the caller sees as errDead.
func (t *tcpTransport) Lookup(oneWay bool, addr netsim.Addr, id []ids.Digit) wire.Handler {
	target := t.m.NodeAt(addr)
	if target == nil || !target.id.EqualDigits(id) || (!oneWay && target.state.load() == stateDead) {
		return nil
	}
	return target
}

func (t *tcpTransport) deliver(target *Node, req, resp wire.Msg, cost *netsim.Cost) error {
	return t.client.Exchange(target.addr, target.id, req, resp, cost)
}

func (t *tcpTransport) Close() error {
	t.client.Close()
	if err := t.ln.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}
