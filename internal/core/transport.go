package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"tapestry/internal/ids"
	"tapestry/internal/netsim"
	"tapestry/internal/route"
	"tapestry/internal/wire"
)

// This file is the node-to-node message seam. Every remote interaction in
// the package goes through Mesh.invoke / Mesh.oneWayMsg with a typed
// internal/wire message, and a pluggable Transport decides how that message
// travels:
//
//   - TransportDirect (default): the historical shared-memory path. Costs are
//     charged via netsim exactly as before and the peer-side work runs as a
//     direct method call; behavior and simulated-cost accounting are
//     byte-identical to the pre-transport code.
//   - TransportLoopback: identical charging, but every request and response
//     round-trips through the wire codec (encode -> decode into a recycled
//     struct of its type) before the peer sees it, so running the full test
//     suite under it proves every RPC survives serialization.
//   - TransportTCP: every message additionally crosses a real socket through
//     a per-mesh loopback listener. Simulated costs are still charged on the
//     caller (the cost model is the simulator's, not the kernel's); peer-side
//     work triggered by a handler is not charged, since a *netsim.Cost cannot
//     cross a socket. Incompatible with the virtual-time event engine, whose
//     clock only advances between simulated sends.
//
// Division of labor: messages whose peer-side effect is a state mutation or a
// data-carrying response (table-band queries, join snapshots, backpointer
// registrations, leave notifications, share offers, replica verification)
// are executed by (*Node).dispatch on the receiving node. Walk-step messages
// (RouteStep, LocateStep, LocalStep, PtrForward; McastStep, CaravanStep) are
// dispatch no-ops: a key-directed walk is one driver (runWalk, walk.go) that
// owns the hop policy and, once the transport has delivered the hop, runs the
// operation's step at the node it returns — under one hold of that node's
// lock, touching only that node; whatever the step needs sent is a
// continuation the driver runs after unlocking. The step is therefore
// already a handler in all but its call site, while the iterative driver —
// and its allocation-free hot path — stays, and the messages themselves
// document and (under loopback/TCP) exercise the full wire protocol.

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

// Transport delivers typed wire messages between overlay nodes. Invoke is a
// request/response exchange (hop marks a routing hop for cost accounting);
// OneWay is fire-and-forget. Both charge the simulated network, resolve the
// live peer, run its dispatch handler, and return the peer for the walk
// drivers' in-process continuation. Errors are always *PeerError.
type Transport interface {
	Kind() TransportKind
	Invoke(from netsim.Addr, to route.Entry, req, resp wire.Msg, cost *netsim.Cost, hop bool) (*Node, error)
	OneWay(from netsim.Addr, to route.Entry, msg wire.Msg, cost *netsim.Cost) (*Node, error)
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
type msgFrames struct {
	walk       walk      // the bundle's key-directed walk (walk.go); its step message is one of the frames below
	visitedBuf [8]ids.ID // backs the walk's loop memory until a walk outgrows it: a fresh bundle grows no slice hop by hop
	route      wire.RouteStep
	match      wire.MatchQueryReq
	matchResp  wire.MatchQueryResp
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
	return &msgFrames{}
}

func (m *Mesh) putFrames(f *msgFrames) { m.framePool.Put(f) }

// invoke sends a request/response pair to the entry's node via the mesh
// transport.
func (m *Mesh) invoke(from netsim.Addr, to route.Entry, req, resp wire.Msg, cost *netsim.Cost, hop bool) (*Node, error) {
	return m.tr.Invoke(from, to, req, resp, cost, hop)
}

// oneWayMsg sends a fire-and-forget message to the entry's node via the mesh
// transport.
func (m *Mesh) oneWayMsg(from netsim.Addr, to route.Entry, msg wire.Msg, cost *netsim.Cost) (*Node, error) {
	return m.tr.OneWay(from, to, msg, cost)
}

// newTransport builds the backend for a resolved (non-Auto) kind.
func newTransport(m *Mesh, k TransportKind) (Transport, error) {
	switch k {
	case TransportDirect:
		return directTransport{m}, nil
	case TransportLoopback:
		return &loopbackTransport{m: m}, nil
	case TransportTCP:
		return newTCPTransport(m)
	default:
		return nil, fmt.Errorf("core: cannot build transport %v", k)
	}
}

// dispatch applies req's peer-side effect at the target node, filling resp
// for request/response messages (resp is nil for one-ways). It runs after the
// transport has charged the exchange and resolved the live target — the same
// point where the pre-transport code performed these mutations inline at the
// call site. cost is the operation's meter on direct/loopback and nil on the
// TCP server side.
//
// req and resp belong to the transport, which reuses them for the next
// message of their type: a handler must not retain req, resp or any slice
// inside them past return (it copies out what it keeps), and must overwrite
// every field of resp.
func (target *Node) dispatch(req, resp wire.Msg, cost *netsim.Cost) {
	switch q := req.(type) {
	case *wire.Ping, *wire.Ack, *wire.ReacquireReq,
		*wire.RouteStep, *wire.LocateStep, *wire.LocalStep,
		*wire.McastStep, *wire.CaravanStep, *wire.PtrForward, *wire.DeleteBack:
		// Walk steps and probes: the walk driver runs the receiver's step
		// in-process (see the file comment).
	case *wire.MatchQueryReq:
		r := resp.(*wire.MatchQueryResp)
		r.Entries = r.Entries[:0]
		target.mu.Lock()
		if ids.CommonPrefixLen(target.id, q.Origin) >= q.Level {
			r.Entries = append(r.Entries, target.table.Set(q.Level, q.Digit)...)
		}
		target.mu.Unlock()
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
		resp.(*wire.VerifyResp).Serves = target.published[q.GUID]
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
	default:
		panic(fmt.Sprintf("core: no dispatch handler for %T", req))
	}
}

// directTransport is the historical shared-memory path: charge, resolve,
// direct method dispatch. Zero serialization, zero allocation.
type directTransport struct{ m *Mesh }

func (t directTransport) Kind() TransportKind { return TransportDirect }

func (t directTransport) Invoke(from netsim.Addr, to route.Entry, req, resp wire.Msg, cost *netsim.Cost, hop bool) (*Node, error) {
	target, err := t.m.rpc(from, to, cost, hop)
	if err != nil {
		return nil, err
	}
	target.dispatch(req, resp, cost)
	return target, nil
}

func (t directTransport) OneWay(from netsim.Addr, to route.Entry, msg wire.Msg, cost *netsim.Cost) (*Node, error) {
	target, err := t.m.oneWay(from, to, cost)
	if err != nil {
		return nil, err
	}
	target.dispatch(msg, nil, cost)
	return target, nil
}

func (t directTransport) Close() error { return nil }

// msgSet holds one recycled message struct per wire type, made on first use.
// A transport that owns one decodes every message of a type into the same
// struct, so a fixed-size message costs no allocation to receive.
type msgSet []wire.Msg

// get returns the set's struct for t, or nil when t is not a defined type.
func (s *msgSet) get(t wire.Type) wire.Msg {
	for int(t) >= len(*s) {
		*s = append(*s, nil)
	}
	if (*s)[t] == nil {
		(*s)[t] = wire.New(t)
	}
	return (*s)[t]
}

// loopbackTransport charges and resolves exactly like direct, but the request
// is encoded and decoded into the scratch's recycled struct of its type
// before the peer dispatches it, and the response is encoded by the peer and
// decoded back into the caller's struct. A codec defect anywhere is a loud
// panic under the test suite rather than silent state corruption.
//
// The scratch is held THROUGH dispatch: the handler reads the recycled
// request in place, and whatever the handler sends itself takes another
// scratch from the pool. The rule that makes recycling sound is the one the
// direct path always imposed through msgFrames — a handler must not retain
// its request struct, or any slice of it, past return.
type loopbackTransport struct {
	m    *Mesh
	pool sync.Pool // *loopScratch

	// afterDispatch, when set (tests only), sees each recycled request struct
	// the moment its handler has returned.
	afterDispatch func(req wire.Msg)
}

// loopScratch is one message exchange's codec state and recycled structs.
type loopScratch struct {
	enc         wire.Enc
	dec         wire.Dec
	reqs, resps msgSet // what a peer's handler is given, what it fills
}

func (t *loopbackTransport) Kind() TransportKind { return TransportLoopback }

func (t *loopbackTransport) getScratch() *loopScratch {
	if s, ok := t.pool.Get().(*loopScratch); ok {
		return s
	}
	return &loopScratch{}
}

// roundTrip encodes m and decodes the frame into the struct `into`.
func (s *loopScratch) roundTrip(m, into wire.Msg) {
	s.enc.Reset()
	s.enc.Frame(m)
	if n, err := s.dec.Frame(s.enc.Bytes(), into); err != nil || n != len(s.enc.Bytes()) {
		panic(fmt.Sprintf("core: loopback codec round-trip of %T failed: consumed %d/%d bytes, err=%v", m, n, len(s.enc.Bytes()), err))
	}
}

func (t *loopbackTransport) Invoke(from netsim.Addr, to route.Entry, req, resp wire.Msg, cost *netsim.Cost, hop bool) (*Node, error) {
	target, err := t.m.rpc(from, to, cost, hop)
	if err != nil {
		return nil, err
	}
	s := t.getScratch()
	wireReq, wireResp := s.reqs.get(req.WireType()), s.resps.get(resp.WireType())
	s.roundTrip(req, wireReq)
	target.dispatch(wireReq, wireResp, cost)
	s.roundTrip(wireResp, resp)
	if t.afterDispatch != nil {
		t.afterDispatch(wireReq)
	}
	t.pool.Put(s)
	return target, nil
}

func (t *loopbackTransport) OneWay(from netsim.Addr, to route.Entry, msg wire.Msg, cost *netsim.Cost) (*Node, error) {
	target, err := t.m.oneWay(from, to, cost)
	if err != nil {
		return nil, err
	}
	s := t.getScratch()
	wireMsg := s.reqs.get(msg.WireType())
	s.roundTrip(msg, wireMsg)
	target.dispatch(wireMsg, nil, cost)
	if t.afterDispatch != nil {
		t.afterDispatch(wireMsg)
	}
	t.pool.Put(s)
	return target, nil
}

func (t *loopbackTransport) Close() error { return nil }

// tcpTransport routes every message through a real localhost TCP listener
// owned by the mesh. The request header on a pooled connection is
//
//	[u8 kind: 0 invoke / 1 one-way][zigzag to.Addr][u8 idLen][id digits]
//	[u8 expected response type][framed request]
//
// and the reply is [u8 status: 0 ok / 1 peer gone][framed response] (invoke)
// or just the status byte (one-way — an uncharged transport-level ack that
// preserves the package's synchronous delivery semantics).
//
// Both ends keep their buffers, codec state and message structs with the
// connection: the client reads each reply through the connection's
// bufio.Reader (the status byte, frame header and body the server flushed
// together arrive in one read), and the server decodes every request into
// its connection's recycled struct of that type — held through dispatch, as
// on loopback, and under the same no-retention rule.
type tcpTransport struct {
	m      *Mesh
	ln     net.Listener
	conns  chan *tcpConn
	closed atomic.Bool

	// timeout bounds one exchange on the client side (tcpExchangeTimeout
	// outside tests): a peer that accepts and never answers must cost a
	// caller one bounded wait, not a pooled connection forever.
	timeout time.Duration

	// afterDispatch is loopbackTransport's test hook, on the server side.
	afterDispatch func(req wire.Msg)
}

// tcpExchangeTimeout is generous because a handler may itself run a whole
// operation over further exchanges (a PublishReq republishes, a
// JoinSnapshotReq notifies) before it answers.
const tcpExchangeTimeout = 30 * time.Second

// tcpConn is one pooled client connection with everything an exchange needs.
type tcpConn struct {
	net.Conn
	br  *bufio.Reader
	out wire.Enc // request header + frame
	in  []byte   // response frame
	dec wire.Dec
}

func newTCPTransport(m *Mesh) (*tcpTransport, error) {
	if m.net.Engine() != nil {
		return nil, errors.New("core: the TCP transport is incompatible with the virtual-time event engine (real sockets cannot park on simulated time)")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("core: tcp transport listener: %w", err)
	}
	t := &tcpTransport{m: m, ln: ln, conns: make(chan *tcpConn, 64), timeout: tcpExchangeTimeout}
	go t.acceptLoop()
	return t, nil
}

func (t *tcpTransport) Kind() TransportKind { return TransportTCP }

// Addr returns the listener's address (teardown tests dial it after Close).
func (t *tcpTransport) Addr() net.Addr { return t.ln.Addr() }

func (t *tcpTransport) acceptLoop() {
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go t.serveConn(conn)
	}
}

// serveConn handles one client connection for its lifetime.
func (t *tcpTransport) serveConn(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	var (
		frame       []byte
		out         wire.Enc
		dec         wire.Dec
		reqs, resps msgSet
		toID        [64]ids.Digit
	)
	for {
		kind, err := br.ReadByte()
		if err != nil {
			return
		}
		toAddr, err := binary.ReadVarint(br)
		if err != nil {
			return
		}
		idLen, err := br.ReadByte()
		if err != nil || int(idLen) > len(toID) {
			return
		}
		if _, err := io.ReadFull(br, toID[:idLen]); err != nil {
			return
		}
		respType, err := br.ReadByte()
		if err != nil {
			return
		}
		frame, err = wire.ReadFrame(br, frame)
		if err != nil {
			return
		}
		req := reqs.get(wire.Type(frame[4])) // ReadFrame returns at least [len][type]
		if req == nil {
			return
		}
		if _, err := dec.Frame(frame, req); err != nil {
			return
		}
		target := t.m.NodeAt(netsim.Addr(toAddr))
		ok := target != nil && target.id.EqualDigits(toID[:idLen])
		if ok && kind == 0 {
			ok = target.state.load() != stateDead
		}
		if !ok {
			if err := bw.WriteByte(1); err != nil {
				return
			}
			if err := bw.Flush(); err != nil {
				return
			}
			continue
		}
		if err := bw.WriteByte(0); err != nil {
			return
		}
		if kind == 0 {
			resp := resps.get(wire.Type(respType))
			if resp == nil {
				return
			}
			// A *netsim.Cost cannot cross a socket: peer-side work runs
			// uncharged here (see the file comment).
			target.dispatch(req, resp, nil)
			out.Reset()
			out.Frame(resp)
			if _, err := bw.Write(out.Bytes()); err != nil {
				return
			}
		} else {
			target.dispatch(req, nil, nil)
		}
		if t.afterDispatch != nil {
			t.afterDispatch(req)
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

func (t *tcpTransport) getConn() (*tcpConn, error) {
	select {
	case c := <-t.conns:
		return c, nil
	default:
		conn, err := net.Dial("tcp", t.ln.Addr().String())
		if err != nil {
			return nil, err
		}
		return &tcpConn{Conn: conn, br: bufio.NewReader(conn)}, nil
	}
}

func (t *tcpTransport) putConn(c *tcpConn) {
	if t.closed.Load() {
		c.Close()
		return
	}
	select {
	case t.conns <- c:
	default:
		c.Close()
	}
}

// exchange performs one bounded request/reply on a pooled connection: header
// and framed request out, status byte in and — for an invoke the peer
// accepted — the framed response decoded into resp (nil for a one-way). A
// connection that fails or times out anywhere is closed, never re-pooled: a
// late reply would otherwise be read as the answer to the next request.
func (t *tcpTransport) exchange(kind byte, to route.Entry, req, resp wire.Msg) (status byte, err error) {
	c, err := t.getConn()
	if err != nil {
		return 0, err
	}
	defer func() {
		if err != nil {
			c.Close()
		} else {
			t.putConn(c)
		}
	}()
	if err = c.SetDeadline(time.Now().Add(t.timeout)); err != nil {
		return 0, err
	}
	respType := wire.Type(0)
	if resp != nil {
		respType = resp.WireType()
	}
	c.out.Reset()
	c.out.U8(kind)
	c.out.Int(int(to.Addr))
	c.out.ID(to.ID)
	c.out.U8(byte(respType))
	c.out.Frame(req)
	if _, err = c.Write(c.out.Bytes()); err != nil {
		return 0, err
	}
	if status, err = c.br.ReadByte(); err != nil || status != 0 || resp == nil {
		return status, err
	}
	if c.in, err = wire.ReadFrame(c.br, c.in); err != nil {
		return 0, err
	}
	_, err = c.dec.Frame(c.in, resp)
	return 0, err
}

func (t *tcpTransport) Invoke(from netsim.Addr, to route.Entry, req, resp wire.Msg, cost *netsim.Cost, hop bool) (*Node, error) {
	if err := t.m.net.Send(from, to.Addr, cost, hop); err != nil {
		return nil, &PeerError{To: to, Err: err}
	}
	status, err := t.exchange(0, to, req, resp)
	if err != nil {
		return nil, &PeerError{To: to, Err: err}
	}
	if status != 0 {
		return nil, &PeerError{To: to, Err: errDead}
	}
	// Response leg, charged exactly where the direct path charges it: only
	// after the peer proved live.
	_ = t.m.net.Send(to.Addr, from, cost, false)
	return t.resolve(to)
}

func (t *tcpTransport) OneWay(from netsim.Addr, to route.Entry, msg wire.Msg, cost *netsim.Cost) (*Node, error) {
	if err := t.m.net.Send(from, to.Addr, cost, false); err != nil {
		return nil, &PeerError{To: to, Err: err}
	}
	status, err := t.exchange(1, to, msg, nil)
	if err != nil {
		return nil, &PeerError{To: to, Err: err}
	}
	if status != 0 {
		return nil, &PeerError{To: to, Err: errDead}
	}
	return t.resolve(to)
}

// resolve hands the walk drivers the in-process node behind an entry the
// peer just answered for.
func (t *tcpTransport) resolve(to route.Entry) (*Node, error) {
	target := t.m.NodeAt(to.Addr)
	if target == nil || !target.id.Equal(to.ID) {
		return nil, &PeerError{To: to, Err: errDead}
	}
	return target, nil
}

func (t *tcpTransport) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	err := t.ln.Close()
	for {
		select {
		case c := <-t.conns:
			c.Close()
		default:
			return err
		}
	}
}
