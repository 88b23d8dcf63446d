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
//     round-trips through the wire codec (encode -> decode into a fresh
//     struct) before the peer sees it, so running the full test suite under
//     it proves every RPC survives serialization.
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
// (RouteStep, LocateStep, McastStep, CaravanStep, ...) are dispatch no-ops:
// the walk drivers in this package perform each node's step in-process after
// the transport delivers the hop, which keeps the iterative walk structure —
// and its carefully tuned allocation behavior — intact while the messages
// themselves document and (under loopback/TCP) exercise the full wire
// protocol.

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
func (target *Node) dispatch(req, resp wire.Msg, cost *netsim.Cost) {
	switch q := req.(type) {
	case *wire.Ping, *wire.Ack, *wire.ReacquireReq,
		*wire.RouteStep, *wire.LocateStep, *wire.LocalStep,
		*wire.McastStep, *wire.CaravanStep, *wire.PtrForward, *wire.DeleteBack:
		// Walk steps and probes: the per-node work is performed by the
		// driving walk loop in-process (see the file comment).
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

// loopbackTransport charges and resolves exactly like direct, but the request
// is encoded and decoded into a fresh struct before the peer dispatches it,
// and the response is encoded by the peer and decoded back into the caller's
// struct. A codec defect anywhere is a loud panic under the test suite rather
// than silent state corruption.
type loopbackTransport struct {
	m    *Mesh
	pool sync.Pool // *loopScratch
}

type loopScratch struct {
	buf []byte
}

func (t *loopbackTransport) Kind() TransportKind { return TransportLoopback }

func (t *loopbackTransport) getScratch() *loopScratch {
	if s, ok := t.pool.Get().(*loopScratch); ok {
		return s
	}
	return &loopScratch{}
}

// roundTrip encodes m and decodes it into a fresh struct of the same type.
func (t *loopbackTransport) roundTrip(s *loopScratch, m wire.Msg) wire.Msg {
	s.buf = wire.AppendFrame(s.buf[:0], m)
	out, n, err := wire.DecodeFrame(s.buf)
	if err != nil || n != len(s.buf) {
		panic(fmt.Sprintf("core: loopback codec round-trip of %T failed: consumed %d/%d bytes, err=%v", m, n, len(s.buf), err))
	}
	return out
}

func (t *loopbackTransport) Invoke(from netsim.Addr, to route.Entry, req, resp wire.Msg, cost *netsim.Cost, hop bool) (*Node, error) {
	target, err := t.m.rpc(from, to, cost, hop)
	if err != nil {
		return nil, err
	}
	s := t.getScratch()
	wireReq := t.roundTrip(s, req)
	wireResp := wire.New(resp.WireType())
	target.dispatch(wireReq, wireResp, cost)
	s.buf = wire.AppendFrame(s.buf[:0], wireResp)
	if _, err := wire.DecodeFrameInto(s.buf, resp); err != nil {
		panic(fmt.Sprintf("core: loopback codec response round-trip of %T failed: %v", wireResp, err))
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
	wireMsg := t.roundTrip(s, msg)
	t.pool.Put(s)
	target.dispatch(wireMsg, nil, cost)
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
type tcpTransport struct {
	m      *Mesh
	ln     net.Listener
	conns  chan net.Conn
	closed atomic.Bool
}

func newTCPTransport(m *Mesh) (*tcpTransport, error) {
	if m.net.Engine() != nil {
		return nil, errors.New("core: the TCP transport is incompatible with the virtual-time event engine (real sockets cannot park on simulated time)")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("core: tcp transport listener: %w", err)
	}
	t := &tcpTransport{m: m, ln: ln, conns: make(chan net.Conn, 64)}
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
	var frame, out []byte
	for {
		kind, err := br.ReadByte()
		if err != nil {
			return
		}
		toAddr, err := binary.ReadVarint(br)
		if err != nil {
			return
		}
		toID, err := readWireID(br)
		if err != nil {
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
		req, _, err := wire.DecodeFrame(frame)
		if err != nil {
			return
		}
		target := t.m.NodeAt(netsim.Addr(toAddr))
		ok := target != nil && target.id.Equal(toID)
		if ok && kind == 0 {
			target.mu.Lock()
			ok = target.state != stateDead
			target.mu.Unlock()
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
		if kind == 0 {
			resp := wire.New(wire.Type(respType))
			if resp == nil {
				return
			}
			// A *netsim.Cost cannot cross a socket: peer-side work runs
			// uncharged here (see the file comment).
			target.dispatch(req, resp, nil)
			if err := bw.WriteByte(0); err != nil {
				return
			}
			out, err = wire.WriteMsg(bw, out, resp)
			if err != nil {
				return
			}
		} else {
			target.dispatch(req, nil, nil)
			if err := bw.WriteByte(0); err != nil {
				return
			}
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// readWireID reads the codec's ID shape (u8 count + digits) from a stream.
func readWireID(br *bufio.Reader) (ids.ID, error) {
	n, err := br.ReadByte()
	if err != nil {
		return ids.ID{}, err
	}
	if n > 64 {
		return ids.ID{}, fmt.Errorf("core: tcp header id length %d", n)
	}
	buf := make([]ids.Digit, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return ids.ID{}, err
	}
	return ids.FromDigits(buf), nil
}

func (t *tcpTransport) getConn() (net.Conn, error) {
	select {
	case c := <-t.conns:
		return c, nil
	default:
		return net.Dial("tcp", t.ln.Addr().String())
	}
}

func (t *tcpTransport) putConn(c net.Conn) {
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

// exchange performs one header+frame request and reads the status byte,
// returning an open connection positioned before any response frame.
func (t *tcpTransport) exchange(kind byte, to route.Entry, respType wire.Type, req wire.Msg) (net.Conn, byte, error) {
	conn, err := t.getConn()
	if err != nil {
		return nil, 0, err
	}
	var e wire.Enc
	e.U8(kind)
	e.Int(int(to.Addr))
	e.ID(to.ID)
	e.U8(byte(respType))
	buf := wire.AppendFrame(e.Bytes(), req)
	if _, err := conn.Write(buf); err != nil {
		conn.Close()
		return nil, 0, err
	}
	var status [1]byte
	if _, err := io.ReadFull(conn, status[:]); err != nil {
		conn.Close()
		return nil, 0, err
	}
	return conn, status[0], nil
}

func (t *tcpTransport) Invoke(from netsim.Addr, to route.Entry, req, resp wire.Msg, cost *netsim.Cost, hop bool) (*Node, error) {
	if err := t.m.net.Send(from, to.Addr, cost, hop); err != nil {
		return nil, &PeerError{To: to, Err: err}
	}
	conn, status, err := t.exchange(0, to, resp.WireType(), req)
	if err != nil {
		return nil, &PeerError{To: to, Err: err}
	}
	if status != 0 {
		t.putConn(conn)
		return nil, &PeerError{To: to, Err: errDead}
	}
	frame, err := wire.ReadFrame(conn, nil)
	if err != nil {
		conn.Close()
		return nil, &PeerError{To: to, Err: err}
	}
	if _, err := wire.DecodeFrameInto(frame, resp); err != nil {
		conn.Close()
		return nil, &PeerError{To: to, Err: err}
	}
	t.putConn(conn)
	// Response leg, charged exactly where the direct path charges it: only
	// after the peer proved live.
	_ = t.m.net.Send(to.Addr, from, cost, false)
	target := t.m.NodeAt(to.Addr)
	if target == nil || !target.id.Equal(to.ID) {
		return nil, &PeerError{To: to, Err: errDead}
	}
	return target, nil
}

func (t *tcpTransport) OneWay(from netsim.Addr, to route.Entry, msg wire.Msg, cost *netsim.Cost) (*Node, error) {
	if err := t.m.net.Send(from, to.Addr, cost, false); err != nil {
		return nil, &PeerError{To: to, Err: err}
	}
	conn, status, err := t.exchange(1, to, 0, msg)
	if err != nil {
		return nil, &PeerError{To: to, Err: err}
	}
	t.putConn(conn)
	if status != 0 {
		return nil, &PeerError{To: to, Err: errDead}
	}
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
