package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync/atomic"
	"time"

	"tapestry/internal/ids"
	"tapestry/internal/netsim"
)

// This file is the one framed-TCP stack: the core mesh's TCP transport and
// the cmd/tapestry-node daemons both serve with Server and call with Client.
// A request on a pooled connection is the envelope
//
//	[u8 kind: 0 invoke / 1 one-way][zigzag to.Addr][u8 idLen][id digits]
//	[u8 expected response type][framed request]
//
// and every reply starts with the fixed header
//
//	[u8 status: 0 ok / 1 peer gone][u32 LE messages][u32 LE hops][f64 distance]
//
// whose three numbers are what the peer's handler itself sent while it ran
// (zero for a refused request), followed — for an invoke the peer accepted —
// by the framed response. A one-way's reply is the header alone: an uncharged
// transport-level ack that keeps delivery synchronous.
const (
	kindInvoke byte = 0
	kindOneWay byte = 1

	statusOK   byte = 0
	statusGone byte = 1

	replyHeaderLen = 1 + 4 + 4 + 8
)

// The stack's two timeouts. ExchangeTimeout is generous because a handler
// may itself run a whole operation over further exchanges (a PublishReq
// republishes, a JoinSnapshotReq notifies, a daemon's walk nests one exchange
// per hop) before it answers.
const (
	DialTimeout     = 5 * time.Second
	ExchangeTimeout = 30 * time.Second
)

// poolSize bounds the idle connections a Client keeps.
const poolSize = 64

// ErrPeerGone is a status-1 reply: the host answered, but it does not (or no
// longer does) host the node the request was addressed to.
var ErrPeerGone = errors.New("wire: node no longer participates")

// Host finds the receiver of an envelope: the Handler for the node with the
// given address and identifier digits (none: the request is unaddressed), or
// nil when this host has no such node to hand it to.
type Host interface {
	Lookup(oneWay bool, addr netsim.Addr, id []ids.Digit) Handler
}

// Server answers envelopes for a Host.
type Server struct {
	Host Host

	// AfterDispatch, when set (tests only), sees each recycled request struct
	// the moment its handler has returned.
	AfterDispatch func(req Msg)
}

// Serve accepts connections until the listener closes. Connections are
// independent; each carries a sequence of request/reply pairs.
func (s *Server) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go s.serveConn(conn)
	}
}

// serveConn handles one connection for its lifetime, keeping its buffers,
// codec state, recycled structs and the handlers' meter with it. Anything
// malformed — an identifier longer than any Spec allows, an undefined request
// or response type, a short or oversized frame, a pair the handler does not
// speak — drops the connection without a reply.
func (s *Server) serveConn(conn io.ReadWriteCloser) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	var (
		rc    Receiver
		cost  netsim.Cost
		frame []byte
		id    [ids.MaxDigits]ids.Digit
		hdr   [replyHeaderLen]byte
	)
	for {
		kind, err := br.ReadByte()
		if err != nil || kind > kindOneWay {
			return
		}
		addr, err := binary.ReadVarint(br)
		if err != nil {
			return
		}
		idLen, err := br.ReadByte()
		if err != nil || int(idLen) > len(id) {
			return
		}
		if _, err := io.ReadFull(br, id[:idLen]); err != nil {
			return
		}
		respType, err := br.ReadByte()
		if err != nil {
			return
		}
		if kind == kindOneWay {
			respType = 0
		} else if respType == 0 {
			return
		}
		if frame, err = ReadFrame(br, frame); err != nil {
			return
		}
		cost.Reset()
		status, reply := statusGone, []byte(nil)
		if h := s.Host.Lookup(kind == kindOneWay, netsim.Addr(addr), id[:idLen]); h != nil {
			if reply, err = rc.Serve(h, frame, Type(respType), &cost, s.AfterDispatch); err != nil {
				return
			}
			status = statusOK
		}
		messages, hops, distance := cost.Snapshot()
		hdr[0] = status
		binary.LittleEndian.PutUint32(hdr[1:], uint32(messages))
		binary.LittleEndian.PutUint32(hdr[5:], uint32(hops))
		binary.LittleEndian.PutUint64(hdr[9:], math.Float64bits(distance))
		bw.Write(hdr[:]) // a failed write is latched and reported by Flush
		bw.Write(reply)
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// Client calls one Server over a pool of connections.
type Client struct {
	// Timeout bounds one exchange (ExchangeTimeout unless a test shortens it):
	// a peer that accepts and never answers must cost a caller one bounded
	// wait, not a pooled connection forever.
	Timeout time.Duration

	addr   string
	conns  chan *clientConn
	closed atomic.Bool
}

// clientConn is one pooled connection with everything an exchange needs: the
// reply is read through its bufio.Reader (the header, frame header and body
// the server flushed together arrive in one read) into its own arrays.
type clientConn struct {
	net.Conn
	br  *bufio.Reader
	out Enc // request envelope
	hdr [replyHeaderLen]byte
	in  []byte // response frame
	dec Dec
}

// NewClient returns a client of the server listening at addr (host:port).
// Nothing is dialed until the first exchange.
func NewClient(addr string) *Client {
	return &Client{Timeout: ExchangeTimeout, addr: addr, conns: make(chan *clientConn, poolSize)}
}

func (c *Client) get() (*clientConn, error) {
	select {
	case cc := <-c.conns:
		return cc, nil
	default:
		conn, err := net.DialTimeout("tcp", c.addr, DialTimeout)
		if err != nil {
			return nil, err
		}
		return &clientConn{Conn: conn, br: bufio.NewReader(conn)}, nil
	}
}

func (c *Client) put(cc *clientConn) {
	if c.closed.Load() {
		cc.Close()
		return
	}
	select {
	case c.conns <- cc:
	default:
		cc.Close()
	}
}

// Exchange performs one bounded request/reply: the envelope addressed to the
// node (addr, id) out in one write, the reply header in — what the peer's
// handler spent is charged to cost — and, for an invoke the peer accepted,
// the framed response decoded into resp. A nil resp makes it a one-way. A
// refused request is ErrPeerGone. A connection that fails or times out
// anywhere is closed, never re-pooled: a late reply would otherwise be read
// as the answer to the next request.
func (c *Client) Exchange(addr netsim.Addr, id ids.ID, req, resp Msg, cost *netsim.Cost) error {
	cc, err := c.get()
	if err != nil {
		return err
	}
	if err = cc.exchange(c.Timeout, addr, id, req, resp, cost); err != nil && err != ErrPeerGone {
		cc.Close()
	} else {
		c.put(cc)
	}
	return err
}

// appendRequest appends the request envelope.
func appendRequest(e *Enc, addr netsim.Addr, id ids.ID, req, resp Msg) {
	kind, respType := kindOneWay, Type(0)
	if resp != nil {
		kind, respType = kindInvoke, resp.WireType()
	}
	e.U8(kind)
	e.Addr(addr)
	e.ID(id)
	e.U8(byte(respType))
	e.Frame(req)
}

func (cc *clientConn) exchange(timeout time.Duration, addr netsim.Addr, id ids.ID, req, resp Msg, cost *netsim.Cost) error {
	if err := cc.SetDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	cc.out.Reset()
	appendRequest(&cc.out, addr, id, req, resp)
	if _, err := cc.Write(cc.out.Bytes()); err != nil {
		return err
	}
	if _, err := io.ReadFull(cc.br, cc.hdr[:]); err != nil {
		return err
	}
	switch cc.hdr[0] {
	case statusOK:
	case statusGone:
		return ErrPeerGone
	default:
		return fmt.Errorf("wire: reply status %d", cc.hdr[0])
	}
	cost.Charge(int(binary.LittleEndian.Uint32(cc.hdr[1:])), int(binary.LittleEndian.Uint32(cc.hdr[5:])),
		math.Float64frombits(binary.LittleEndian.Uint64(cc.hdr[9:])))
	if resp == nil {
		return nil
	}
	var err error
	if cc.in, err = ReadFrame(cc.br, cc.in); err != nil {
		return err
	}
	_, err = cc.dec.Frame(cc.in, resp)
	return err
}

// Close closes the idle connections; one still in an exchange is closed when
// the exchange returns. Close is idempotent.
func (c *Client) Close() {
	if c.closed.Swap(true) {
		return
	}
	for {
		select {
		case cc := <-c.conns:
			cc.Close()
		default:
			return
		}
	}
}
