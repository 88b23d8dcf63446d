package wire

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"tapestry/internal/ids"
	"tapestry/internal/netsim"
)

// scriptConn is a connection whose peer already said everything it will say.
type scriptConn struct {
	in     *bytes.Reader
	out    bytes.Buffer
	closed bool
}

func (c *scriptConn) Read(p []byte) (int, error)  { return c.in.Read(p) }
func (c *scriptConn) Write(p []byte) (int, error) { return c.out.Write(p) }
func (c *scriptConn) Close() error                { c.closed = true; return nil }

// stubHost hosts one node, itself, unless it refuses; the node records what
// it was handed and spends a fixed cost on each request.
type stubHost struct {
	mu     sync.Mutex // a served connection is another goroutine
	refuse bool
	seen   []dispatched
}

type dispatched struct {
	req      Type
	resp     Type // 0: a one-way
	oneWay   bool
	addr     netsim.Addr
	idDigits int
}

func (h *stubHost) Lookup(oneWay bool, addr netsim.Addr, id []ids.Digit) Handler {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.refuse {
		return nil
	}
	h.seen = append(h.seen, dispatched{oneWay: oneWay, addr: addr, idDigits: len(id)})
	return h
}

func (h *stubHost) Handle(req, resp Msg, cost *netsim.Cost) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	d := &h.seen[len(h.seen)-1]
	d.req = req.WireType()
	if resp != nil {
		d.resp = resp.WireType()
	}
	if r, ok := resp.(*VerifyResp); ok {
		r.Serves = true
	}
	cost.Charge(3, 1, 2.5)
	return nil
}

// serve runs the server's connection loop over the scripted bytes.
func serve(h *stubHost, in []byte) *scriptConn {
	conn := &scriptConn{in: bytes.NewReader(in)}
	(&Server{Host: h}).serveConn(conn)
	return conn
}

func envelope(addr netsim.Addr, id ids.ID, req, resp Msg) []byte {
	var e Enc
	appendRequest(&e, addr, id, req, resp)
	return e.Bytes()
}

// TestEnvelopeGolden pins the framed-TCP envelope the core mesh and the
// daemons both speak, next to wire.golden: the two request shapes as the
// client writes them, and the two reply shapes as the server's connection
// loop answers them — an accepted invoke (status, what the handler spent, the
// framed response) and a refused one. Regenerate with -update; a changed line
// breaks every deployed peer.
func TestEnvelopeGolden(t *testing.T) {
	invoke := envelope(42, id(1, 2, 3), &VerifyReq{GUID: id(12, 13, 14)}, &VerifyResp{})
	oneWay := envelope(-1, ids.ID{}, &BackRemove{Level: 6, ID: id(15, 0, 1)}, nil)
	got := fmt.Sprintf("invoke     %x\none-way    %x\nreply-ok   %x\nreply-gone %x\n",
		invoke, oneWay,
		serve(&stubHost{}, invoke).out.Bytes(),
		serve(&stubHost{refuse: true}, invoke).out.Bytes())

	path := filepath.Join("testdata", "envelope.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s (regenerate with -update): %v", path, err)
	}
	if got != string(want) {
		t.Fatalf("envelope drift vs %s.\nGot:\n%s\nWant:\n%s", path, got, want)
	}
}

// TestServeConnDropsMalformed pins every bound check of the header reader: a
// request that breaks one is neither dispatched nor answered, and the
// connection is dropped. A well-formed request ahead of it is still served.
func TestServeConnDropsMalformed(t *testing.T) {
	good := envelope(7, id(1, 2), &VerifyReq{GUID: id(3)}, &VerifyResp{})
	frame := AppendFrame(nil, &VerifyReq{GUID: id(3)})
	hdr := func(kind, idLen, respType byte) []byte {
		return append(append([]byte{kind, 14 /* zigzag 7 */, idLen}, make([]byte, idLen)...), respType)
	}
	longID, longPrefix := overlongFrames()
	cases := map[string][]byte{
		"kind out of range":       append(hdr(2, 2, byte(TVerifyResp)), frame...),
		"identifier of 65 digits": append(hdr(0, 65, byte(TVerifyResp)), frame...),
		"identifier of 21 digits": append(hdr(0, ids.MaxDigits+1, byte(TVerifyResp)), frame...),
		"21-digit id in payload":  append(hdr(0, 2, byte(TVerifyResp)), longID...),
		"21-digit prefix in it":   append(hdr(1, 2, 0), longPrefix...),
		"endless address varint":  append(bytes.Repeat([]byte{0x80}, 11), frame...),
		"undefined response type": append(hdr(0, 2, 200), frame...),
		"invoke without response": append(hdr(0, 2, 0), frame...),
		"undefined request type":  append(hdr(0, 2, byte(TVerifyResp)), 1, 0, 0, 0, 255),
		"zero-length frame":       append(hdr(0, 2, byte(TVerifyResp)), 0, 0, 0, 0),
		"oversized frame":         append(hdr(0, 2, byte(TVerifyResp)), 0xFF, 0xFF, 0xFF, 0xFF),
		"short frame":             append(hdr(0, 2, byte(TVerifyResp)), frame[:len(frame)-1]...),
		"undecodable payload":     append(hdr(0, 2, byte(TVerifyResp)), 3, 0, 0, 0, byte(TVerifyReq), 1, 200),
		"trailing payload bytes":  append(hdr(1, 2, 0), 2, 0, 0, 0, byte(TPing), 0xAA),
		"header cut short":        good[:3],
	}
	for name, bad := range cases {
		h := &stubHost{}
		conn := serve(h, bad)
		if !conn.closed || conn.out.Len() != 0 || len(h.seen) != 0 && h.seen[0].req != 0 {
			t.Errorf("%s: closed=%v, %d reply bytes, dispatched %+v; want a dropped connection and nothing else",
				name, conn.closed, conn.out.Len(), h.seen)
		}
		h = &stubHost{}
		conn = serve(h, append(append([]byte{}, good...), bad...))
		if !conn.closed || len(h.seen) == 0 || h.seen[0].req != TVerifyReq || h.seen[0].addr != 7 || h.seen[0].idDigits != 2 {
			t.Errorf("%s after a good request: closed=%v, dispatched %+v", name, conn.closed, h.seen)
		}
		if want := serve(&stubHost{}, good).out.Bytes(); !bytes.Equal(conn.out.Bytes(), want) {
			t.Errorf("%s after a good request: replied %x, want the one reply %x", name, conn.out.Bytes(), want)
		}
	}
}

// FuzzServeConn feeds arbitrary bytes to the server's connection loop — input
// from outside the program. Whatever arrives, the loop must not panic, must
// end by dropping the connection, and must have written exactly one
// well-formed reply per request it handed to a handler.
func FuzzServeConn(f *testing.F) {
	for _, m := range fixtures() {
		f.Add(envelope(5, id(4, 4), m, nil))
		f.Add(append(envelope(5, id(4, 4), m, &Ack{}), envelope(-3, ids.ID{}, m, m)...))
	}
	// The same two shapes around a frame of a retired type: the header is
	// well formed, the request it carries no longer exists.
	for _, old := range retiredFrames() {
		oneWay := envelope(5, id(4, 4), &Ping{}, nil)
		oneWay = append(oneWay[:len(oneWay)-len(AppendFrame(nil, &Ping{}))], old...)
		f.Add(oneWay)
		f.Add(append(append([]byte{}, oneWay...), envelope(-3, ids.ID{}, &Ping{}, &Ack{})...))
	}
	f.Add([]byte{0, 14, 65})
	f.Add([]byte{1, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	// An addressee, and payloads, one digit longer than an identifier holds.
	f.Add(append(append([]byte{0, 14, ids.MaxDigits + 1}, make([]byte, ids.MaxDigits+1)...), append([]byte{byte(TAck)}, AppendFrame(nil, &Ping{})...)...))
	longID, longPrefix := overlongFrames()
	for _, long := range [][]byte{longID, longPrefix} {
		oneWay := envelope(5, id(4, 4), &Ping{}, nil)
		f.Add(append(oneWay[:len(oneWay)-len(AppendFrame(nil, &Ping{}))], long...))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		h := &stubHost{}
		conn := serve(h, b)
		if !conn.closed {
			t.Fatal("the loop returned with the connection open")
		}
		out := conn.out.Bytes()
		for i, d := range h.seen {
			if d.req == 0 {
				// Resolved, then dropped on a malformed frame: the last thing
				// the loop did, and nothing was written for it.
				if i != len(h.seen)-1 {
					t.Fatalf("request %d was resolved, never handled, and the loop went on", i)
				}
				break
			}
			if d.oneWay != (d.resp == 0) {
				t.Fatalf("request %d: one-way=%v handled with response type %v", i, d.oneWay, d.resp)
			}
			if len(out) < replyHeaderLen || out[0] != statusOK {
				t.Fatalf("request %d: reply header missing or refused in %x", i, out)
			}
			out = out[replyHeaderLen:]
			if d.oneWay {
				continue
			}
			typ, body, err := frameBody(out)
			if err != nil || typ != d.resp {
				t.Fatalf("request %d: response frame %v (type %v), want a %v", i, err, typ, d.resp)
			}
			out = out[5+len(body):]
		}
		if len(out) != 0 {
			t.Fatalf("%d bytes written beyond the replies: %x", len(out), out)
		}
	})
}

// TestClientServerExchange drives the real client against the real server:
// an invoke fills the caller's response and charges what the handler spent, a
// one-way charges too, and a refusal is ErrPeerGone on a connection that goes
// back to the pool rather than being closed.
func TestClientServerExchange(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	h := &stubHost{}
	go (&Server{Host: h}).Serve(ln)
	c := NewClient(ln.Addr().String())
	defer c.Close()

	var cost netsim.Cost
	var resp VerifyResp
	if err := c.Exchange(9, id(1, 2), &VerifyReq{GUID: id(5)}, &resp, &cost); err != nil || !resp.Serves {
		t.Fatalf("invoke: err = %v, resp = %+v", err, resp)
	}
	if err := c.Exchange(9, id(1, 2), &BackRemove{Level: 1, ID: id(5)}, nil, &cost); err != nil {
		t.Fatalf("one-way: %v", err)
	}
	if m, hops, d := cost.Snapshot(); m != 6 || hops != 2 || d != 5 {
		t.Errorf("two exchanges charged (%d, %d, %v), want the handlers' (6, 2, 5)", m, hops, d)
	}
	h.mu.Lock()
	h.refuse = true
	h.mu.Unlock()
	if err := c.Exchange(9, id(1, 2), &VerifyReq{GUID: id(5)}, &resp, &cost); !errors.Is(err, ErrPeerGone) {
		t.Fatalf("refused invoke: err = %v, want ErrPeerGone", err)
	}
	if cost.Messages() != 6 {
		t.Errorf("a refusal charged the caller: %v", &cost)
	}
	if len(c.conns) != 1 {
		t.Errorf("%d connections pooled after three exchanges on one, want 1", len(c.conns))
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.seen) != 2 || h.seen[0].req != TVerifyReq || h.seen[1].req != TBackRemove || !h.seen[1].oneWay {
		t.Errorf("the host handled %+v, want a VerifyReq invoke then a BackRemove one-way", h.seen)
	}
}
