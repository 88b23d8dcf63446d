package wire

import (
	"fmt"

	"tapestry/internal/netsim"
)

// Handler is a node that can be handed a message: it applies req's effect
// and, for a request/response pair, fills resp (nil for a one-way), charging
// whatever it sends itself to cost. req and resp belong to the Receiver that
// decoded them, which reuses them for the next message of their type: a
// handler must not retain req, resp or any slice inside them past return (it
// copies out what it keeps), and must overwrite every field of resp. An error
// means the pair is not one the node speaks; the exchange is abandoned.
type Handler interface {
	Handle(req, resp Msg, cost *netsim.Cost) error
}

// msgSet holds one recycled message struct per wire type, made on first use.
// Every message of a type is decoded into the same struct, so a fixed-size
// message costs no allocation to receive.
type msgSet []Msg

// get returns the set's struct for t, or nil when t is not a defined type.
func (s *msgSet) get(t Type) Msg {
	for int(t) >= len(*s) {
		*s = append(*s, nil)
	}
	if (*s)[t] == nil {
		(*s)[t] = New(t)
	}
	return (*s)[t]
}

// Receiver is the receiving end of the codec: the encoder, decoder and
// recycled structs one holder — a loopback exchange's scratch, a server
// connection — keeps from message to message.
type Receiver struct {
	enc         Enc
	dec         Dec
	reqs, resps msgSet // what a handler is given, what it fills
}

// Serve receives one framed request: decode it into the receiver's recycled
// struct of its type, hand it to h with the recycled struct of respType to
// fill (respType 0: a one-way, nothing to fill), show the request to after
// (tests only; nil otherwise) the moment the handler has returned, and frame
// the response. The returned frame — empty for a one-way — is valid until the
// next Serve. The structs are held through Handle; whatever the handler sends
// itself goes through another receiver. Nothing is dispatched on an error.
func (rc *Receiver) Serve(h Handler, frame []byte, respType Type, cost *netsim.Cost, after func(req Msg)) ([]byte, error) {
	if len(frame) < 5 {
		return nil, fmt.Errorf("wire: frame header truncated (%d bytes)", len(frame))
	}
	req := rc.reqs.get(Type(frame[4])) // Frame below checks the rest of the header
	if req == nil {
		return nil, fmt.Errorf("wire: unknown message type %d", frame[4])
	}
	if _, err := rc.dec.Frame(frame, req); err != nil {
		return nil, err
	}
	var resp Msg
	if respType != 0 {
		if resp = rc.resps.get(respType); resp == nil {
			return nil, fmt.Errorf("wire: unknown response type %d", respType)
		}
	}
	if err := h.Handle(req, resp, cost); err != nil {
		return nil, err
	}
	if after != nil {
		after(req)
	}
	rc.enc.Reset()
	if resp != nil {
		rc.enc.Frame(resp)
	}
	return rc.enc.Bytes(), nil
}
