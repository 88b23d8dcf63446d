// Package wire defines the Tapestry node-to-node message catalog and its
// binary encoding. Every RPC the core mesh performs — routing-walk hops,
// publish/locate traffic, acknowledged-multicast steps, join snapshots,
// backpointer notifications, maintenance probes and republish caravans — has
// an explicit request (and, where the protocol answers, response) struct
// here, so the same overlay logic can run over shared memory, a codec
// loopback, or real sockets.
//
// Encoding rules (little-endian throughout):
//
//   - unsigned integers: LEB128 uvarint
//   - signed integers (levels, hops, addresses): zigzag varint
//   - float64 (distances): 8-byte IEEE 754 bits
//   - ids.ID / ids.Prefix: u8 digit count followed by one byte per digit
//   - route.Entry: ID, zigzag addr, float64 distance, u8 flag bits
//     (bit 0 pinned, bit 1 leaving)
//   - lists: uvarint count, then the elements back to back
//
// A framed message is [u32 LE payload length][u8 type][payload]. Type IDs are
// pinned forever (see testdata/wire.golden); new messages append, old ones
// are never renumbered.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"tapestry/internal/ids"
	"tapestry/internal/netsim"
	"tapestry/internal/route"
)

// Type identifies a message on the wire. Values are part of the format.
type Type byte

// Msg is one wire message. EncodeTo must write exactly what DecodeFrom reads;
// DecodeFrom overwrites every field (reusing slice capacity where it can), so
// a recycled struct never leaks state between messages. Neither may retain its
// Enc or Dec past return.
type Msg interface {
	WireType() Type
	EncodeTo(*Enc)
	DecodeFrom(*Dec)
}

// maxFrame bounds a framed message read from an untrusted stream. (An
// identifier's digit count and digits are bounded by what an ids.ID holds,
// ids.MaxDigits and ids.MaxBase.)
const maxFrame = 1 << 26

// Enc is an append-only encoder. The zero value is ready to use; Reset keeps
// the buffer's capacity so steady-state encoding does not allocate.
type Enc struct {
	b []byte
}

// Reset empties the buffer, keeping capacity.
func (e *Enc) Reset() { e.b = e.b[:0] }

// Bytes returns the encoded payload (valid until the next Reset).
func (e *Enc) Bytes() []byte { return e.b }

// U8 appends one raw byte.
func (e *Enc) U8(v byte) { e.b = append(e.b, v) }

// Uvarint appends an unsigned LEB128 varint.
func (e *Enc) Uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }

// Int appends a signed zigzag varint.
func (e *Enc) Int(v int) { e.b = binary.AppendVarint(e.b, int64(v)) }

// Bool appends a 0/1 byte.
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// F64 appends the 8 IEEE 754 bytes of v, little-endian.
func (e *Enc) F64(v float64) {
	e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v))
}

// String appends a length-prefixed byte string.
func (e *Enc) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

// ID appends an identifier: digit count, then raw digit bytes.
func (e *Enc) ID(id ids.ID) {
	e.b = id.AppendDigits(append(e.b, byte(id.Len())))
}

// Prefix appends a prefix with the same shape as ID.
func (e *Enc) Prefix(p ids.Prefix) {
	e.b = p.AppendDigits(append(e.b, byte(p.Len())))
}

// Addr appends a network address as a zigzag varint (addresses are small
// non-negative integers in the simulator, but -1 sentinels must survive).
func (e *Enc) Addr(a netsim.Addr) { e.Int(int(a)) }

// Entry appends one routing-table entry.
func (e *Enc) Entry(en route.Entry) {
	e.ID(en.ID)
	e.Addr(en.Addr)
	e.F64(en.Distance)
	var flags byte
	if en.Pinned {
		flags |= 1
	}
	if en.Leaving {
		flags |= 2
	}
	e.U8(flags)
}

// Entries appends a length-prefixed entry list.
func (e *Enc) Entries(list []route.Entry) {
	e.Uvarint(uint64(len(list)))
	for _, en := range list {
		e.Entry(en)
	}
}

// Dec consumes an encoded payload. The first malformed read latches an error
// and turns every later read into a zero-value no-op, so message DecodeFrom
// methods can decode unconditionally and check Err once.
type Dec struct {
	b   []byte
	off int
	err error
}

// Reset re-points the decoder at b and clears any latched error.
func (d *Dec) Reset(b []byte) { d.b, d.off, d.err = b, 0, nil }

// Err returns the first decode error, if any.
func (d *Dec) Err() error { return d.err }

// Len returns the number of unconsumed bytes.
func (d *Dec) Len() int { return len(d.b) - d.off }

func (d *Dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: "+format, args...)
	}
}

// U8 reads one raw byte.
func (d *Dec) U8() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.fail("truncated byte at offset %d", d.off)
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

// Uvarint reads an unsigned LEB128 varint.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// Int reads a signed zigzag varint.
func (d *Dec) Int() int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return int(v)
}

// Bool reads a 0/1 byte (any nonzero byte decodes as true).
func (d *Dec) Bool() bool { return d.U8() != 0 }

// F64 reads 8 IEEE 754 bytes.
func (d *Dec) F64() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.b) {
		d.fail("truncated float64 at offset %d", d.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v
}

// String reads a length-prefixed byte string.
func (d *Dec) String() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(d.Len()) {
		d.fail("string length %d exceeds remaining %d bytes", n, d.Len())
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// digits reads a count-prefixed digit run shared by ID and Prefix, rejecting
// one that no identifier can hold before anything is built from it.
func (d *Dec) digits() []ids.Digit {
	n := int(d.U8())
	if d.err != nil {
		return nil
	}
	if n > ids.MaxDigits {
		d.fail("digit count %d exceeds %d", n, ids.MaxDigits)
		return nil
	}
	if n > d.Len() {
		d.fail("truncated digits: want %d, have %d", n, d.Len())
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	for i, dg := range out {
		if dg >= ids.MaxBase {
			d.fail("digit %d at position %d exceeds max base %d", dg, i, ids.MaxBase)
			return nil
		}
	}
	return out
}

// ID reads an identifier (the zero ID once an error is latched).
func (d *Dec) ID() ids.ID { return ids.FromDigits(d.digits()) }

// Prefix reads a prefix.
func (d *Dec) Prefix() ids.Prefix { return ids.PrefixFromDigits(d.digits()) }

// Addr reads a network address.
func (d *Dec) Addr() netsim.Addr { return netsim.Addr(d.Int()) }

// Entry reads one routing-table entry.
func (d *Dec) Entry() route.Entry {
	var en route.Entry
	en.ID = d.ID()
	en.Addr = d.Addr()
	en.Distance = d.F64()
	flags := d.U8()
	en.Pinned = flags&1 != 0
	en.Leaving = flags&2 != 0
	return en
}

// Entries reads a length-prefixed entry list into dst's capacity.
func (d *Dec) Entries(dst []route.Entry) []route.Entry {
	n := d.Uvarint()
	if d.err != nil {
		return dst[:0]
	}
	// Each entry is at least 11 bytes; a cheap bound that defuses hostile
	// counts before allocation.
	if n > uint64(d.Len()) {
		d.fail("entry count %d exceeds remaining %d bytes", n, d.Len())
		return dst[:0]
	}
	dst = dst[:0]
	for i := uint64(0); i < n && d.err == nil; i++ {
		dst = append(dst, d.Entry())
	}
	return dst
}

// Frame appends m to the encoder's buffer as one framed message.
func (e *Enc) Frame(m Msg) {
	start := len(e.b)
	e.b = append(e.b, 0, 0, 0, 0, byte(m.WireType())) // length backpatched below
	m.EncodeTo(e)
	binary.LittleEndian.PutUint32(e.b[start:], uint32(len(e.b)-start-4))
}

// frameBody validates the header of the framed message at the front of b and
// returns its type and payload.
func frameBody(b []byte) (Type, []byte, error) {
	if len(b) < 5 {
		return 0, nil, fmt.Errorf("wire: frame header truncated (%d bytes)", len(b))
	}
	n := binary.LittleEndian.Uint32(b)
	if n < 1 || n > maxFrame {
		return 0, nil, fmt.Errorf("wire: frame length %d out of range", n)
	}
	if uint64(len(b)-4) < uint64(n) {
		return 0, nil, fmt.Errorf("wire: frame truncated: want %d bytes, have %d", n, len(b)-4)
	}
	return Type(b[4]), b[5 : 4+n], nil
}

// Frame re-points the decoder at the framed message at the front of b and
// decodes it into m, failing if the frame's type differs from m's or the
// payload has bytes m does not consume. It returns the bytes consumed. With a
// recycled m and a decoder the caller keeps, decoding a fixed-size message
// allocates nothing.
func (d *Dec) Frame(b []byte, m Msg) (int, error) {
	t, body, err := frameBody(b)
	if err != nil {
		return 0, err
	}
	if t != m.WireType() {
		return 0, fmt.Errorf("wire: frame type %d, want %d (%T)", t, m.WireType(), m)
	}
	d.Reset(body)
	m.DecodeFrom(d)
	if d.err != nil {
		return 0, d.err
	}
	if d.Len() != 0 {
		return 0, fmt.Errorf("wire: %d trailing bytes after %T", d.Len(), m)
	}
	return 5 + len(body), nil
}

// codec is one encoder/decoder pair. EncodeTo and DecodeFrom are interface
// calls, so an Enc or Dec declared in the calling function escapes to the
// heap — one object per message. The package-level entry points borrow a
// pair from codecs instead; a transport that already owns per-connection or
// per-operation scratch keeps an Enc and a Dec there and calls Frame directly
// (receiver.go, tcp.go).
type codec struct {
	e Enc
	d Dec
}

var codecs = sync.Pool{New: func() any { return new(codec) }}

// AppendFrame appends m to dst as one framed message.
func AppendFrame(dst []byte, m Msg) []byte {
	c := codecs.Get().(*codec)
	c.e.b = dst
	c.e.Frame(m)
	dst, c.e.b = c.e.b, nil
	codecs.Put(c)
	return dst
}

// DecodeFrame parses one framed message from the front of b, allocating the
// struct via New. It returns the message and the total bytes consumed.
func DecodeFrame(b []byte) (Msg, int, error) {
	t, _, err := frameBody(b)
	if err != nil {
		return nil, 0, err
	}
	m := New(t)
	if m == nil {
		return nil, 0, fmt.Errorf("wire: unknown message type %d", t)
	}
	n, err := DecodeFrameInto(b, m)
	if err != nil {
		return nil, 0, err
	}
	return m, n, nil
}

// DecodeFrameInto parses one framed message from the front of b into m,
// failing if the frame's type differs from m's. It returns the bytes
// consumed. With a recycled m this allocates nothing for a fixed-size
// message.
func DecodeFrameInto(b []byte, m Msg) (int, error) {
	c := codecs.Get().(*codec)
	n, err := c.d.Frame(b, m)
	c.d.Reset(nil)
	codecs.Put(c)
	return n, err
}

// ReadFrame reads one complete framed message from r into buf (grown as
// needed), returning the frame bytes [len][type][payload] for Dec.Frame.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 0, 512)
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return buf, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n < 1 || n > maxFrame {
		return buf, fmt.Errorf("wire: frame length %d out of range", n)
	}
	total := 4 + int(n)
	if cap(buf) < total {
		nb := make([]byte, total)
		copy(nb, hdr)
		buf = nb
	} else {
		buf = buf[:total]
	}
	if _, err := io.ReadFull(r, buf[4:total]); err != nil {
		return buf, err
	}
	return buf[:total], nil
}
