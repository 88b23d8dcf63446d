package wire

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tapestry/internal/ids"
	"tapestry/internal/netsim"
	"tapestry/internal/route"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/wire.golden")

func id(digits ...ids.Digit) ids.ID { return ids.FromDigits(digits) }

func pfx(digits ...ids.Digit) ids.Prefix { return ids.PrefixFromDigits(digits) }

func ent(seed int) route.Entry {
	return route.Entry{
		ID:       id(ids.Digit(seed%16), ids.Digit((seed+3)%16), ids.Digit((seed+7)%16)),
		Addr:     netsim.Addr(seed * 11),
		Distance: float64(seed) * 1.5,
		Pinned:   seed%2 == 0,
		Leaving:  seed%3 == 0,
	}
}

// retiredFrames are the frames of types 4 and 5 — the repair-scan request and
// reply, removed with their handler — exactly as wire.golden last pinned
// them: what a peer built before the removal still sends, and what every
// decoder must refuse rather than misread. The fuzz targets seed them too.
func retiredFrames() [][]byte {
	var out [][]byte
	for _, h := range []string{
		"0700000004030506070209",
		"2c00000005030301040816000000000000f83f00030205092c0000000000000840010303060a42000000000000124002",
	} {
		b, err := hex.DecodeString(h)
		if err != nil {
			panic(err)
		}
		out = append(out, b)
	}
	return out
}

// overlongFrames returns well-framed messages that carry a digit run one
// longer than an identifier holds — as the GUID of a VerifyReq and as the
// first prefix of a McastStep. No Enc can write them (no such ids.ID exists),
// so they are assembled by hand; the decoder must refuse them before it
// builds anything.
func overlongFrames() (overlongID, overlongPrefix []byte) {
	run := append([]byte{ids.MaxDigits + 1}, make([]byte, ids.MaxDigits+1)...)
	frame := func(t Type, payload []byte) []byte {
		return append([]byte{byte(1 + len(payload)), 0, 0, 0, byte(t)}, payload...)
	}
	// The rest of a McastStep after P: an empty Root, an entry, a hole level.
	var rest Enc
	rest.Prefix(ids.EmptyPrefix)
	rest.Entry(route.Entry{ID: id(1, 2), Addr: 3, Distance: 1.5})
	rest.Int(1)
	return frame(TVerifyReq, run), frame(TMcastStep, append(append([]byte{}, run...), rest.Bytes()...))
}

// fixtures returns one representatively populated message per wire type, in
// Types() order. Every field is non-zero somewhere so the round-trip and
// golden tests exercise the full encoding of each struct.
func fixtures() []Msg {
	return []Msg{
		&Ping{},
		&Ack{},
		&RouteStep{Key: id(1, 2, 3, 4), Level: 2, Op: RouteOpPublish},
		&TableBandReq{Floor: 3, Fold: -1},
		&TableBandResp{Entries: []route.Entry{ent(4)}},
		&ShareReq{Entries: []route.Entry{ent(5), ent(6)}},
		&ShareResp{Adopted: 7},
		&LocateStep{GUID: id(8, 9), Key: id(10, 11), Level: 4, Hops: 12, Salt: 3},
		&VerifyReq{GUID: id(12, 13, 14)},
		&VerifyResp{Serves: true},
		&DeleteBack{GUID: id(1), Key: id(2), Server: id(3), StopAt: id(4)},
		&BackAdd{Level: 5, From: ent(7)},
		&BackRemove{Level: 6, ID: id(15, 0, 1)},
		&McastStep{P: pfx(2, 3), Root: pfx(2), NewNode: ent(8), HoleLevel: 1},
		&McastNotify{Me: ent(9), Slots: []Slot{{Level: 0, Digit: 3}, {Level: 2, Digit: 15}}},
		&JoinSnapshotReq{NewID: id(7, 7, 7), NewAddr: 42, PinLevel: 2},
		&JoinSnapshotResp{Rows: []LeveledEntry{{Level: 0, E: ent(10)}, {Level: 3, E: ent(11)}}},
		&ReacquireReq{},
		&CaravanStep{Server: id(6), ServerAddr: 17, Recs: []PubRec{
			{GUID: id(1, 2), Key: id(3, 4), Level: 1, PrevID: id(5, 6), PrevAddr: 23, Hops: 2, Salt: 1},
		}},
		&LeaveNotify{Leaver: id(9, 8, 7), Level: 3, Replacements: []route.Entry{ent(12)}},
		&NodeDeleted{ID: id(4, 4, 4)},
		&DropLinks{ID: id(5, 5, 5)},
		&LocalStep{Key: id(0, 1, 2), Level: 1, Region: 6},
		&PtrForward{GUID: id(1), Key: id(2), Server: id(3), ServerAddr: 8, Level: 2,
			PrevID: id(4), PrevAddr: 9},
		&PublishReq{GUID: id(3, 1, 4), Adopt: true, Salts: []int{0, 2, 5}},
		&ClusterInstall{Base: 16, Digits: 6, R: 3, Self: ent(13),
			Rows:      []LeveledEntry{{Level: 1, E: ent(14)}},
			Endpoints: []Endpoint{{Addr: 0, HostPort: "127.0.0.1:9000"}, {Addr: 1, HostPort: "127.0.0.1:9001"}}},
		&ClusterAck{},
		&ClusterServe{GUIDs: []ids.ID{id(1, 1), id(2, 2)}},
		&ClusterPublish{GUID: id(3, 3), Key: id(4, 4), Server: id(5, 5), ServerAddr: 12, Level: 1},
		&ClusterPubDone{Root: id(6, 6)},
		&ClusterLocate{GUID: id(7, 7), Key: id(8, 8), Level: 2, Hops: 5},
		&ClusterFound{Found: true, Server: id(9, 9), ServerAddr: 31, Hops: 4},
	}
}

// TestFixturesCoverAllTypes pins that the fixture list, the Types() registry
// and the New() factory agree — a new message type must be added to all three
// (and to testdata/wire.golden) to ship.
func TestFixturesCoverAllTypes(t *testing.T) {
	fx := fixtures()
	types := Types()
	if len(fx) != len(types) {
		t.Fatalf("fixtures() has %d entries, Types() has %d", len(fx), len(types))
	}
	for i, m := range fx {
		if m.WireType() != types[i] {
			t.Errorf("fixture %d is %v, Types()[%d] is %v", i, m.WireType(), i, types[i])
		}
		fresh := New(types[i])
		if fresh == nil {
			t.Errorf("New(%v) returned nil", types[i])
			continue
		}
		if fresh.WireType() != types[i] {
			t.Errorf("New(%v).WireType() = %v", types[i], fresh.WireType())
		}
	}
}

// TestRoundTripAll encodes every fixture, decodes it twice — once via the
// allocating DecodeFrame path and once via DecodeFrameInto with a recycled,
// previously populated struct — and checks both re-encode byte-identically.
// The recycled-struct leg is what catches a DecodeFrom that appends instead
// of overwriting.
func TestRoundTripAll(t *testing.T) {
	for _, m := range fixtures() {
		frame := AppendFrame(nil, m)

		got, n, err := DecodeFrame(frame)
		if err != nil {
			t.Fatalf("%v: DecodeFrame: %v", m.WireType(), err)
		}
		if n != len(frame) {
			t.Fatalf("%v: DecodeFrame consumed %d of %d bytes", m.WireType(), n, len(frame))
		}
		if re := AppendFrame(nil, got); !bytes.Equal(re, frame) {
			t.Fatalf("%v: re-encode mismatch\n got %x\nwant %x", m.WireType(), re, frame)
		}

		// Recycled struct pre-filled with a different fixture's state: decode
		// must fully overwrite it.
		dirty := New(m.WireType())
		dirtyFrame := AppendFrame(nil, dirty)
		if _, err := DecodeFrameInto(frame, dirty); err != nil {
			t.Fatalf("%v: DecodeFrameInto: %v", m.WireType(), err)
		}
		if re := AppendFrame(nil, dirty); !bytes.Equal(re, frame) {
			t.Fatalf("%v: recycled re-encode mismatch (was %x)\n got %x\nwant %x",
				m.WireType(), dirtyFrame, re, frame)
		}
	}
}

// TestDecodeFrameIntoTypeMismatch pins the type check of the zero-allocation
// decode path.
func TestDecodeFrameIntoTypeMismatch(t *testing.T) {
	frame := AppendFrame(nil, &ShareResp{Adopted: 1})
	var wrong VerifyResp
	if _, err := DecodeFrameInto(frame, &wrong); err == nil {
		t.Fatal("DecodeFrameInto accepted a frame of the wrong type")
	}
}

// TestRecycledRoundTripAllocatesNothing pins the codec's steady state: framing
// a fixed-size message into a kept buffer and decoding it into a recycled
// struct is free of heap traffic — the Enc and Dec do not escape, and an
// identifier is a value, so one the struct has never held costs what a
// repeated one does.
func TestRecycledRoundTripAllocatesNothing(t *testing.T) {
	msg := &LocateStep{GUID: id(8, 9, 1), Key: id(10, 11, 2), Level: 4, Hops: 12, Salt: 3}
	var recycled LocateStep
	var buf []byte
	roundTrip := func() {
		msg.Hops++
		msg.Key = id(10, 11, ids.Digit(msg.Hops%16))
		buf = AppendFrame(buf[:0], msg)
		if _, err := DecodeFrameInto(buf, &recycled); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip() // grows buf, fills recycled
	if n := testing.AllocsPerRun(200, roundTrip); n != 0 {
		t.Errorf("AppendFrame + DecodeFrameInto of a recycled LocateStep: %v allocs, want 0", n)
	}
	if recycled != *msg {
		t.Errorf("recycled = %+v, want %+v", recycled, *msg)
	}
	msg.GUID, msg.Level = id(8, 9, 2), 5
	roundTrip()
	if recycled != *msg {
		t.Errorf("after a new GUID: recycled = %+v, want %+v", recycled, *msg)
	}
}

// TestDecodeRejectsMalformed pins the codec's defensive behavior on hostile
// or truncated input.
func TestDecodeRejectsMalformed(t *testing.T) {
	valid := AppendFrame(nil, &VerifyReq{GUID: id(1, 2, 3)})

	cases := map[string][]byte{
		"empty":          {},
		"short header":   valid[:3],
		"truncated body": valid[:len(valid)-1],
		"unknown type":   {1, 0, 0, 0, 255},
		"zero length":    {0, 0, 0, 0},
	}
	for name, b := range cases {
		if _, _, err := DecodeFrame(b); err == nil {
			t.Errorf("%s: DecodeFrame accepted %x", name, b)
		}
	}

	// Trailing bytes after a well-formed payload must be rejected.
	trailing := append(append([]byte{}, valid...), 0xAA)
	trailing[0]++ // grow the declared length to cover the junk byte
	if _, _, err := DecodeFrame(trailing); err == nil {
		t.Error("DecodeFrame accepted a frame with trailing bytes")
	}

	// A digit outside the maximum base must be rejected.
	bad := AppendFrame(nil, &VerifyReq{GUID: id(1)})
	bad[len(bad)-1] = 200 // the single digit byte
	if _, _, err := DecodeFrame(bad); err == nil {
		t.Error("DecodeFrame accepted an out-of-range digit")
	}

	// A digit run one longer than an identifier holds must be rejected — and
	// one of exactly the capacity accepted: the bound is the identifier's.
	longID, longPrefix := overlongFrames()
	if _, _, err := DecodeFrame(longID); err == nil {
		t.Errorf("DecodeFrame accepted a %d-digit identifier", ids.MaxDigits+1)
	}
	if _, _, err := DecodeFrame(longPrefix); err == nil {
		t.Errorf("DecodeFrame accepted a %d-digit prefix", ids.MaxDigits+1)
	}
	full := AppendFrame(nil, &VerifyReq{GUID: ids.FromDigits(make([]ids.Digit, ids.MaxDigits))})
	if m, _, err := DecodeFrame(full); err != nil || m.(*VerifyReq).GUID.Len() != ids.MaxDigits {
		t.Errorf("DecodeFrame refused a %d-digit identifier: %v", ids.MaxDigits, err)
	}

	// A hostile list count larger than the remaining payload must fail
	// before allocation.
	hostile := []byte{3, 0, 0, 0, byte(TTableBandResp), 0xFF, 0x7F}
	if _, _, err := DecodeFrame(hostile); err == nil {
		t.Error("DecodeFrame accepted a hostile entry count")
	}

	// A retired type ID is an unknown type, not a reinterpretation.
	for _, old := range retiredFrames() {
		if _, _, err := DecodeFrame(old); err == nil {
			t.Errorf("DecodeFrame accepted retired type %d", old[4])
		}
	}
}

// TestWireGolden pins the framed encoding of every message type against
// testdata/wire.golden. A diff here means the wire format changed: if that is
// intentional (a NEW appended type), regenerate with
//
//	go test ./internal/wire -run TestWireGolden -update
//
// Changing the encoding of an EXISTING line breaks cross-version
// compatibility and must not happen.
func TestWireGolden(t *testing.T) {
	var sb strings.Builder
	for _, m := range fixtures() {
		fmt.Fprintf(&sb, "%3d %-16s %x\n", byte(m.WireType()), m.WireType().String(),
			AppendFrame(nil, m))
	}
	got := sb.String()

	path := filepath.Join("testdata", "wire.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s (regenerate with -update): %v", path, err)
	}
	if got != string(want) {
		t.Fatalf("wire format drift vs %s.\nGot:\n%s\nWant:\n%s\n"+
			"Appending a new type: regenerate with -update. "+
			"Changing an existing line: that is a wire-compat break, revert it.",
			path, got, string(want))
	}
}

// FuzzFrameRoundTrip throws arbitrary bytes at DecodeFrame and checks the
// codec invariant on everything it accepts: decode → encode reaches a fixed
// point (the second encoding is canonical and re-decodes to itself). The
// corpus seeds one frame per message type, so mutation explores every
// struct's field layout.
func FuzzFrameRoundTrip(f *testing.F) {
	for _, m := range fixtures() {
		f.Add(AppendFrame(nil, m))
	}
	for _, old := range retiredFrames() {
		f.Add(old)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, n, err := DecodeFrame(b)
		if err != nil {
			return // malformed input is allowed to fail, never to panic
		}
		if n < 5 || n > len(b) {
			t.Fatalf("DecodeFrame consumed %d of %d bytes", n, len(b))
		}
		canon := AppendFrame(nil, m)
		m2, n2, err := DecodeFrame(canon)
		if err != nil {
			t.Fatalf("re-decode of canonical %T failed: %v (frame %x)", m, err, canon)
		}
		if n2 != len(canon) {
			t.Fatalf("canonical re-decode consumed %d of %d bytes", n2, len(canon))
		}
		if again := AppendFrame(nil, m2); !bytes.Equal(again, canon) {
			t.Fatalf("%T not a fixed point:\n first %x\nsecond %x", m, canon, again)
		}
	})
}

// FuzzDecodeInto drives the recycled-struct decode path: every accepted frame
// must decode identically into a fresh struct and into one pre-populated with
// unrelated state.
func FuzzDecodeInto(f *testing.F) {
	for _, m := range fixtures() {
		f.Add(AppendFrame(nil, m))
	}
	for _, old := range retiredFrames() {
		f.Add(old)
	}
	longID, longPrefix := overlongFrames()
	f.Add(longID)
	f.Add(longPrefix)
	f.Fuzz(func(t *testing.T, b []byte) {
		m, _, err := DecodeFrame(b)
		if err != nil {
			return
		}
		canon := AppendFrame(nil, m)
		for _, recycled := range fixtures() {
			if recycled.WireType() != m.WireType() {
				continue
			}
			if _, err := DecodeFrameInto(canon, recycled); err != nil {
				t.Fatalf("DecodeFrameInto(%T): %v", recycled, err)
			}
			if re := AppendFrame(nil, recycled); !bytes.Equal(re, canon) {
				t.Fatalf("recycled %T decode diverged:\n got %x\nwant %x", recycled, re, canon)
			}
		}
	})
}

// TestDecodeAllocatesNothing: an identifier is a value, so decoding any
// catalogue message into a recycled struct of its type reaches the heap for
// nothing — fixed-size messages and, once the struct's slices have grown, the
// list payloads that carry identifiers by the dozen (a table band's entries,
// a caravan's records). The one exception is ClusterInstall, whose address
// book is host-name strings.
func TestDecodeAllocatesNothing(t *testing.T) {
	band, caravan := &TableBandResp{}, &CaravanStep{Server: id(6, 6, 6), ServerAddr: 17}
	for i := 0; i < 24; i++ {
		d := ids.Digit(i)
		band.Entries = append(band.Entries, route.Entry{ID: id(d, 1, 2, 3), Addr: netsim.Addr(i), Distance: 1.5})
		caravan.Recs = append(caravan.Recs, PubRec{GUID: id(d, 2), Key: id(d, 3), Level: 1, PrevID: id(d, 4), PrevAddr: 23, Hops: 2})
	}
	for _, m := range append(fixtures(), band, caravan) {
		if _, ok := m.(*ClusterInstall); ok {
			continue
		}
		frame := AppendFrame(nil, m)
		into := New(m.WireType())
		var dec Dec // the test's own, as a transport keeps one: no pool for the race detector to empty
		decode := func() {
			if _, err := dec.Frame(frame, into); err != nil {
				t.Fatalf("%T: %v", m, err)
			}
		}
		decode() // grows the recycled struct's slices
		if n := testing.AllocsPerRun(100, decode); n != 0 {
			t.Errorf("decoding %T allocates %v objects, want 0", m, n)
		}
		if re := AppendFrame(nil, into); !bytes.Equal(re, frame) {
			t.Errorf("%T decoded into a recycled struct re-encodes differently", m)
		}
	}
}
