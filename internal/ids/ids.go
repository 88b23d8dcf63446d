// Package ids implements the radix-b digit identifiers used by Tapestry for
// both node identifiers (node-IDs) and object identifiers (GUIDs), together
// with the prefix algebra the routing mesh is built on.
//
// An ID is a fixed-length string of digits drawn from an alphabet of radix
// Base. Identifiers are uniformly distributed in the namespace (Section 2 of
// the paper). The package also provides the salted multi-root derivation of
// Observation 2 and deterministic generation for reproducible simulations.
//
// # Layout
//
// An identifier (and a prefix) is a 128-bit value held in two words and
// nothing else — no string, no pointer. Digit i (0 = most significant) sits
// in bits [122-6i, 127-6i], six bits whatever the base, and the low byte
// holds the digit count; digit positions past the count are zero. Because the
// width does not depend on the Spec, the spec-less FromDigits of the wire
// decoder builds the very value Spec.Hash does. The layout makes == identity,
// an unsigned two-word compare the digit-string order (a run that is a prefix
// of a longer one sorts first, as a byte string does), the common prefix an
// XOR and a leading-zero count, and a prefix a mask. Digit 10 is the one that
// straddles the words (bits 62..67).
//
// The capacity is MaxDigits = 20: 20 x 6 bits + 8 bits of length = 128.
// Eight-bit digits would hold 15, and the base-4 ablation (A3) builds 16; a
// third word would hold 30 but takes route.Entry from 40 to 48 bytes, and
// every routing table with it. The zero value has no digits and stands for
// "no identifier"; a real identifier has a non-zero length byte, which is
// what lets Table mark an empty slot with the zero ID.
package ids

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
)

// Digit is a single symbol of an identifier, in [0, Base).
type Digit = byte

// MaxBase and MaxDigits are the identifier's capacity: a digit is six bits
// and twenty of them fit beside the length byte (see Layout). Whatever takes
// digits from outside the program — the wire decoder, the TCP envelope —
// bounds them by these before it builds an identifier.
const (
	MaxBase   = 64
	MaxDigits = 20
)

const (
	digitBits = 6
	hiDigits  = 10   // digits that lie wholly in hi; the next one straddles
	lenMask   = 0xff // the low byte of lo

	// appendSpan is the bytes AppendDigits writes and pack reads: three words
	// of eight digits, the last one half padding.
	appendSpan = 24
)

// Spec fixes the shape of the identifier space: the radix of the digit
// alphabet and the number of digits per identifier.
type Spec struct {
	Base   int // radix b of the digit alphabet; 2 <= Base <= MaxBase
	Digits int // number of digits per identifier; 1 <= Digits <= MaxDigits
}

// DefaultSpec matches the deployed Tapestry configuration: 160-bit-style
// hexadecimal identifiers truncated to 8 digits, which is ample for the
// network sizes exercised in simulation (16^8 ≈ 4.3e9 names).
var DefaultSpec = Spec{Base: 16, Digits: 8}

// Validate reports whether the spec is usable.
func (s Spec) Validate() error {
	if s.Base < 2 || s.Base > MaxBase {
		return fmt.Errorf("ids: base %d out of range [2,%d]", s.Base, MaxBase)
	}
	if s.Digits < 1 || s.Digits > MaxDigits {
		return fmt.Errorf("ids: digit count %d out of range [1,%d]", s.Digits, MaxDigits)
	}
	return nil
}

// mustFit panics when a constructor is handed a spec whose identifiers do not
// fit the layout. Validate keeps such a spec out of every mesh, so reaching
// here is a bug.
func (s Spec) mustFit() {
	if s.Base > MaxBase || s.Digits > MaxDigits {
		panic(fmt.Sprintf("ids: spec %+v exceeds the identifier's capacity (%d digits below %d)", s, MaxDigits, MaxBase))
	}
}

// Namespace returns the number of distinct identifiers the spec admits,
// saturating at the maximum uint64 on overflow.
func (s Spec) Namespace() uint64 {
	out := uint64(1)
	for i := 0; i < s.Digits; i++ {
		next := out * uint64(s.Base)
		if next/uint64(s.Base) != out {
			return ^uint64(0)
		}
		out = next
	}
	return out
}

// ID is an identifier: a fixed-length digit string packed into two words (see
// Layout). IDs are values; all operations return fresh ones. The identifier
// of all-zero digits is a valid ID, distinct from the zero value (no digits).
//
// == and Equal agree, and an ID is a valid map key.
type ID struct {
	hi, lo uint64
}

// digitBuf is an identifier unpacked: one byte per digit, zero past the count.
// Every constructor writes its digits into one and packs it; AppendDigits is
// the way back.
type digitBuf [appendSpan]Digit

// words reads the buffer as three words of eight digit bytes each.
func (d *digitBuf) words() (a, b, c uint64) {
	return binary.BigEndian.Uint64(d[0:]), binary.BigEndian.Uint64(d[8:]), binary.BigEndian.Uint64(d[16:])
}

// pack builds the identifier of d's first n digits. The caller guarantees
// n <= MaxDigits, digits below MaxBase and zeros from n on. It is AppendDigits
// backwards: each word squeezed to 48 bits, the three laid end to end.
func (d *digitBuf) pack(n int) ID {
	a, b, c := d.words()
	a, b, c = squeeze(a), squeeze(b), squeeze(c)
	return ID{hi: a<<16 | b>>32, lo: b<<32 | c>>16 | uint64(n)}
}

// pack builds the identifier of a digit run, or reports false when the run
// is longer than MaxDigits or holds a digit >= MaxBase (every byte is checked
// at once).
func pack(digits []Digit) (ID, bool) {
	if len(digits) > MaxDigits {
		return ID{}, false
	}
	var d digitBuf
	copy(d[:], digits)
	if a, b, c := d.words(); (a|b|c)&0xc0c0_c0c0_c0c0_c0c0 != 0 {
		return ID{}, false
	}
	return d.pack(len(digits)), true
}

// squeeze is spread's inverse: eight digit bytes to 48 bits.
func squeeze(x uint64) uint64 {
	x = x&0x3f00_3f00_3f00_3f00>>2 | x&0x003f_003f_003f_003f
	x = x&0x0fff_0000_0fff_0000>>4 | x&0x0000_0fff_0000_0fff
	return x&0x00ff_ffff_0000_0000>>8 | x&0x00ff_ffff
}

// Make builds an ID from explicit digit values. It panics if a digit is out
// of range for the spec; identifiers enter the system only through trusted
// constructors.
func (s Spec) Make(digits []Digit) ID {
	if len(digits) != s.Digits {
		panic(fmt.Sprintf("ids: Make with %d digits, spec wants %d", len(digits), s.Digits))
	}
	for i, d := range digits {
		if int(d) >= s.Base {
			panic(fmt.Sprintf("ids: digit %d at position %d exceeds base %d", d, i, s.Base))
		}
	}
	return FromDigits(digits)
}

// FromDigits builds an ID directly from raw digit values without binding to
// a Spec. It is the trusted-decoder constructor used by the wire codec, which
// bounds the count by MaxDigits and every digit by MaxBase itself before
// calling; a run that breaks either bound panics.
func FromDigits(digits []Digit) ID {
	id, ok := pack(digits)
	if !ok {
		// The run itself stays out of the message: formatting it would move
		// every caller's digit slice to the heap.
		panic(fmt.Sprintf("ids: a run of %d digits does not fit an identifier (%d digits below %d)", len(digits), MaxDigits, MaxBase))
	}
	return id
}

// PrefixFromDigits builds a Prefix directly from raw digit values (the wire
// codec's counterpart of FromDigits, with the same bounds).
func PrefixFromDigits(digits []Digit) Prefix { return Prefix(FromDigits(digits)) }

// Random draws an identifier uniformly at random from the namespace using
// the supplied source.
func (s Spec) Random(rng *rand.Rand) ID {
	s.mustFit()
	var d digitBuf
	for i := range d[:s.Digits] {
		d[i] = Digit(rng.Intn(s.Base))
	}
	return d.pack(s.Digits)
}

// FromUint64 maps v into the namespace by repeated division, most
// significant digit first. Values beyond the namespace wrap.
func (s Spec) FromUint64(v uint64) ID {
	s.mustFit()
	var d digitBuf
	for i := s.Digits - 1; i >= 0; i-- {
		d[i] = Digit(v % uint64(s.Base))
		v /= uint64(s.Base)
	}
	return d.pack(s.Digits)
}

// Hash deterministically derives an identifier from an application-level
// name (e.g. an object's human name) by hashing into the namespace. This is
// how GUIDs are minted in practice.
func (s Spec) Hash(name string) ID {
	sum := sha256.Sum256([]byte(name))
	return s.fromHash(sum)
}

// Salt derives the i-th root identifier for a GUID per Observation 2: a
// pseudo-random function maps the document GUID ψ into identifiers
// ψ_0, ψ_1, ..., and root i is the surrogate of ψ_i. Salt(id, 0) == id so a
// single-root configuration is the unsalted GUID.
//
// The derivation runs SplitMix64 over the digit string: the salt index seeds
// the state, each digit folds in through the finalizer, and successive draws
// emit the salted digits. Allocation-free and cheap enough to call on every
// locate probe.
func (s Spec) Salt(id ID, i int) ID {
	if i == 0 {
		return id
	}
	s.mustFit()
	h := uint64(i) * 0x9e3779b97f4a7c15
	for j, n := 0, id.Len(); j < n; j++ {
		h = splitmix64(h + uint64(id.Digit(j)) + 1)
	}
	var d digitBuf
	for j := range d[:s.Digits] {
		h = splitmix64(h)
		// Direct modulo: the bias for bases up to 64 over a 64-bit draw is
		// below 2^-58, far under anything a simulation can observe.
		d[j] = Digit(h % uint64(s.Base))
	}
	return d.pack(s.Digits)
}

// Salted returns the full root set [ψ_0, ..., ψ_{r-1}] for a GUID: the r
// independent identifiers whose surrogates serve as the object's roots under
// an r-root availability configuration. Salted(id, 1) is just {id}.
func (s Spec) Salted(id ID, r int) []ID {
	if r < 1 {
		panic(fmt.Sprintf("ids: Salted with root count %d", r))
	}
	out := make([]ID, r)
	for i := range out {
		out[i] = s.Salt(id, i)
	}
	return out
}

// splitmix64 is the SplitMix64 finalizer (Steele et al.), the same mixer the
// stats package uses for seed streams; duplicated privately so ids stays a
// leaf package.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (s Spec) fromHash(sum [32]byte) ID {
	s.mustFit()
	var d digitBuf
	// Consume the hash as a stream of uint16s to keep modulo bias negligible
	// for bases up to 64.
	for i := range d[:s.Digits] {
		v := binary.BigEndian.Uint16(sum[(2*i)%30 : (2*i)%30+2])
		// Re-mix when we wrap around the hash to avoid repeating digits for
		// long identifiers.
		v ^= uint16(i) * 0x9e37
		d[i] = Digit(v % uint16(s.Base))
	}
	return d.pack(s.Digits)
}

// Len returns the number of digits in the identifier.
func (id ID) Len() int { return int(id.lo & lenMask) }

// lowWord returns the digits from hiDigits on, packed from the top of a word
// the way hi packs the first ten: hi's four spare bits, then lo's sixty.
func (id ID) lowWord() uint64 { return id.hi<<60 | id.lo>>4 }

// Digit returns the i-th digit (0 = most significant).
func (id ID) Digit(i int) Digit {
	if uint(i) >= uint(id.lo&lenMask) {
		panic("ids: digit index out of range")
	}
	w := id.hi
	if i >= hiDigits {
		w, i = id.lowWord(), i-hiDigits
	}
	return Digit(w>>(64-digitBits*(i+1))) & (MaxBase - 1)
}

// AppendDigits appends the identifier's digits, one byte each and most
// significant first, to dst — the body of an identifier on the wire. Unlike
// append it may write past what it appends, up to appendSpan bytes of dst's
// spare capacity: dst is a buffer being built, not a window onto live data.
func (id ID) AppendDigits(dst []byte) []byte {
	// Eight digits at a time, no loop: digits 0-7 are hi's top 48 bits, 8-15
	// the next 48 of the 128, 16-19 the 24 above the length byte. All three
	// words are stored into dst's spare capacity, which is then cut back to
	// the count — three stores, where a counted copy is a call to memmove.
	n := len(dst)
	dst = slices.Grow(dst, appendSpan)[:n+appendSpan]
	binary.BigEndian.PutUint64(dst[n:], spread(id.hi>>16))
	binary.BigEndian.PutUint64(dst[n+8:], spread(id.hi<<32&0xffff_0000_0000|id.lo>>32))
	binary.BigEndian.PutUint64(dst[n+16:], spread(id.lo<<16&0xffff_ff00_0000))
	return dst[:n+id.Len()]
}

// spread widens the eight 6-bit digits in x's low 48 bits to a byte each,
// first digit in the top byte, by halving the field that moves three times.
func spread(x uint64) uint64 {
	x = x&0xffff_ff00_0000<<8 | x&0xff_ffff
	x = x&0x00ff_f000_00ff_f000<<4 | x&0x0000_0fff_0000_0fff
	return x&0x0fc0_0fc0_0fc0_0fc0<<2 | x&0x003f_003f_003f_003f
}

// IsZero reports whether id is the zero value (no digits), which is used as
// a sentinel for "no identifier".
func (id ID) IsZero() bool { return id == ID{} }

// Equal reports whether two identifiers have identical digit strings.
func (id ID) Equal(other ID) bool { return id == other }

// EqualDigits reports whether id consists of exactly the given digits. They
// may come from outside the program (the addressee of a TCP envelope): a run
// no identifier can hold equals none.
func (id ID) EqualDigits(digits []Digit) bool {
	other, ok := pack(digits)
	return ok && id == other
}

// Less orders identifiers lexicographically by digit, which coincides with
// numeric order since all IDs have equal length.
func (id ID) Less(other ID) bool { return below(id, other) != 0 }

// Compare returns -1, 0, or +1 as id is numerically below, equal to, or
// above other.
func (id ID) Compare(other ID) int { return int(below(other, id)) - int(below(id, other)) }

// below is 1 when a sorts before b and 0 otherwise: the borrow out of the
// two-word subtraction a - b, which no branch computes — the sorted sets and
// binary searches that call Compare cannot predict one.
func below(a, b ID) uint64 {
	_, borrow := bits.Sub64(a.lo, b.lo, 0)
	_, borrow = bits.Sub64(a.hi, b.hi, borrow)
	return borrow
}

// String renders the identifier using the usual digit alphabet
// 0-9, A-Z, a-z, then '+' and '/'.
func (id ID) String() string {
	var buf [appendSpan]byte
	b := id.AppendDigits(buf[:0])
	for i, d := range b {
		b[i] = digitRune(d)
	}
	return string(b)
}

func digitRune(d Digit) byte {
	switch {
	case d < 10:
		return '0' + d
	case d < 36:
		return 'A' + d - 10
	case d < 62:
		return 'a' + d - 36
	case d == 62:
		return '+'
	default:
		return '/'
	}
}

// Parse is the inverse of String for identifiers produced under spec.
func (s Spec) Parse(text string) (ID, error) {
	if len(text) != s.Digits {
		return ID{}, fmt.Errorf("ids: parse %q: want %d digits, have %d", text, s.Digits, len(text))
	}
	if len(text) > MaxDigits {
		return ID{}, fmt.Errorf("ids: parse %q: %d digits exceed the identifier's capacity of %d", text, len(text), MaxDigits)
	}
	var d digitBuf
	for i := 0; i < len(text); i++ {
		v, err := runeDigit(text[i])
		if err != nil {
			return ID{}, fmt.Errorf("ids: parse %q: %v", text, err)
		}
		if int(v) >= s.Base {
			return ID{}, fmt.Errorf("ids: parse %q: digit %c exceeds base %d", text, text[i], s.Base)
		}
		d[i] = v
	}
	return d.pack(len(text)), nil
}

func runeDigit(c byte) (Digit, error) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', nil
	case c >= 'A' && c <= 'Z':
		return c - 'A' + 10, nil
	case c >= 'a' && c <= 'z':
		return c - 'a' + 36, nil
	case c == '+':
		return 62, nil
	case c == '/':
		return 63, nil
	default:
		return 0, fmt.Errorf("invalid digit %q", c)
	}
}

// CommonPrefixLen returns the number of leading digits shared by a and b,
// i.e. |GreatestCommonPrefix(a, b)|.
func CommonPrefixLen(a, b ID) int {
	// The first differing bit, counted from the top of the 128, names the
	// first differing digit. With the length bytes masked off, equal runs
	// count all 128 bits; the shorter length clamps that, as it clamps a
	// difference past it (one side's digits there are the layout's zeros).
	var n int
	if x := a.hi ^ b.hi; x != 0 {
		n = bits.LeadingZeros64(x) / digitBits
	} else {
		n = (64 + bits.LeadingZeros64((a.lo^b.lo)&^lenMask)) / digitBits
	}
	return min(n, a.Len(), b.Len())
}

// MatchLen returns the number of leading digits id shares with p.
func (id ID) MatchLen(p Prefix) int { return CommonPrefixLen(id, ID(p)) }

// prefixMasks returns the masks that keep the first n digits of hi and lo.
func prefixMasks(n int) (hi, lo uint64) {
	w := uint(digitBits * n)
	if w <= 64 {
		return ^uint64(0) << (64 - w), 0 // n = 0 shifts by 64, which Go defines as zero
	}
	return ^uint64(0), ^uint64(0) << (128 - w)
}

// HasPrefix reports whether the first p.Len() digits of id equal p.
func (id ID) HasPrefix(p Prefix) bool { return id.MatchLen(p) == p.Len() }

// Prefix returns the length-n prefix of the identifier.
func (id ID) Prefix(n int) Prefix {
	if n < 0 || n > id.Len() {
		panic(fmt.Sprintf("ids: prefix length %d out of range for %d-digit id", n, id.Len()))
	}
	hi, lo := prefixMasks(n)
	return Prefix{hi: id.hi & hi, lo: id.lo&lo | uint64(n)}
}

// Prefix is a (possibly empty) digit string that identifies a subtree of the
// namespace: all IDs whose leading digits equal it. The empty prefix matches
// every identifier. It has the identifier's layout and capacity.
type Prefix struct {
	hi, lo uint64
}

// EmptyPrefix matches all identifiers.
var EmptyPrefix = Prefix{}

// Len returns the number of digits in the prefix.
func (p Prefix) Len() int { return ID(p).Len() }

// Digit returns the i-th digit of the prefix.
func (p Prefix) Digit(i int) Digit { return ID(p).Digit(i) }

// AppendDigits appends the prefix's digits to dst as ID.AppendDigits does.
func (p Prefix) AppendDigits(dst []byte) []byte { return ID(p).AppendDigits(dst) }

// Extend returns the prefix p·j, one digit longer.
func (p Prefix) Extend(j Digit) Prefix {
	if p.Len() >= MaxDigits || j >= MaxBase {
		panic(fmt.Sprintf("ids: cannot extend %d-digit prefix by digit %d (capacity %d digits below %d)", p.Len(), j, MaxDigits, MaxBase))
	}
	var d digitBuf
	n := len(p.AppendDigits(d[:0]))
	d[n] = j
	return Prefix(d.pack(n + 1))
}

// Equal reports whether two prefixes are identical.
func (p Prefix) Equal(other Prefix) bool { return p == other }

// String renders the prefix with the same alphabet as ID.String, or "ε" for
// the empty prefix.
func (p Prefix) String() string {
	if p.Len() == 0 {
		return "ε"
	}
	return ID(p).String()
}

// SurrogateOrder yields the order in which Tapestry-native surrogate routing
// probes digits at a level when the desired digit's entry may be missing:
// the desired digit first, then successively higher digits modulo the base
// ("if the next digit to be routed is a 3 and there is no entry, try 4, then
// 5, and so on", Section 2.3). The returned slice has length base.
func SurrogateOrder(base int, want Digit) []Digit {
	out := make([]Digit, base)
	for i := 0; i < base; i++ {
		out[i] = Digit((int(want) + i) % base)
	}
	return out
}
