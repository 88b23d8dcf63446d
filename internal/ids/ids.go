// Package ids implements the radix-b digit identifiers used by Tapestry for
// both node identifiers (node-IDs) and object identifiers (GUIDs), together
// with the prefix algebra the routing mesh is built on.
//
// An ID is a fixed-length string of digits drawn from an alphabet of radix
// Base. Identifiers are uniformly distributed in the namespace (Section 2 of
// the paper). The package also provides the salted multi-root derivation of
// Observation 2 and deterministic generation for reproducible simulations.
package ids

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
)

// Digit is a single symbol of an identifier, in [0, Base).
type Digit = byte

// Spec fixes the shape of the identifier space: the radix of the digit
// alphabet and the number of digits per identifier.
type Spec struct {
	Base   int // radix b of the digit alphabet; 2 <= Base <= 64
	Digits int // number of digits per identifier; >= 1
}

// DefaultSpec matches the deployed Tapestry configuration: 160-bit-style
// hexadecimal identifiers truncated to 8 digits, which is ample for the
// network sizes exercised in simulation (16^8 ≈ 4.3e9 names).
var DefaultSpec = Spec{Base: 16, Digits: 8}

// Validate reports whether the spec is usable.
func (s Spec) Validate() error {
	if s.Base < 2 || s.Base > 64 {
		return fmt.Errorf("ids: base %d out of range [2,64]", s.Base)
	}
	if s.Digits < 1 || s.Digits > 64 {
		return fmt.Errorf("ids: digit count %d out of range [1,64]", s.Digits)
	}
	return nil
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

// ID is an identifier: a fixed-length digit string. IDs are immutable by
// convention; all operations return fresh values. The zero ID (all zero
// digits) is a valid identifier.
//
// IDs are comparable via == only when they come from the same Spec; use
// Equal for explicit comparison.
type ID struct {
	digits string // each byte is a digit value in [0, Base)
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
	return ID{digits: string(digits)}
}

// FromDigits builds an ID directly from raw digit values without binding to
// a Spec. It is the trusted-decoder constructor used by the wire codec, which
// enforces digit bounds itself before calling; digits are copied.
func FromDigits(digits []Digit) ID { return ID{digits: string(digits)} }

// PrefixFromDigits builds a Prefix directly from raw digit values (the wire
// codec's counterpart of FromDigits); digits are copied.
func PrefixFromDigits(digits []Digit) Prefix { return Prefix{digits: string(digits)} }

// Random draws an identifier uniformly at random from the namespace using
// the supplied source.
func (s Spec) Random(rng *rand.Rand) ID {
	d := make([]Digit, s.Digits)
	for i := range d {
		d[i] = Digit(rng.Intn(s.Base))
	}
	return ID{digits: string(d)}
}

// FromUint64 maps v into the namespace by repeated division, most
// significant digit first. Values beyond the namespace wrap.
func (s Spec) FromUint64(v uint64) ID {
	d := make([]Digit, s.Digits)
	for i := s.Digits - 1; i >= 0; i-- {
		d[i] = Digit(v % uint64(s.Base))
		v /= uint64(s.Base)
	}
	return ID{digits: string(d)}
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
// emit the salted digits. Allocation-free beyond the result and cheap enough
// to call on every locate probe.
func (s Spec) Salt(id ID, i int) ID {
	if i == 0 {
		return id
	}
	h := uint64(i) * 0x9e3779b97f4a7c15
	for j := 0; j < len(id.digits); j++ {
		h = splitmix64(h + uint64(id.digits[j]) + 1)
	}
	d := make([]Digit, s.Digits)
	for j := range d {
		h = splitmix64(h)
		// Direct modulo: the bias for bases up to 64 over a 64-bit draw is
		// below 2^-58, far under anything a simulation can observe.
		d[j] = Digit(h % uint64(s.Base))
	}
	return ID{digits: string(d)}
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
	// A Spec has at most 64 digits (Validate): the digits are drawn on the
	// stack and the ID's string is the call's one allocation.
	var buf [64]Digit
	d := buf[:s.Digits]
	// Consume the hash as a stream of uint16s to keep modulo bias negligible
	// for bases up to 64.
	for i := range d {
		v := binary.BigEndian.Uint16(sum[(2*i)%30 : (2*i)%30+2])
		// Re-mix when we wrap around the hash to avoid repeating digits for
		// long identifiers.
		v ^= uint16(i) * 0x9e37
		d[i] = Digit(v % uint16(s.Base))
	}
	return ID{digits: string(d)}
}

// Len returns the number of digits in the identifier.
func (id ID) Len() int { return len(id.digits) }

// Digit returns the i-th digit (0 = most significant).
func (id ID) Digit(i int) Digit { return id.digits[i] }

// IsZero reports whether id is the zero value (no digits), which is used as
// a sentinel for "no identifier".
func (id ID) IsZero() bool { return id.digits == "" }

// Equal reports whether two identifiers have identical digit strings.
func (id ID) Equal(other ID) bool { return id.digits == other.digits }

// EqualDigits reports whether id consists of exactly the given digits,
// without building an ID from them (the wire codec's check before it keeps a
// recycled identifier).
func (id ID) EqualDigits(digits []Digit) bool { return id.digits == string(digits) }

// Less orders identifiers lexicographically by digit, which coincides with
// numeric order since all IDs have equal length.
func (id ID) Less(other ID) bool { return id.digits < other.digits }

// Compare returns -1, 0, or +1 as id is numerically below, equal to, or
// above other.
func (id ID) Compare(other ID) int { return strings.Compare(id.digits, other.digits) }

// String renders the identifier using the usual digit alphabet
// 0-9, A-Z, a-z, then '+' and '/'.
func (id ID) String() string {
	var b strings.Builder
	b.Grow(len(id.digits))
	for i := 0; i < len(id.digits); i++ {
		b.WriteByte(digitRune(id.digits[i]))
	}
	return b.String()
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
	d := make([]Digit, len(text))
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
	return ID{digits: string(d)}, nil
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
	n := len(a.digits)
	if len(b.digits) < n {
		n = len(b.digits)
	}
	for i := 0; i < n; i++ {
		if a.digits[i] != b.digits[i] {
			return i
		}
	}
	return n
}

// HasPrefix reports whether the first p.Len() digits of id equal p.
func (id ID) HasPrefix(p Prefix) bool {
	return len(id.digits) >= len(p.digits) && id.digits[:len(p.digits)] == p.digits
}

// Prefix returns the length-n prefix of the identifier.
func (id ID) Prefix(n int) Prefix {
	if n < 0 || n > len(id.digits) {
		panic(fmt.Sprintf("ids: prefix length %d out of range for %d-digit id", n, len(id.digits)))
	}
	return Prefix{digits: id.digits[:n]}
}

// Prefix is a (possibly empty) digit string that identifies a subtree of the
// namespace: all IDs whose leading digits equal it. The empty prefix matches
// every identifier.
type Prefix struct {
	digits string
}

// EmptyPrefix matches all identifiers.
var EmptyPrefix = Prefix{}

// Len returns the number of digits in the prefix.
func (p Prefix) Len() int { return len(p.digits) }

// Digit returns the i-th digit of the prefix.
func (p Prefix) Digit(i int) Digit { return p.digits[i] }

// Extend returns the prefix p·j, one digit longer.
func (p Prefix) Extend(j Digit) Prefix {
	return Prefix{digits: p.digits + string([]byte{j})}
}

// Equal reports whether two prefixes are identical.
func (p Prefix) Equal(other Prefix) bool { return p.digits == other.digits }

// String renders the prefix with the same alphabet as ID.String, or "ε" for
// the empty prefix.
func (p Prefix) String() string {
	if len(p.digits) == 0 {
		return "ε"
	}
	var b strings.Builder
	for i := 0; i < len(p.digits); i++ {
		b.WriteByte(digitRune(p.digits[i]))
	}
	return b.String()
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
