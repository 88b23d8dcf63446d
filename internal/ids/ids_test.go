package ids

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		spec Spec
		ok   bool
	}{
		{Spec{Base: 16, Digits: 8}, true},
		{Spec{Base: 2, Digits: 1}, true},
		{Spec{Base: 64, Digits: MaxDigits}, true},
		{Spec{Base: 1, Digits: 8}, false},
		{Spec{Base: 65, Digits: 8}, false},
		{Spec{Base: 16, Digits: 0}, false},
		{Spec{Base: 16, Digits: MaxDigits + 1}, false},
		{Spec{Base: 16, Digits: 65}, false},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", c.spec, err, c.ok)
		}
	}
}

func TestNamespace(t *testing.T) {
	if got := (Spec{Base: 2, Digits: 3}).Namespace(); got != 8 {
		t.Errorf("2^3 namespace = %d, want 8", got)
	}
	if got := (Spec{Base: 16, Digits: 8}).Namespace(); got != 1<<32 {
		t.Errorf("16^8 namespace = %d, want 2^32", got)
	}
	if got := (Spec{Base: 64, Digits: MaxDigits}).Namespace(); got != ^uint64(0) {
		t.Errorf("64^20 namespace should saturate, got %d", got)
	}
}

func TestMakeAndDigits(t *testing.T) {
	s := Spec{Base: 4, Digits: 4}
	id := s.Make([]Digit{3, 0, 2, 1})
	if id.Len() != 4 {
		t.Fatalf("Len = %d, want 4", id.Len())
	}
	want := []Digit{3, 0, 2, 1}
	for i, w := range want {
		if id.Digit(i) != w {
			t.Errorf("Digit(%d) = %d, want %d", i, id.Digit(i), w)
		}
	}
}

func TestMakePanics(t *testing.T) {
	s := Spec{Base: 4, Digits: 2}
	mustPanic(t, "wrong length", func() { s.Make([]Digit{1}) })
	mustPanic(t, "digit out of range", func() { s.Make([]Digit{1, 4}) })
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

func TestStringParseRoundTrip(t *testing.T) {
	for _, spec := range []Spec{{Base: 4, Digits: 6}, {Base: 16, Digits: 8}, {Base: 64, Digits: 10}} {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 200; i++ {
			id := spec.Random(rng)
			back, err := spec.Parse(id.String())
			if err != nil {
				t.Fatalf("Parse(%q): %v", id.String(), err)
			}
			if !back.Equal(id) {
				t.Fatalf("round trip %q != %q", back, id)
			}
		}
	}
}

func TestParseErrors(t *testing.T) {
	s := Spec{Base: 16, Digits: 4}
	for _, bad := range []string{"", "123", "12345", "12G.", "zzzz", "1 23"} {
		if _, err := s.Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestFromUint64(t *testing.T) {
	s := Spec{Base: 10, Digits: 4}
	if got := s.FromUint64(1234).String(); got != "1234" {
		t.Errorf("FromUint64(1234) = %s", got)
	}
	if got := s.FromUint64(10_001_234).String(); got != "1234" {
		t.Errorf("FromUint64 wrap = %s, want 1234", got)
	}
}

func TestHashDeterministic(t *testing.T) {
	s := DefaultSpec
	a, b := s.Hash("object-A"), s.Hash("object-A")
	if !a.Equal(b) {
		t.Error("Hash is not deterministic")
	}
	if s.Hash("object-A").Equal(s.Hash("object-B")) {
		t.Error("distinct names collided (vanishingly unlikely)")
	}
}

func TestHashDigitsInRange(t *testing.T) {
	for _, spec := range []Spec{{Base: 4, Digits: 16}, {Base: 16, Digits: MaxDigits}, {Base: 64, Digits: MaxDigits}} {
		for i := 0; i < 100; i++ {
			id := spec.Hash(string(rune('a' + i%26)))
			for j := 0; j < id.Len(); j++ {
				if int(id.Digit(j)) >= spec.Base {
					t.Fatalf("hash digit out of range: %d >= %d", id.Digit(j), spec.Base)
				}
			}
			_ = i
		}
	}
}

func TestSaltProperties(t *testing.T) {
	s := DefaultSpec
	rng := rand.New(rand.NewSource(7))
	id := s.Random(rng)
	if !s.Salt(id, 0).Equal(id) {
		t.Error("Salt(id, 0) must be the identity")
	}
	seen := map[string]bool{}
	for i := 0; i < 8; i++ {
		seen[s.Salt(id, i).String()] = true
	}
	if len(seen) != 8 {
		t.Errorf("8 salts produced %d distinct ids", len(seen))
	}
	// Deterministic across calls.
	if !s.Salt(id, 3).Equal(s.Salt(id, 3)) {
		t.Error("Salt not deterministic")
	}
}

func TestSalted(t *testing.T) {
	s := DefaultSpec
	rng := rand.New(rand.NewSource(11))
	id := s.Random(rng)
	roots := s.Salted(id, 4)
	if len(roots) != 4 {
		t.Fatalf("Salted(id, 4) returned %d roots", len(roots))
	}
	if !roots[0].Equal(id) {
		t.Error("root 0 must be the unsalted GUID")
	}
	for i, r := range roots {
		if !r.Equal(s.Salt(id, i)) {
			t.Errorf("root %d disagrees with Salt(id, %d)", i, i)
		}
		for j := 0; j < r.Len(); j++ {
			if int(r.Digit(j)) >= s.Base {
				t.Fatalf("salted digit out of range: %d >= %d", r.Digit(j), s.Base)
			}
		}
	}
	if len(s.Salted(id, 1)) != 1 {
		t.Error("Salted(id, 1) must be the singleton root set")
	}
}

func TestCommonPrefixLen(t *testing.T) {
	s := Spec{Base: 16, Digits: 4}
	cases := []struct {
		a, b string
		want int
	}{
		{"1234", "1234", 4},
		{"1234", "1235", 3},
		{"1234", "1334", 1},
		{"1234", "2234", 0},
		{"ABCD", "ABFF", 2},
	}
	for _, c := range cases {
		a, _ := s.Parse(c.a)
		b, _ := s.Parse(c.b)
		if got := CommonPrefixLen(a, b); got != c.want {
			t.Errorf("CommonPrefixLen(%s,%s) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := CommonPrefixLen(b, a); got != c.want {
			t.Errorf("CommonPrefixLen symmetric (%s,%s) = %d, want %d", c.b, c.a, got, c.want)
		}
	}
}

func TestPrefixOperations(t *testing.T) {
	s := Spec{Base: 16, Digits: 4}
	id, _ := s.Parse("4227")
	p := id.Prefix(2)
	if p.Len() != 2 || p.String() != "42" {
		t.Fatalf("Prefix(2) = %s", p)
	}
	if !id.HasPrefix(p) {
		t.Error("id must have its own prefix")
	}
	other, _ := s.Parse("4327")
	if other.HasPrefix(p) {
		t.Error("4327 should not have prefix 42")
	}
	ext := p.Extend(2)
	if ext.String() != "422" {
		t.Errorf("Extend = %s, want 422", ext)
	}
	if !id.HasPrefix(ext) {
		t.Error("4227 should have prefix 422")
	}
	if EmptyPrefix.Len() != 0 || EmptyPrefix.String() != "ε" {
		t.Error("EmptyPrefix misbehaves")
	}
	if !id.HasPrefix(EmptyPrefix) {
		t.Error("everything has the empty prefix")
	}
	mustPanic(t, "prefix too long", func() { id.Prefix(5) })
	mustPanic(t, "prefix negative", func() { id.Prefix(-1) })
}

func TestCompareAndLess(t *testing.T) {
	s := Spec{Base: 16, Digits: 4}
	a, _ := s.Parse("1000")
	b, _ := s.Parse("1001")
	if !a.Less(b) || b.Less(a) || a.Less(a) {
		t.Error("Less ordering broken")
	}
	if a.Compare(b) != -1 || b.Compare(a) != 1 || a.Compare(a) != 0 {
		t.Error("Compare broken")
	}
}

func TestSurrogateOrder(t *testing.T) {
	got := SurrogateOrder(4, 2)
	want := []Digit{2, 3, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SurrogateOrder(4,2) = %v, want %v", got, want)
		}
	}
	if len(SurrogateOrder(16, 0)) != 16 {
		t.Error("order length must equal base")
	}
}

// Property: prefix of common length always shared; extending past the common
// prefix always differs.
func TestQuickCommonPrefixConsistency(t *testing.T) {
	s := Spec{Base: 8, Digits: 10}
	f := func(seedA, seedB int64) bool {
		a := s.Random(rand.New(rand.NewSource(seedA)))
		b := s.Random(rand.New(rand.NewSource(seedB)))
		n := CommonPrefixLen(a, b)
		if !a.HasPrefix(b.Prefix(n)) || !b.HasPrefix(a.Prefix(n)) {
			return false
		}
		if n < a.Len() && n < b.Len() {
			// The next digit must differ.
			if a.Digit(n) == b.Digit(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: SurrogateOrder is always a permutation of [0, base).
func TestQuickSurrogateOrderPermutation(t *testing.T) {
	f := func(baseRaw, wantRaw uint8) bool {
		base := 2 + int(baseRaw)%63
		want := Digit(int(wantRaw) % base)
		order := SurrogateOrder(base, want)
		if len(order) != base || order[0] != want {
			return false
		}
		seen := make([]bool, base)
		for _, d := range order {
			if int(d) >= base || seen[d] {
				return false
			}
			seen[d] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: String/Parse round-trips for random specs.
func TestQuickRoundTrip(t *testing.T) {
	f := func(baseRaw, digitsRaw uint8, seed int64) bool {
		spec := Spec{Base: 2 + int(baseRaw)%63, Digits: 1 + int(digitsRaw)%MaxDigits}
		id := spec.Random(rand.New(rand.NewSource(seed)))
		back, err := spec.Parse(id.String())
		return err == nil && back.Equal(id)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRandomUniformFirstDigit(t *testing.T) {
	s := Spec{Base: 4, Digits: 6}
	rng := rand.New(rand.NewSource(42))
	counts := make([]int, 4)
	const n = 8000
	for i := 0; i < n; i++ {
		counts[s.Random(rng).Digit(0)]++
	}
	for d, c := range counts {
		if c < n/4-300 || c > n/4+300 {
			t.Errorf("digit %d count %d deviates from uniform %d", d, c, n/4)
		}
	}
}

func TestIsZero(t *testing.T) {
	var zero ID
	if !zero.IsZero() {
		t.Error("zero value must report IsZero")
	}
	s := Spec{Base: 2, Digits: 1}
	if s.Make([]Digit{0}).IsZero() {
		t.Error("an all-zero-digit ID is not the zero value")
	}
}
