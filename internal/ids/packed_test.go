package ids

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// The packed identifier against the representation it replaced: a plain
// digit slice, with bytes.Compare as the order and loops for everything else.

func refCommon(a, b []Digit) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

func refString(d []Digit) string {
	out := make([]byte, len(d))
	for i, v := range d {
		out[i] = digitRune(v)
	}
	return string(out)
}

func randomDigits(rng *rand.Rand, base, n int) []Digit {
	d := make([]Digit, n)
	for i := range d {
		d[i] = Digit(rng.Intn(base))
	}
	return d
}

// near returns a copy of d that shares its first k digits and, when k is
// inside it, differs at digit k — so every common-prefix length, the straddle
// included, is exercised and not just the short ones two random runs share.
func near(rng *rand.Rand, d []Digit, base, k int) []Digit {
	out := append([]Digit(nil), d...)
	if k < len(out) {
		out[k] = Digit((int(out[k]) + 1 + rng.Intn(base-1)) % base)
		for i := k + 1; i < len(out); i++ {
			out[i] = Digit(rng.Intn(base))
		}
	}
	return out
}

// checkAgainstReference holds one identifier, and its relation to another of
// the same spec, to the digit-slice reference.
func checkAgainstReference(t *testing.T, s Spec, a, b []Digit) {
	t.Helper()
	ia, ib := s.Make(a), s.Make(b)
	if ia.Len() != len(a) || ia.IsZero() {
		t.Fatalf("%v: Len %d IsZero %v", a, ia.Len(), ia.IsZero())
	}
	for i, d := range a {
		if ia.Digit(i) != d {
			t.Fatalf("%v: Digit(%d) = %d", a, i, ia.Digit(i))
		}
	}
	if got := ia.AppendDigits([]byte{0xAA}); !bytes.Equal(got, append([]byte{0xAA}, a...)) {
		t.Fatalf("%v: AppendDigits = %v", a, got[1:])
	}
	if FromDigits(a) != ia {
		t.Fatalf("%v: FromDigits differs from Make", a)
	}
	if ia.String() != refString(a) {
		t.Fatalf("%v: String = %q, want %q", a, ia.String(), refString(a))
	}
	if back, err := s.Parse(ia.String()); err != nil || back != ia {
		t.Fatalf("%v: Parse(String) = %v, %v", a, back, err)
	}
	if !ia.EqualDigits(a) || ia.EqualDigits(a[:len(a)-1]) || ia.EqualDigits(append(append([]Digit(nil), a...), 0)) {
		t.Fatalf("%v: EqualDigits wrong on itself, a shorter or a longer run", a)
	}

	want := bytes.Compare(a, b)
	if got := ia.Compare(ib); got != want {
		t.Fatalf("Compare(%v, %v) = %d, want %d", a, b, got, want)
	}
	if ia.Less(ib) != (want < 0) || ib.Less(ia) != (want > 0) {
		t.Fatalf("Less(%v, %v) disagrees with bytes.Compare %d", a, b, want)
	}
	if (ia == ib) != (want == 0) || ia.Equal(ib) != (want == 0) || ia.EqualDigits(b) != (want == 0) {
		t.Fatalf("equality of %v and %v disagrees with bytes.Compare %d", a, b, want)
	}
	common := refCommon(a, b)
	if got := CommonPrefixLen(ia, ib); got != common {
		t.Fatalf("CommonPrefixLen(%v, %v) = %d, want %d", a, b, got, common)
	}

	p := EmptyPrefix
	for n := 0; n <= len(a); n++ {
		if n > 0 {
			p = p.Extend(a[n-1])
		}
		pa := ia.Prefix(n)
		if pa != p || !pa.Equal(p) || pa != PrefixFromDigits(a[:n]) {
			t.Fatalf("%v: Prefix(%d) = %v, built by Extend = %v", a, n, pa, p)
		}
		if pa.Len() != n {
			t.Fatalf("%v: Prefix(%d).Len() = %d", a, n, pa.Len())
		}
		for i := 0; i < n; i++ {
			if pa.Digit(i) != a[i] {
				t.Fatalf("%v: Prefix(%d).Digit(%d) = %d", a, n, i, pa.Digit(i))
			}
		}
		if n > 0 && pa.String() != refString(a[:n]) {
			t.Fatalf("%v: Prefix(%d).String() = %q", a, n, pa.String())
		}
		if !ia.HasPrefix(pa) || ia.MatchLen(pa) != n {
			t.Fatalf("%v: does not have its own prefix of length %d (MatchLen %d)", a, n, ia.MatchLen(pa))
		}
		if ib.HasPrefix(pa) != (common >= n) {
			t.Fatalf("%v.HasPrefix(%v[:%d]) = %v with %d digits in common", b, a, n, ib.HasPrefix(pa), common)
		}
		if got := ib.MatchLen(pa); got != min(common, n) {
			t.Fatalf("%v.MatchLen(%v[:%d]) = %d, want %d", b, a, n, got, min(common, n))
		}
	}
}

// TestPackedAgainstReference sweeps every base and every length the layout
// admits; per spec it checks the extremes (all zero digits, all base-1), a few
// random pairs, and pairs sharing every possible prefix length.
func TestPackedAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for base := 2; base <= MaxBase; base++ {
		for n := 1; n <= MaxDigits; n++ {
			s := Spec{Base: base, Digits: n}
			if err := s.Validate(); err != nil {
				t.Fatal(err)
			}
			zeros, tops := make([]Digit, n), bytes.Repeat([]byte{byte(base - 1)}, n)
			checkAgainstReference(t, s, zeros, tops)
			checkAgainstReference(t, s, tops, zeros)
			for r := 0; r < 3; r++ {
				checkAgainstReference(t, s, randomDigits(rng, base, n), randomDigits(rng, base, n))
			}
			for k := 0; k <= n; k++ {
				a := randomDigits(rng, base, n)
				checkAgainstReference(t, s, a, near(rng, a, base, k))
			}
		}
	}
}

func TestQuickPackedAgainstReference(t *testing.T) {
	f := func(baseRaw, digitsRaw, kRaw uint8, seed int64) bool {
		s := Spec{Base: 2 + int(baseRaw)%(MaxBase-1), Digits: 1 + int(digitsRaw)%MaxDigits}
		rng := rand.New(rand.NewSource(seed))
		a := randomDigits(rng, s.Base, s.Digits)
		checkAgainstReference(t, s, a, near(rng, a, s.Base, int(kRaw)%(s.Digits+1)))
		checkAgainstReference(t, s, a, randomDigits(rng, s.Base, s.Digits))
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestStraddlingDigit pins the one digit that lies across the two words:
// index 10, bits 62..67 — its low two bits at the top of lo, its high four at
// the bottom of hi — for every value, with both neighbours saturated and
// with both neighbours clear.
func TestStraddlingDigit(t *testing.T) {
	for _, fill := range []Digit{0, MaxBase - 1} {
		for v := 0; v < MaxBase; v++ {
			d := bytes.Repeat([]byte{fill}, MaxDigits)
			d[hiDigits] = Digit(v)
			id := FromDigits(d)
			if got := id.Digit(hiDigits); got != Digit(v) {
				t.Fatalf("fill %d: straddling digit reads %d, want %d", fill, got, v)
			}
			if got := id.Digit(hiDigits - 1); got != fill {
				t.Fatalf("fill %d, straddle %d: digit 9 reads %d", fill, v, got)
			}
			if got := id.Digit(hiDigits + 1); got != fill {
				t.Fatalf("fill %d, straddle %d: digit 11 reads %d", fill, v, got)
			}
			if wantHi, wantLo := uint64(v)>>2, uint64(v)&3; id.hi&0xf != wantHi || id.lo>>62 != wantLo {
				t.Fatalf("fill %d, straddle %d: hi's low nibble %d (want %d), lo's top bits %d (want %d)",
					fill, v, id.hi&0xf, wantHi, id.lo>>62, wantLo)
			}
			if !bytes.Equal(id.AppendDigits(nil), d) {
				t.Fatalf("fill %d, straddle %d: AppendDigits = %v", fill, v, id.AppendDigits(nil))
			}
		}
	}
}

// TestCompareReadsTheLowWord: identifiers that agree on every digit hi holds
// are ordered by the digits lo holds.
func TestCompareReadsTheLowWord(t *testing.T) {
	s := Spec{Base: 16, Digits: 16}
	a := s.Make([]Digit{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0, 11, 0, 0, 0, 1})
	b := s.Make([]Digit{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0, 11, 0, 0, 0, 2})
	if a.hi != b.hi {
		t.Fatal("the pair was meant to differ in lo only")
	}
	if a.Compare(b) != -1 || b.Compare(a) != 1 || !a.Less(b) || b.Less(a) || a == b {
		t.Errorf("Compare(a, b) = %d, Compare(b, a) = %d, Less %v/%v", a.Compare(b), b.Compare(a), a.Less(b), b.Less(a))
	}
}

// TestOrderAcrossLengths: identifiers of different lengths (prefixes, and the
// wire decoder's spec-less values) keep the byte-string order — a run that is
// a prefix of another sorts first, trailing zero digits included.
func TestOrderAcrossLengths(t *testing.T) {
	runs := [][]Digit{{}, {0}, {0, 0}, {0, 0, 5}, {0, 1}, {1}, {1, 0}, {1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, {1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1}, {2}}
	for i, a := range runs {
		for j, b := range runs {
			ia, ib := FromDigits(a), FromDigits(b)
			if got, want := ia.Compare(ib), bytes.Compare(a, b); got != want {
				t.Errorf("Compare(%v, %v) = %d, want %d", a, b, got, want)
			}
			if got, want := CommonPrefixLen(ia, ib), refCommon(a, b); got != want {
				t.Errorf("CommonPrefixLen(%v, %v) = %d, want %d", a, b, got, want)
			}
			if (ia == ib) != (i == j) {
				t.Errorf("%v == %v is %v", a, b, ia == ib)
			}
		}
	}
}

func TestZeroID(t *testing.T) {
	var zero ID
	if !zero.IsZero() || zero.Len() != 0 || zero.String() != "" || zero != FromDigits(nil) {
		t.Errorf("zero ID: IsZero %v Len %d String %q", zero.IsZero(), zero.Len(), zero.String())
	}
	if !zero.EqualDigits(nil) || zero.EqualDigits([]Digit{0}) {
		t.Error("the zero ID has no digits, and is not the one-digit identifier 0")
	}
	if zero.Prefix(0) != EmptyPrefix || !zero.HasPrefix(EmptyPrefix) || zero.HasPrefix(EmptyPrefix.Extend(0)) {
		t.Error("the zero ID has the empty prefix and no other")
	}
	id := DefaultSpec.FromUint64(0)
	if id.IsZero() || id == zero || CommonPrefixLen(id, zero) != 0 || zero.Compare(id) != -1 {
		t.Error("the all-zero-digit identifier is not the zero ID, and sorts after it")
	}
	mustPanic(t, "digit of the zero ID", func() { zero.Digit(0) })
	mustPanic(t, "digit past the end", func() { id.Digit(id.Len()) })
	mustPanic(t, "negative digit index", func() { id.Digit(-1) })
}

// TestCapacity: a run no identifier can hold is refused by every constructor
// — by panic where only a bug can produce it, by error or false where the
// digits may be outside input.
func TestCapacity(t *testing.T) {
	long := make([]Digit, MaxDigits+1)
	wide := []Digit{1, MaxBase, 2}
	full := FromDigits(make([]Digit, MaxDigits))
	mustPanic(t, "FromDigits, 21 digits", func() { FromDigits(long) })
	mustPanic(t, "FromDigits, digit 64", func() { FromDigits(wide) })
	mustPanic(t, "PrefixFromDigits, 21 digits", func() { PrefixFromDigits(long) })
	mustPanic(t, "Extend past capacity", func() { full.Prefix(MaxDigits).Extend(0) })
	mustPanic(t, "Extend with digit 64", func() { EmptyPrefix.Extend(MaxBase) })
	if full.EqualDigits(long) || FromDigits([]Digit{1, 0, 2}).EqualDigits(wide) {
		t.Error("EqualDigits matched a run no identifier can hold")
	}
	over := Spec{Base: 16, Digits: MaxDigits + 1}
	if _, err := over.Parse("000000000000000000000"); err == nil {
		t.Error("Parse built a 21-digit identifier")
	}
	rng := rand.New(rand.NewSource(1))
	mustPanic(t, "Random over capacity", func() { over.Random(rng) })
	mustPanic(t, "Hash over capacity", func() { over.Hash("x") })
	mustPanic(t, "FromUint64 over capacity", func() { over.FromUint64(1) })
	mustPanic(t, "Salt over capacity", func() { over.Salt(full, 1) })
}

// TestDigitsPinnedToParent pins Hash, Salt and FromUint64 to the digits the
// string-backed representation produced: identifiers must stay digit-identical
// or every determinism gate moves.
func TestDigitsPinnedToParent(t *testing.T) {
	hashes := []struct {
		spec  Spec
		name  string
		hash  string
		salts [3]string
	}{
		{Spec{Base: 16, Digits: 8}, "", "05217B55", [3]string{"7C18DA16", "42A2094A", "6551C64C"}},
		{Spec{Base: 16, Digits: 8}, "object-A", "1274A39A", [3]string{"337E49FC", "870FEE84", "49E72CB6"}},
		{Spec{Base: 16, Digits: 8}, "node-17", "EE941CE1", [3]string{"CB905B9D", "7B2D4FB5", "75D255FF"}},
		{Spec{Base: 16, Digits: 8}, "tapestry", "E47076AF", [3]string{"7828AE6E", "481E5D7E", "EE2882BD"}},
		{Spec{Base: 4, Digits: 16}, "object-A", "1230231203112210", [3]string{"0013112031201131", "2023012030123312", "1302231312031301"}},
		{Spec{Base: 4, Digits: 16}, "tapestry", "2030322333301013", [3]string{"2220302220220002", "3322223131011102", "1131213213030131"}},
		{Spec{Base: 64, Digits: 20}, "", "mrIndRbbMBzH1GG9oRAk", [3]string{"rUX5qWaaeG1qytIMqE8z", "riYDzlHb9DK99wxGNbU6", "nADxUc8ZI1Y7LLgad6pS"}},
		{Spec{Base: 64, Digits: 20}, "node-17", "k+f4nCkH8v8lPw5NvW/u", [3]string{"9xC0LXfZQVwE+7ofqZ6f", "EqdJLHsODf5UkDgD66Pc", "GJj2Ozr6+fOTEQEsr3R0"}},
		{Spec{Base: 10, Digits: 11}, "object-A", "76360774659", [3]string{"50963581532", "64937943137", "76723345317"}},
		{Spec{Base: 2, Digits: 13}, "tapestry", "0010100111101", [3]string{"1100001000110", "1001010111100", "0011100011001"}},
	}
	for _, c := range hashes {
		id := c.spec.Hash(c.name)
		if id.String() != c.hash {
			t.Errorf("%+v.Hash(%q) = %s, want %s", c.spec, c.name, id, c.hash)
		}
		for i, want := range c.salts {
			if got := c.spec.Salt(id, i+1).String(); got != want {
				t.Errorf("%+v.Salt(Hash(%q), %d) = %s, want %s", c.spec, c.name, i+1, got, want)
			}
		}
	}
	values := []struct {
		spec Spec
		v    uint64
		want string
	}{
		{Spec{Base: 16, Digits: 8}, 0, "00000000"},
		{Spec{Base: 16, Digits: 8}, 12345678901234567, "5D6B4B87"},
		{Spec{Base: 16, Digits: 8}, ^uint64(0), "FFFFFFFF"},
		{Spec{Base: 4, Digits: 16}, 12345678901234567, "1131122310232013"},
		{Spec{Base: 64, Digits: 20}, 12345678901234567, "00000000000ht5HTQqk7"},
		{Spec{Base: 64, Digits: 20}, ^uint64(0), "000000000F//////////"},
		{Spec{Base: 10, Digits: 11}, ^uint64(0), "73709551615"},
		{Spec{Base: 2, Digits: 13}, 12345678901234567, "0101110000111"},
	}
	for _, c := range values {
		if got := c.spec.FromUint64(c.v).String(); got != c.want {
			t.Errorf("%+v.FromUint64(%d) = %s, want %s", c.spec, c.v, got, c.want)
		}
	}
}

// TestConstructorsAllocateNothing: an identifier is a value; building,
// deriving and comparing one never reaches the heap.
func TestConstructorsAllocateNothing(t *testing.T) {
	s := Spec{Base: 16, Digits: 16}
	rng := rand.New(rand.NewSource(3))
	digits := randomDigits(rng, s.Base, s.Digits)
	text := s.Make(digits).String()
	var sink ID
	var sinkP Prefix
	allocs := testing.AllocsPerRun(100, func() {
		sink = s.Hash("an object's name")
		sink = s.Salt(sink, 2)
		sinkP = sink.Prefix(11).Extend(3)
		sink = s.FromUint64(977)
		sink = s.Random(rng)
		sink = FromDigits(digits)
		sink, _ = s.Parse(text)
	})
	if allocs != 0 {
		t.Errorf("constructors allocate %.1f objects per round, want 0", allocs)
	}
	_, _ = sink, sinkP
}
