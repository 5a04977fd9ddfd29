package keyspace

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randKey generates a uniformly random key for property tests.
func randKey(r *rand.Rand) Key {
	var k Key
	for i := range k {
		k[i] = byte(r.Intn(256))
	}
	return k
}

// Generate implements quick.Generator so Key can appear directly in
// quick.Check property signatures.
func (Key) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(randKey(r))
}

func TestHashDeterministic(t *testing.T) {
	a := Hash([]byte("hello"))
	b := Hash([]byte("hello"))
	if a != b {
		t.Fatalf("Hash not deterministic: %s vs %s", a, b)
	}
	c := Hash([]byte("world"))
	if a == c {
		t.Fatalf("distinct inputs collided: %s", a)
	}
}

func TestHashStringsBoundaries(t *testing.T) {
	if HashStrings("ab", "c") == HashStrings("a", "bc") {
		t.Fatal("HashStrings must be sensitive to part boundaries")
	}
	if HashStrings("R", "5") == HashStrings("R5") {
		t.Fatal("HashStrings must separate parts")
	}
}

func TestFromUint64RoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 42, 1 << 40, ^uint64(0)} {
		if got := FromUint64(v).Uint64(); got != v {
			t.Errorf("FromUint64(%d).Uint64() = %d", v, got)
		}
	}
}

func TestCmpBasics(t *testing.T) {
	one := FromUint64(1)
	two := FromUint64(2)
	if Zero.Cmp(one) != -1 || one.Cmp(Zero) != 1 || one.Cmp(one) != 0 {
		t.Fatal("Cmp of small keys wrong")
	}
	if !Zero.Less(Max) || Max.Less(Zero) {
		t.Fatal("Zero/Max ordering wrong")
	}
	if two.Less(one) {
		t.Fatal("2 < 1 ?!")
	}
}

func TestAddSubSmall(t *testing.T) {
	a := FromUint64(100)
	b := FromUint64(58)
	if got := a.Add(b).Uint64(); got != 158 {
		t.Errorf("100+58 = %d", got)
	}
	if got := a.Sub(b).Uint64(); got != 42 {
		t.Errorf("100-58 = %d", got)
	}
}

func TestAddWrapAround(t *testing.T) {
	if got := Max.Add(FromUint64(1)); got != Zero {
		t.Errorf("Max+1 = %s, want zero", got)
	}
	if got := Zero.Sub(FromUint64(1)); got != Max {
		t.Errorf("0-1 = %s, want Max", got)
	}
}

func TestHalf(t *testing.T) {
	if got := FromUint64(10).Half().Uint64(); got != 5 {
		t.Errorf("10/2 = %d", got)
	}
	if got := FromUint64(11).Half().Uint64(); got != 5 {
		t.Errorf("11/2 = %d", got)
	}
	// Half of Max is 2^159 - 1: high byte 0x7F, all others 0xFF.
	h := Max.Half()
	if h[0] != 0x7F {
		t.Errorf("Max.Half() high byte = %#x, want 0x7f", h[0])
	}
	for i := 1; i < Size; i++ {
		if h[i] != 0xFF {
			t.Errorf("Max.Half() byte %d = %#x, want 0xff", i, h[i])
		}
	}
}

func TestMidpointNoOverflow(t *testing.T) {
	// Midpoint of Max and Max is Max (exactly, since (2x)/2 = x).
	if got := Midpoint(Max, Max); got != Max {
		t.Errorf("Midpoint(Max, Max) = %s, want Max", got)
	}
	a := FromUint64(10)
	b := FromUint64(20)
	if got := Midpoint(a, b).Uint64(); got != 15 {
		t.Errorf("Midpoint(10,20) = %d", got)
	}
	// A half-space midpoint: mid(0, 2^159) has high bit pattern 0x40.
	var half Key
	half[0] = 0x80
	mid := Midpoint(Zero, half)
	if mid[0] != 0x40 {
		t.Errorf("Midpoint(0, 2^159) high byte = %#x, want 0x40", mid[0])
	}
}

func TestInRangeSimple(t *testing.T) {
	lo := FromUint64(10)
	hi := FromUint64(20)
	cases := []struct {
		k    uint64
		want bool
	}{
		{9, false}, {10, true}, {15, true}, {19, true}, {20, false}, {25, false},
	}
	for _, c := range cases {
		if got := FromUint64(c.k).InRange(lo, hi); got != c.want {
			t.Errorf("InRange(%d, [10,20)) = %v", c.k, got)
		}
	}
}

func TestInRangeWrapped(t *testing.T) {
	// Interval wrapping through zero: [Max-5, 10)
	lo := Max.Sub(FromUint64(5))
	hi := FromUint64(10)
	if !Max.InRange(lo, hi) {
		t.Error("Max should be in wrapped range")
	}
	if !Zero.InRange(lo, hi) {
		t.Error("Zero should be in wrapped range")
	}
	if !FromUint64(9).InRange(lo, hi) {
		t.Error("9 should be in wrapped range")
	}
	if FromUint64(10).InRange(lo, hi) {
		t.Error("10 should be outside half-open wrapped range")
	}
	if FromUint64(1<<40).InRange(lo, hi) {
		t.Error("middle of ring should be outside wrapped range")
	}
}

func TestInRangeFullRing(t *testing.T) {
	k := Hash([]byte("anything"))
	if !k.InRange(k, k) {
		t.Error("lo==hi must denote the full ring")
	}
	if !Zero.InRange(Max, Max) {
		t.Error("lo==hi must denote the full ring for any bound")
	}
}

func TestDivideEvenly(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 16, 100} {
		starts, err := DivideEvenly(n)
		if err != nil {
			t.Fatalf("DivideEvenly(%d): %v", n, err)
		}
		if len(starts) != n {
			t.Fatalf("DivideEvenly(%d) returned %d starts", n, len(starts))
		}
		if starts[0] != Zero {
			t.Errorf("DivideEvenly(%d): first start %s, want zero", n, starts[0])
		}
		// Starts must be strictly increasing.
		for i := 1; i < n; i++ {
			if starts[i].Cmp(starts[i-1]) <= 0 {
				t.Errorf("DivideEvenly(%d): starts not increasing at %d", n, i)
			}
		}
		// Ranges must be nearly equal: every range size differs from
		// 2^160/n by at most 1.
		if n > 1 {
			base := starts[1]
			for i := 1; i < n; i++ {
				var next Key
				if i+1 < n {
					next = starts[i+1]
				} else {
					next = Zero // wraps
				}
				size := next.Sub(starts[i])
				diff := size.Sub(base)
				if diff != Zero && diff != Max && diff != FromUint64(1) {
					t.Errorf("DivideEvenly(%d): range %d size deviates by %s", n, i, diff)
				}
			}
		}
	}
	if _, err := DivideEvenly(0); err == nil {
		t.Error("DivideEvenly(0) should fail")
	}
	if _, err := DivideEvenly(-3); err == nil {
		t.Error("DivideEvenly(-3) should fail")
	}
}

func TestDivideEvenlyTwo(t *testing.T) {
	starts, err := DivideEvenly(2)
	if err != nil {
		t.Fatal(err)
	}
	if starts[1][0] != 0x80 {
		t.Errorf("half point high byte = %#x, want 0x80", starts[1][0])
	}
	for i := 1; i < Size; i++ {
		if starts[1][i] != 0 {
			t.Errorf("half point byte %d = %#x, want 0", i, starts[1][i])
		}
	}
}

// --- Property-based tests ---

func TestPropAddSubInverse(t *testing.T) {
	f := func(a, b Key) bool {
		return a.Add(b).Sub(b) == a && a.Sub(b).Add(b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropAddCommutative(t *testing.T) {
	f := func(a, b Key) bool { return a.Add(b) == b.Add(a) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropAddAssociative(t *testing.T) {
	f := func(a, b, c Key) bool { return a.Add(b).Add(c) == a.Add(b.Add(c)) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropCmpAntisymmetric(t *testing.T) {
	f := func(a, b Key) bool { return a.Cmp(b) == -b.Cmp(a) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropMidpointBetween(t *testing.T) {
	f := func(a, b Key) bool {
		lo, hi := a, b
		if hi.Less(lo) {
			lo, hi = hi, lo
		}
		m := Midpoint(a, b)
		return lo.Cmp(m) <= 0 && m.Cmp(hi) <= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropMidpointHalvesDistance(t *testing.T) {
	f := func(a, b Key) bool {
		lo, hi := a, b
		if hi.Less(lo) {
			lo, hi = hi, lo
		}
		m := Midpoint(lo, hi)
		// m - lo and hi - m differ by at most 1.
		left := m.Sub(lo)
		right := hi.Sub(m)
		d := left.Sub(right)
		return d == Zero || d == FromUint64(1) || d == Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropInRangeComplement(t *testing.T) {
	// For lo != hi, k is in exactly one of [lo,hi) and [hi,lo).
	f := func(k, lo, hi Key) bool {
		if lo == hi {
			return k.InRange(lo, hi)
		}
		in1 := k.InRange(lo, hi)
		in2 := k.InRange(hi, lo)
		return in1 != in2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropHalfMatchesSub(t *testing.T) {
	// k.Half().Add(k.Half()) is k or k-1 (depending on low bit).
	f := func(k Key) bool {
		twice := k.Half().Add(k.Half())
		return twice == k || twice.Add(FromUint64(1)) == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
