package engine

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// provConfig generates provenance sets over a bounded member universe.
var provConfig = &quick.Config{
	MaxCount: 300,
	Values: func(vals []reflect.Value, rng *rand.Rand) {
		for i := range vals {
			n := 1 + rng.Intn(4) // 64..256-bit sets
			p := make(Prov, n)
			for j := range p {
				p[j] = rng.Uint64() & rng.Uint64() // sparse-ish
			}
			vals[i] = reflect.ValueOf(p)
		}
	},
}

func TestProvKeyRoundTrip(t *testing.T) {
	f := func(p Prov) bool {
		q := ProvFromKey(p.Key())
		// Round trip preserves membership for every bit position.
		for i := 0; i < len(p)*64; i++ {
			if p.Has(i) != q.Has(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, provConfig); err != nil {
		t.Fatal(err)
	}
}

func TestProvKeyCanonical(t *testing.T) {
	// Equal sets encode equally regardless of allocation width.
	f := func(p Prov) bool {
		widened := make(Prov, len(p)+2)
		copy(widened, p)
		return widened.Key() == p.Key()
	}
	if err := quick.Check(f, provConfig); err != nil {
		t.Fatal(err)
	}
}

func TestProvUnionProperties(t *testing.T) {
	f := func(a, b Prov) bool {
		u := a.Union(b)
		// Union is a superset of both and commutative.
		for i := 0; i < len(u)*64; i++ {
			if (a.Has(i) || b.Has(i)) != u.Has(i) {
				return false
			}
		}
		return u.Key() == b.Union(a).Key()
	}
	if err := quick.Check(f, provConfig); err != nil {
		t.Fatal(err)
	}
}

func TestProvIntersects(t *testing.T) {
	f := func(a, b Prov) bool {
		want := false
		for i := 0; i < 256; i++ {
			if a.Has(i) && b.Has(i) {
				want = true
				break
			}
		}
		return a.Intersects(b) == want && b.Intersects(a) == want
	}
	if err := quick.Check(f, provConfig); err != nil {
		t.Fatal(err)
	}
	// Union always intersects its non-empty operands.
	g := func(a, b Prov) bool {
		if a.Count() == 0 {
			return true
		}
		return a.Union(b).Intersects(a)
	}
	if err := quick.Check(g, provConfig); err != nil {
		t.Fatal(err)
	}
}

func TestProvSetHasCount(t *testing.T) {
	p := NewProv(200)
	members := []int{0, 1, 63, 64, 127, 128, 199}
	for _, m := range members {
		p.Set(m)
	}
	for _, m := range members {
		if !p.Has(m) {
			t.Fatalf("missing bit %d", m)
		}
	}
	if p.Has(50) || p.Has(198) {
		t.Fatal("spurious bits")
	}
	if p.Count() != len(members) {
		t.Fatalf("count %d", p.Count())
	}
	c := p.Clone()
	c.Set(50)
	if p.Has(50) {
		t.Fatal("clone aliases original")
	}
}
