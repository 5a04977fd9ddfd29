// Package keyspace implements the 160-bit circular key space used by the
// ORCHESTRA storage substrate. Keys are 160-bit unsigned integers, matching
// the output of the SHA-1 cryptographic hash function (paper §III-A). The key
// space is visualized as a ring of values starting at 0 and increasing
// clockwise until overflow back to 0 at 2^160.
package keyspace

import (
	"crypto/sha1"
	"encoding/binary"
	"encoding/hex"
	"errors"
)

// Size is the width of a key in bytes (160 bits, the SHA-1 digest size).
const Size = sha1.Size // 20

// Key is a 160-bit unsigned integer stored big-endian. The zero value is the
// key 0. Keys are comparable and usable as map keys.
type Key [Size]byte

// Zero is the key 0, the origin of the ring.
var Zero Key

// Max is the largest key, 2^160 - 1.
var Max = func() Key {
	var k Key
	for i := range k {
		k[i] = 0xFF
	}
	return k
}()

// Hash returns the SHA-1 hash of data as a Key. This is the only way raw data
// (tuple keys, node addresses, relation names) enters the key space.
func Hash(data []byte) Key {
	return Key(sha1.Sum(data))
}

// HashStrings hashes the concatenation of the given strings, each preceded by
// its length, so that ("ab","c") and ("a","bc") hash differently.
func HashStrings(parts ...string) Key {
	h := sha1.New()
	var lenBuf [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(p)))
		h.Write(lenBuf[:])
		h.Write([]byte(p))
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// Uint64 returns the low 64 bits of k. It is primarily useful in tests and
// for sharding decisions that only need coarse resolution.
func (k Key) Uint64() uint64 {
	return binary.BigEndian.Uint64(k[Size-8:])
}

// Top64 returns the high 64 bits of k. Because balanced range allocation
// divides the ring evenly, the high bits determine range ownership for any
// membership below 2^64 nodes, so Top64 is a cheap ownership proxy.
func (k Key) Top64() uint64 {
	return binary.BigEndian.Uint64(k[:8])
}

// Cmp compares keys numerically: -1 if k < other, 0 if equal, +1 if k > other.
func (k Key) Cmp(other Key) int {
	for i := 0; i < Size; i++ {
		switch {
		case k[i] < other[i]:
			return -1
		case k[i] > other[i]:
			return 1
		}
	}
	return 0
}

// Less reports whether k < other numerically.
func (k Key) Less(other Key) bool { return k.Cmp(other) < 0 }

// Add returns k + other mod 2^160.
func (k Key) Add(other Key) Key {
	var out Key
	var carry uint16
	for i := Size - 1; i >= 0; i-- {
		sum := uint16(k[i]) + uint16(other[i]) + carry
		out[i] = byte(sum)
		carry = sum >> 8
	}
	return out
}

// Sub returns k - other mod 2^160 (the clockwise distance from other to k).
func (k Key) Sub(other Key) Key {
	var out Key
	var borrow uint16
	for i := Size - 1; i >= 0; i-- {
		diff := uint16(k[i]) - uint16(other[i]) - borrow
		out[i] = byte(diff)
		if diff > 0xFF { // wrapped below zero
			borrow = 1
		} else {
			borrow = 0
		}
	}
	return out
}

// Half returns k / 2 (logical shift right by one bit).
func (k Key) Half() Key {
	var out Key
	var carry byte
	for i := 0; i < Size; i++ {
		out[i] = (k[i] >> 1) | (carry << 7)
		carry = k[i] & 1
	}
	return out
}

// Midpoint returns (a + b) / 2 computed in 161-bit arithmetic, i.e. without
// overflow. It is the placement key for index pages: the paper stores an
// index page at the middle of the tuple-hash range it covers so that the page
// is colocated with most of the tuples it references (§IV).
func Midpoint(a, b Key) Key {
	var sum Key
	var carry uint16
	for i := Size - 1; i >= 0; i-- {
		s := uint16(a[i]) + uint16(b[i]) + carry
		sum[i] = byte(s)
		carry = s >> 8
	}
	// Shift the 161-bit value (carry:sum) right by one.
	out := sum.Half()
	if carry != 0 {
		out[0] |= 0x80
	}
	return out
}

// InRange reports whether k lies in the half-open ring interval [lo, hi),
// traveling clockwise from lo. If lo == hi the interval denotes the full
// ring and every key is inside.
func (k Key) InRange(lo, hi Key) bool {
	if lo == hi {
		return true
	}
	if lo.Cmp(hi) < 0 {
		return k.Cmp(lo) >= 0 && k.Cmp(hi) < 0
	}
	// Wrapped interval.
	return k.Cmp(lo) >= 0 || k.Cmp(hi) < 0
}

// String returns the full 40-hex-digit representation.
func (k Key) String() string {
	return hex.EncodeToString(k[:])
}

// Short returns an abbreviated hex prefix for logging.
func (k Key) Short() string {
	return hex.EncodeToString(k[:4])
}

// Div returns k / n for a positive divisor n < 2^32 (node and replica counts
// are always far below that bound).
func (k Key) Div(n uint64) Key {
	if n == 0 {
		panic("keyspace: division by zero")
	}
	var out Key
	var rem uint64
	for i := 0; i < Size; i += 4 {
		cur := rem<<32 | uint64(binary.BigEndian.Uint32(k[i:]))
		binary.BigEndian.PutUint32(out[i:], uint32(cur/n))
		rem = cur % n
	}
	return out
}

// FromFraction returns the key at fraction f of the ring (0 ≤ f ≤ 1),
// with 64-bit resolution in the top bits: FromFraction(0.5) is the ring's
// midpoint. Used by weighted (capacity-proportional) range allocation.
func FromFraction(f float64) Key {
	if f <= 0 {
		return Zero
	}
	if f >= 1 {
		return Max
	}
	v := f * float64(1<<63)
	if v >= float64(1<<63) {
		return Max
	}
	var k Key
	binary.BigEndian.PutUint64(k[:8], uint64(v)*2)
	return k
}

// ErrBadDivisor is returned by DivideEvenly for a non-positive divisor.
var ErrBadDivisor = errors.New("keyspace: divisor must be positive")

// DivideEvenly splits the ring into n equal, sequential ranges and returns
// the n range start keys: start[i] = floor(i * 2^160 / n). start[0] is always
// 0. Range i is [start[i], start[i+1 mod n]). This is the balanced range
// allocation of §III-A (Fig 2b): it distributes the key space, and therefore
// the data, uniformly among the nodes.
func DivideEvenly(n int) ([]Key, error) {
	if n <= 0 {
		return nil, ErrBadDivisor
	}
	starts := make([]Key, n)
	for i := 1; i < n; i++ {
		starts[i] = mulShiftDiv(uint64(i), uint64(n))
	}
	return starts, nil
}

// mulShiftDiv computes floor(i * 2^160 / n) for 0 < i < n, n < 2^32 is not
// required: we use 32-bit limbs so any n < 2^32 is safe, and node counts are
// far below that. The dividend i*2^160 is represented as seven 32-bit limbs
// (the top limb holds i, which must fit in 32 bits for this representation;
// node counts always do).
func mulShiftDiv(i, n uint64) Key {
	// dividend limbs, most significant first: [i, 0, 0, 0, 0, 0]
	// 160 bits = five 32-bit limbs of zeros after the i limb.
	limbs := [6]uint64{i, 0, 0, 0, 0, 0}
	var quot [6]uint64
	var rem uint64
	for j := 0; j < len(limbs); j++ {
		cur := rem<<32 | limbs[j]
		quot[j] = cur / n
		rem = cur % n
	}
	// quot[0] is the overflow above 2^160; for i < n it is always 0.
	var k Key
	for j := 1; j < 6; j++ {
		binary.BigEndian.PutUint32(k[(j-1)*4:], uint32(quot[j]))
	}
	return k
}
