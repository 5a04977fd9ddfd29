package codec

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
)

// Columns of n values, each read whole: the reader bounds a column's bytes
// once and refuses it before anything is decoded — so before a caller sizes
// anything by n — and its values then decode in one loop, with no call and
// no bounds claim per value.
//
// A packed column holds n int64s as a frame of reference plus bit-packing:
// the least value (its base, a zig-zag varint), a width w from 0 to 64 (one
// byte), then each value's distance from the base in w bits, least
// significant bit first, in ⌈n·w/8⌉ bytes. A column of one repeated value
// has width 0 and no bits. A words column holds n big-endian 8-byte words.

// maxColumn bounds n for a packed column, far above any real column, so
// that n·64 cannot overflow.
const maxColumn = 1 << 56

// Packed is a packed column whose bytes the reader has bounded.
type Packed struct {
	base  int64
	width uint
	n     int
	bits  []byte
	at    uint // the bit of bits where the first value starts
}

// Packed reads a packed column of n values. A failed read returns a column
// of no values.
func (r *Reader) Packed(n int) Packed {
	base := r.Varint()
	w := r.U8()
	switch {
	case w > 64:
		r.Fail(ErrWidth)
	case n < 0 || n > maxColumn:
		r.Fail(ErrOversize)
	}
	b := r.take((uint64(n)*uint64(w)+7)/8, ErrOversize)
	if r.err != nil {
		return Packed{}
	}
	return Packed{base: base, width: uint(w), n: n, bits: b}
}

// Len is the column's value count.
func (p Packed) Len() int { return p.n }

// Base is the column's least value, which no value is below.
func (p Packed) Base() int64 { return p.base }

// Width is the bits a value's distance from Base takes; 0 when every value
// is Base.
func (p Packed) Width() int { return int(p.width) }

// Slice is the column of values i to j-1, for a caller that decodes a long
// column a chunk at a time.
func (p Packed) Slice(i, j int) Packed {
	bit := p.at + uint(i)*p.width
	return Packed{base: p.base, width: p.width, n: j - i, bits: p.bits[bit>>3:], at: bit & 7}
}

// Decode writes the column's values to dst[:Len()].
func (p Packed) Decode(dst []int64) {
	dst = dst[:p.n]
	w := p.width
	if w == 0 {
		for i := range dst {
			dst[i] = p.base
		}
		return
	}
	base, mask := uint64(p.base), uint64(math.MaxUint64)>>(64-w)
	src := p.bits
	// While eight bytes from a value's first byte lie inside the column, one
	// load holds the value — past 56 bits at an odd offset, all but its top
	// bits, which the ninth byte holds. Value i starts at bit p.at+i·w, so
	// the first fast values are those starting below bit 8·(len(src)-7).
	fast := 0
	if len(src) >= 8 {
		fast = min(len(dst), int((uint(8*(len(src)-7))-p.at-1)/w)+1)
	}
	off := p.at // the bit where value i starts
	for i := range dst[:fast] {
		at, s := off>>3, off&7
		x := binary.LittleEndian.Uint64(src[at:]) >> s
		if s+w > 64 {
			x |= uint64(src[at+8]) << (64 - s)
		}
		dst[i] = int64(base + x&mask)
		off += w
	}
	i := fast
	if i == len(dst) {
		return
	}
	// The last values lie in fewer than eight bytes (fewer than 64 bits, so
	// none spans nine): the same loads from a zero-padded copy of them.
	var pad [16]byte
	copy(pad[:], src[off>>3:])
	for off &= 7; i < len(dst); i++ {
		at, s := off>>3, off&7
		x := binary.LittleEndian.Uint64(pad[at:]) >> s
		dst[i] = int64(base + x&mask)
		off += w
	}
}

// PackedFrame returns the frame AppendPacked writes xs in: their least value
// and the bits the largest distance from it takes.
func PackedFrame(xs []int64) (base int64, width int) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, bits.Len64(uint64(hi) - uint64(lo))
}

// PackedSize is how many bytes AppendPacked appends for n values in the
// frame (base, width).
func PackedSize(n int, base int64, width int) int {
	zz := uint64(base<<1) ^ uint64(base>>63)
	return (bits.Len64(zz|1)+6)/7 + 1 + (n*width+7)/8
}

// AppendPacked appends xs as a packed column in the frame (base, width)
// that PackedFrame returned for them.
func AppendPacked(dst []byte, xs []int64, base int64, width int) []byte {
	dst = binary.AppendVarint(dst, base)
	dst = append(dst, byte(width))
	if width == 0 {
		return dst
	}
	// The bits go straight into dst's spare capacity, a word at a time.
	n := (len(xs)*width + 7) / 8
	dst = slices.Grow(dst, n)
	out := dst[len(dst) : len(dst)+n]
	w, o := uint(width), 0
	var acc uint64
	nb := uint(0) // bits held in acc
	for _, x := range xs {
		d := uint64(x) - uint64(base)
		acc |= d << (nb & 63)
		if nb += w; nb >= 64 {
			binary.LittleEndian.PutUint64(out[o:], acc)
			o += 8
			nb -= 64
			// The bits of d the word had no room for: d >> (w-nb), where
			// w-nb is 1 to 64 (a shift of 64 leaving none).
			acc = d >> 1 >> ((w - nb - 1) & 63)
		}
	}
	for ; o < n; o++ { // the last word's bytes
		out[o] = byte(acc)
		acc >>= 8
	}
	return dst[:len(dst)+n]
}

// Words is a words column whose bytes the reader has bounded.
type Words []byte

// Words reads a column of n words. A failed read returns a column of none.
func (r *Reader) Words(n int) Words {
	return r.take(uint64(r.Bound(uint64(n), 8))*8, ErrOversize)
}

// Len is the column's word count.
func (w Words) Len() int { return len(w) / 8 }

// Float64s decodes the words, as IEEE 754 doubles, into dst[:Len()].
func (w Words) Float64s(dst []float64) {
	dst = dst[:len(w)/8]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.BigEndian.Uint64(w[8*i:]))
	}
}
