package pattern

import "math/bits"

// Bus is a packed vector of three-valued test bits, one pin per bit: pin i
// lives in bit i%64 of word i/64.  A pin whose Care bit is 0 is X (don't
// drive / don't compare) whatever its Val bit holds, so clearing a bus to
// all-X is zeroing the Care words.  The tester compares a whole word of
// pins at once: observed word o fails expectation e exactly on the bits of
// (o ^ e.Val) & e.Care.
type Bus struct {
	Val  []uint64
	Care []uint64
	n    int
}

// Words returns the number of 64-bit words that hold n pins.
func Words(n int) int { return (n + 63) / 64 }

// NewBus returns an all-X bus of n pins.
func NewBus(n int) Bus {
	w := Words(n)
	return Bus{Val: make([]uint64, w), Care: make([]uint64, w), n: n}
}

// Len returns the number of pins.
func (b *Bus) Len() int { return b.n }

// Clear sets every pin to X.
func (b *Bus) Clear() { clear(b.Care) }

// At returns pin i.
func (b *Bus) At(i int) Bit {
	m := uint64(1) << (i & 63)
	switch w := i >> 6; {
	case b.Care[w]&m == 0:
		return BX
	case b.Val[w]&m != 0:
		return B1
	default:
		return B0
	}
}

// Level returns the logic level pin i drives: X drives 0, as Bit.Bool.
func (b *Bus) Level(i int) bool {
	w := i >> 6
	return (b.Val[w]&b.Care[w])>>(i&63)&1 == 1
}

// Set sets pin i.
func (b *Bus) Set(i int, v Bit) {
	w, m := i>>6, uint64(1)<<(i&63)
	switch v {
	case BX:
		b.Care[w] &^= m
		b.Val[w] &^= m
	case B1:
		b.Care[w] |= m
		b.Val[w] |= m
	default:
		b.Care[w] |= m
		b.Val[w] &^= m
	}
}

// SetBits drives pins [lo, lo+n) to the levels of bits [off, off+n) of
// src (bit k of src lives in bit k%64 of src[k/64]).
func (b *Bus) SetBits(lo int, src []uint64, off, n int) {
	CopyBits(b.Val, lo, src, off, n)
	for n > 0 {
		k := min(n, 64)
		depositBits(b.Care, lo, ^uint64(0), k)
		lo, n = lo+k, n-k
	}
}

// LevelsTo copies the drive levels of pins [lo, lo+n) (X drives 0, as in
// Level) to bits [off, off+n) of dst.
func (b *Bus) LevelsTo(dst []uint64, off, lo, n int) {
	for n > 0 {
		k := min(n, 64)
		depositBits(dst, off, extractBits(b.Val, lo, k)&extractBits(b.Care, lo, k), k)
		lo, off, n = lo+k, off+k, n-k
	}
}

// CopyBits copies bits [off, off+n) of src to bits [lo, lo+n) of dst.
func CopyBits(dst []uint64, lo int, src []uint64, off, n int) {
	for n > 0 {
		k := min(n, 64)
		depositBits(dst, lo, extractBits(src, off, k), k)
		lo, off, n = lo+k, off+k, n-k
	}
}

// extractBits returns bits [off, off+k) of src in the low k bits
// (1 ≤ k ≤ 64).
func extractBits(src []uint64, off, k int) uint64 {
	w, s := off>>6, off&63
	v := src[w] >> s
	if s+k > 64 {
		v |= src[w+1] << (64 - s)
	}
	return v & (^uint64(0) >> (64 - k))
}

// depositBits writes the low k bits of v to bits [off, off+k) of dst
// (1 ≤ k ≤ 64), leaving the other bits alone.
func depositBits(dst []uint64, off int, v uint64, k int) {
	m := ^uint64(0) >> (64 - k)
	v &= m
	w, s := off>>6, off&63
	dst[w] = dst[w]&^(m<<s) | v<<s
	if s+k > 64 {
		dst[w+1] = dst[w+1]&^(m>>(64-s)) | v>>(64-s)
	}
}

// packBits packs bools into dst (bit i of dst[i/64] = v[i]); dst must hold
// Words(len(v)) words and is fully overwritten.
func packBits(dst []uint64, v []bool) {
	clear(dst)
	for i, b := range v {
		if b {
			dst[i>>6] |= 1 << (i & 63)
		}
	}
}

// unpackBits is packBits' inverse: it fills dst from the low len(dst) bits
// of src.
func unpackBits(dst []bool, src []uint64) {
	for i := range dst {
		dst[i] = src[i>>6]>>(i&63)&1 == 1
	}
}

// Mismatches calls fn, in ascending pin order, for every pin of b that the
// observed words obs fail: the word compare (obs ^ Val) & Care finds the
// failing pins, and only a nonzero word is walked bit by bit.
func (b *Bus) Mismatches(obs []uint64, fn func(pin int)) {
	for w, care := range b.Care {
		diff := (obs[w] ^ b.Val[w]) & care
		for diff != 0 {
			fn(w<<6 | bits.TrailingZeros64(diff))
			diff &= diff - 1
		}
	}
}
