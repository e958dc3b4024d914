package pattern

import (
	"math/rand"
	"testing"
)

// Property: the word-wise bus writers and readers agree with pin-by-pin
// Set/At/Level on every range, on and off word boundaries.
func TestBusRangeOpsMatchPinOps(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 63, 64, 65, 200, 300} {
		for iter := 0; iter < 200; iter++ {
			src := make([]uint64, Words(n)+2)
			for i := range src {
				src[i] = r.Uint64()
			}
			lo := r.Intn(n)
			k := r.Intn(n-lo) + 1
			off := r.Intn(64 * 2)
			srcBit := func(i int) bool { return src[i>>6]>>(i&63)&1 == 1 }

			// SetBits == Set per pin, and leaves the other pins alone.
			got, want := NewBus(n), NewBus(n)
			for i := 0; i < n; i++ {
				v := Bit(r.Intn(3))
				got.Set(i, v)
				want.Set(i, v)
			}
			got.SetBits(lo, src, off, k)
			for i := 0; i < k; i++ {
				want.Set(lo+i, FromBool(srcBit(off+i)))
			}
			for i := 0; i < n; i++ {
				if got.At(i) != want.At(i) {
					t.Fatalf("n=%d SetBits(%d,%d,%d): pin %d = %v, want %v", n, lo, off, k, i, got.At(i), want.At(i))
				}
			}

			// LevelsTo == Level per pin.
			dst := make([]uint64, Words(n)+2)
			for i := range dst {
				dst[i] = r.Uint64()
			}
			keep := append([]uint64(nil), dst...)
			got.LevelsTo(dst, off, lo, k)
			for i := 0; i < 64*len(dst); i++ {
				w := keep[i>>6]>>(i&63)&1 == 1
				if i >= off && i < off+k {
					w = got.Level(lo + i - off)
				}
				if dst[i>>6]>>(i&63)&1 == 1 != w {
					t.Fatalf("n=%d LevelsTo(%d,%d,%d): bit %d wrong", n, off, lo, k, i)
				}
			}
		}
	}
}

func TestBusClearAndX(t *testing.T) {
	b := NewBus(70)
	b.Set(3, B1)
	b.Set(69, B0)
	if b.At(3) != B1 || b.At(69) != B0 || b.At(4) != BX || !b.Level(3) || b.Level(4) {
		t.Fatal("Set/At/Level")
	}
	b.Clear()
	for i := 0; i < b.Len(); i++ {
		if b.At(i) != BX || b.Level(i) {
			t.Fatalf("pin %d not X after Clear", i)
		}
	}
}

// funcStepBools is the unpacked reference for CoreModel.FuncStep: the
// functional machine exactly as it was specified on bool vectors.
func funcStepBools(m *CoreModel, state uint64, pi []bool) (uint64, []bool) {
	h := state
	for i, v := range pi {
		if v {
			h ^= splitmix64(m.Seed ^ 0xB0000 ^ uint64(i))
		}
	}
	h = splitmix64(h)
	po := make([]bool, m.Core.POs)
	for j := range po {
		po[j] = (h>>(uint(j)%64))&1 == 1
		if j >= 64 {
			po[j] = po[j] != (splitmix64(h^uint64(j))&1 == 1)
		}
	}
	return h, po
}

// The packed functional machine equals the bool reference on PO counts on
// and off word boundaries.
func TestFuncStepMatchesBoolReference(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		core := miniFuncCore()
		core.PIs, core.POs = n+3, n
		m := NewCoreModel(core)
		ref, state := m.FuncReset(), m.FuncReset()
		pi := make([]uint64, Words(core.PIs))
		po := make([]uint64, Words(core.POs))
		for step := 0; step < 20; step++ {
			bits := prandBits(uint64(step), core.PIs)
			packBits(pi, bits)
			var want []bool
			ref, want = funcStepBools(m, ref, bits)
			state = m.FuncStep(state, pi, po)
			got := make([]bool, core.POs)
			unpackBits(got, po)
			if state != ref {
				t.Fatalf("POs=%d step %d: state diverged", n, step)
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("POs=%d step %d: PO %d = %t, want %t", n, step, j, got[j], want[j])
				}
			}
			if r := n & 63; r != 0 && po[len(po)-1]>>r != 0 {
				t.Fatalf("POs=%d: bits set past the last PO", n)
			}
		}
	}
}
