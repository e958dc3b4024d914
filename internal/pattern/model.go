// Package pattern implements the test-pattern side of STEAC (Fig. 1): core
// models standing in for the cores' logic, a synthetic ATPG that generates
// cycle-based core-level patterns exactly as a commercial tool hands them to
// STEAC, and the pattern translators that lift core-level patterns to the
// wrapper level and then to the chip level, where an external ATE (package
// ate) can apply them.
//
// The substitution at work (paper used real cores + commercial ATPG): every
// property the translation flow depends on — chain structure, pattern
// counts, load/unload ordering, capture semantics — is preserved; only the
// logic function inside each core is synthetic (a seeded mixing function).
// Because the ATPG substitute and the chip model share the same core model,
// a correct translator yields zero mismatches on the tester, and any
// injected defect or translation bug yields nonzero mismatches.
package pattern

import (
	"math/bits"

	"steac/internal/testinfo"
)

// Bit is a three-valued test bit: 0, 1, or X (don't care / don't compare).
type Bit byte

// Bit values.
const (
	B0 Bit = 0
	B1 Bit = 1
	BX Bit = 2
)

// FromBool converts a logic level to a Bit.
func FromBool(v bool) Bit {
	if v {
		return B1
	}
	return B0
}

// Bool returns the logic level of a non-X bit (X reads as 0).
func (b Bit) Bool() bool { return b == B1 }

// Matches reports whether an observed level satisfies the expectation
// (X matches anything).
func (b Bit) Matches(observed bool) bool {
	if b == BX {
		return true
	}
	return b.Bool() == observed
}

// splitmix64 is the keyed mixing primitive behind every synthetic model:
// deterministic, seedable, well distributed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// CoreModel is the synthetic logic function of one core.  For scan cores it
// defines the capture behaviour (next scan state and PO values from the
// current scan state and PI values); for functional cores it defines a
// seeded Mealy machine stepped once per functional pattern.
type CoreModel struct {
	Core *testinfo.Core
	Seed uint64

	stateBits int
}

// NewCoreModel builds the model; the seed comes from the core's pattern-set
// seeds so the ATPG substitute and the chip model always agree.
func NewCoreModel(core *testinfo.Core) *CoreModel {
	var seed uint64 = 0x5eed
	for _, p := range core.Patterns {
		seed = splitmix64(seed ^ uint64(p.Seed))
	}
	return &CoreModel{Core: core, Seed: seed, stateBits: core.TotalScanBits()}
}

// StateBits returns the scan state width (concatenation of the core's scan
// chains in declaration order).
func (m *CoreModel) StateBits() int { return m.stateBits }

// TapSpec pins down the exact gate structure of one synthetic capture bit:
// which state bit and which PI feed it, and the two keyed constants.  A
// next-state bit computes
//
//	next[i] = Invert ⊕ state[StateTap] ⊕ pi[PITap]
//
// and a PO bit computes
//
//	po[j] = Invert ⊕ state[StateTap] ⊕ (PIXor ∧ pi[PITap]) ⊕ (state[StateTap] ∧ pi[PITap])
//
// with absent taps (index -1, when the core has no state or no PIs) reading
// as constant 0.  Capture and BuildStructuralCore both derive from these
// specs, so the behavioural model and the generated netlist share one
// definition of the core's logic.
type TapSpec struct {
	StateTap int
	PITap    int
	Invert   bool
	PIXor    bool
}

func (m *CoreModel) nextSpec(i, nState, nPI int) TapSpec {
	sp := TapSpec{StateTap: -1, PITap: -1, PIXor: true}
	if nState > 0 {
		sp.StateTap = int(splitmix64((m.Seed^0xA0000)+uint64(i)) % uint64(nState))
	}
	if nPI > 0 {
		sp.PITap = int(splitmix64((m.Seed^0xA1000)+uint64(i)) % uint64(nPI))
	}
	h := splitmix64(m.Seed ^ 1<<48 ^ uint64(i))
	sp.Invert = (h&1 == 1) != (h&2 == 2)
	return sp
}

func (m *CoreModel) poSpec(j, nState, nPI int) TapSpec {
	sp := TapSpec{StateTap: -1, PITap: -1}
	if nState > 0 {
		sp.StateTap = int(splitmix64((m.Seed^0xA2000)+uint64(j)) % uint64(nState))
	}
	if nPI > 0 {
		sp.PITap = int(splitmix64((m.Seed^0xA3000)+uint64(j)) % uint64(nPI))
	}
	h := splitmix64(m.Seed ^ 2<<48 ^ uint64(j))
	sp.Invert = h&1 == 1
	sp.PIXor = h&2 == 2
	return sp
}

// NextSpec returns the tap structure of next-state bit i at the core's full
// state and PI widths.
func (m *CoreModel) NextSpec(i int) TapSpec { return m.nextSpec(i, m.stateBits, m.Core.PIs) }

// POSpec returns the tap structure of primary-output bit j at the core's
// full state and PI widths.
func (m *CoreModel) POSpec(j int) TapSpec { return m.poSpec(j, m.stateBits, m.Core.PIs) }

// Capture computes one scan capture: given the scan state (concatenated
// chains) and the PI values, it returns the next state and the PO values.
// Each next-state bit mixes one state tap, one PI tap and a keyed constant;
// each PO bit likewise, so every load bit influences observable outputs.
func (m *CoreModel) Capture(state, pi []bool) (next, po []bool) {
	next = make([]bool, len(state))
	po = make([]bool, m.Core.POs)
	m.CaptureInto(state, pi, next, po)
	return next, po
}

// CaptureInto is Capture writing into caller-owned next (len(state)) and
// po (Core.POs) vectors.
func (m *CoreModel) CaptureInto(state, pi, next, po []bool) {
	n := len(state)
	for i := range next {
		sp := m.nextSpec(i, n, len(pi))
		v := sp.Invert
		if sp.StateTap >= 0 && state[sp.StateTap] {
			v = !v
		}
		if sp.PITap >= 0 && pi[sp.PITap] {
			v = !v
		}
		next[i] = v
	}
	for j := range po {
		sp := m.poSpec(j, n, len(pi))
		var sTap, pTap bool
		if sp.StateTap >= 0 {
			sTap = state[sp.StateTap]
		}
		if sp.PITap >= 0 {
			pTap = pi[sp.PITap]
		}
		v := sp.Invert != sTap
		if sp.PIXor && pTap {
			v = !v
		}
		po[j] = v != (sTap && pTap)
	}
}

// FuncReset returns the functional machine's initial internal state.
func (m *CoreModel) FuncReset() uint64 { return splitmix64(m.Seed ^ 0xF0F0) }

// FuncStep advances the functional Mealy machine one pattern: it mixes the
// PI vector into the internal state and writes the PO vector.  Both are
// packed (bit i in word i/64, as in Bus): pi holds Core.PIs bits and
// nothing above them, po receives Words(Core.POs) words, fully
// overwritten.  The mixed state's low bits are the POs, so the first PO
// word is the state itself; only POs past 64 cost a bit each.
func (m *CoreModel) FuncStep(state uint64, pi, po []uint64) uint64 {
	h := state
	for w, word := range pi {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			h ^= splitmix64(m.Seed ^ 0xB0000 ^ uint64(i))
		}
	}
	h = splitmix64(h)
	n := m.Core.POs
	for w := range po {
		po[w] = h
	}
	for j := 64; j < n; j++ {
		po[j>>6] ^= (splitmix64(h^uint64(j)) & 1) << (j & 63)
	}
	if r := n & 63; r != 0 {
		po[len(po)-1] &= uint64(1)<<r - 1
	}
	return h
}
