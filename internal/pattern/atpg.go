package pattern

import (
	"fmt"

	"steac/internal/testinfo"
)

// ScanPattern is one core-level scan pattern as an ATPG emits it: per-chain
// load data, PI stimulus for the capture cycle, and the expected responses
// (per-chain unload data and PO values at capture).
type ScanPattern struct {
	// Load holds the chain load vectors, indexed like Core.ScanChains.
	Load [][]bool
	// PI is the primary-input stimulus applied during capture.
	PI []bool
	// ExpectUnload is the expected chain content after capture.
	ExpectUnload [][]bool
	// ExpectPO is the expected primary-output response at capture.
	ExpectPO []bool
}

// FuncPattern is one cycle-based functional pattern.
type FuncPattern struct {
	PI       []bool
	ExpectPO []bool
}

// ATPG is the synthetic pattern source for one core.  Patterns are
// generated deterministically and on demand, so the multi-hundred-thousand
// functional sets of the DSC chip stream through the translator without
// ever being materialized.
type ATPG struct {
	Model *CoreModel

	scanSeed  uint64
	funcSeed  uint64
	scanCount int
	funcCount int
}

// NewATPG builds the pattern source from a core's test information.
func NewATPG(core *testinfo.Core) (*ATPG, error) {
	if err := core.Validate(); err != nil {
		return nil, err
	}
	a := &ATPG{Model: NewCoreModel(core)}
	for _, p := range core.Patterns {
		switch p.Type {
		case testinfo.Scan:
			a.scanCount += p.Count
			a.scanSeed = splitmix64(a.scanSeed ^ uint64(p.Seed))
		case testinfo.Functional:
			a.funcCount += p.Count
			a.funcSeed = splitmix64(a.funcSeed ^ uint64(p.Seed))
		}
	}
	return a, nil
}

// Core returns the core this source tests.
func (a *ATPG) Core() *testinfo.Core { return a.Model.Core }

// ScanCount returns the number of scan patterns.
func (a *ATPG) ScanCount() int { return a.scanCount }

// FuncCount returns the number of functional patterns.
func (a *ATPG) FuncCount() int { return a.funcCount }

// prandWords fills dst with seeded pseudo-random words, the packed form of
// prandBits: bit i of the stream is bit i%64 of splitmix64(seed + i/64).
func prandWords(seed uint64, dst []uint64, n int) {
	for k := range dst {
		dst[k] = splitmix64(seed + uint64(k))
	}
	if r := n & 63; r != 0 {
		dst[len(dst)-1] &= uint64(1)<<r - 1
	}
}

func prandBits(seed uint64, n int) []bool {
	w := make([]uint64, Words(n))
	prandWords(seed, w, n)
	bits := make([]bool, n)
	unpackBits(bits, w)
	return bits
}

// ScanPattern generates scan pattern i (0-based).
func (a *ATPG) ScanPattern(i int) (ScanPattern, error) {
	if i < 0 || i >= a.scanCount {
		return ScanPattern{}, fmt.Errorf("pattern: scan pattern %d of %d", i, a.scanCount)
	}
	core := a.Core()
	state := prandBits(splitmix64(a.scanSeed^uint64(i)), a.Model.StateBits())
	pi := prandBits(splitmix64(a.scanSeed^0x50000^uint64(i)), core.PIs)
	next, po := a.Model.Capture(state, pi)
	p := ScanPattern{PI: pi, ExpectPO: po}
	off := 0
	for _, ch := range core.ScanChains {
		p.Load = append(p.Load, state[off:off+ch.Length])
		p.ExpectUnload = append(p.ExpectUnload, next[off:off+ch.Length])
		off += ch.Length
	}
	return p, nil
}

// FuncPattern generates functional pattern i.  Functional patterns are
// sequential: pattern i's expected PO depends on the machine state after
// patterns 0..i-1, so random access costs O(i); use FuncWalk to stream.
func (a *ATPG) FuncPattern(i int) (FuncPattern, error) {
	if i < 0 || i >= a.funcCount {
		return FuncPattern{}, fmt.Errorf("pattern: functional pattern %d of %d", i, a.funcCount)
	}
	var out FuncPattern
	n := 0
	a.FuncWalk(func(j int, p FuncPattern) bool {
		if j == i {
			out = p
			n++
			return false
		}
		return true
	})
	if n == 0 {
		return FuncPattern{}, fmt.Errorf("pattern: functional walk missed %d", i)
	}
	return out, nil
}

// FuncWalk streams the functional pattern sequence from reset; fn returning
// false stops early.
func (a *ATPG) FuncWalk(fn func(i int, p FuncPattern) bool) {
	next := a.FuncStream()
	for i := 0; i < a.funcCount; i++ {
		p, _ := next()
		if !fn(i, p) {
			return
		}
	}
}
