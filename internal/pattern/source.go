package pattern

import (
	"fmt"

	"steac/internal/testinfo"
)

// Source supplies core-level test patterns to the translator.  The
// synthetic ATPG implements it; ExplicitSource wraps literal vector data
// carried in a STIL file (the paper: "the test information includes the IO
// ports, scan structure, and test vectors").
type Source interface {
	Core() *testinfo.Core
	ScanCount() int
	ScanPattern(i int) (ScanPattern, error)
	FuncCount() int
	// FuncStream returns a fresh sequential iterator over the functional
	// patterns; each call restarts from pattern 0.
	FuncStream() func() (FuncPattern, bool)
}

var _ Source = (*ATPG)(nil)

// FuncStream implements Source for the synthetic ATPG by replaying the
// Mealy machine.
func (a *ATPG) FuncStream() func() (FuncPattern, bool) {
	core := a.Core()
	next := a.funcWords()
	pi := make([]uint64, Words(core.PIs))
	po := make([]uint64, Words(core.POs))
	return func() (FuncPattern, bool) {
		if !next(pi, po) {
			return FuncPattern{}, false
		}
		p := FuncPattern{PI: make([]bool, core.PIs), ExpectPO: make([]bool, core.POs)}
		unpackBits(p.PI, pi)
		unpackBits(p.ExpectPO, po)
		return p, true
	}
}

// funcWords is the ATPG's functional pattern generator: each call writes
// the next pattern's PI and expected PO vectors, packed, into pi
// (Words(PIs) words) and po (Words(POs) words).
func (a *ATPG) funcWords() func(pi, po []uint64) bool {
	nPI := a.Core().PIs
	state := a.Model.FuncReset()
	i := 0
	return func(pi, po []uint64) bool {
		if i >= a.funcCount {
			return false
		}
		prandWords(splitmix64(a.funcSeed^0x60000^uint64(i)), pi, nPI)
		state = a.Model.FuncStep(state, pi, po)
		i++
		return true
	}
}

// packedFuncStream returns src's functional patterns packed, as funcWords
// does: straight from the generator for the ATPG, packed from FuncStream
// otherwise.
func packedFuncStream(src Source) func(pi, po []uint64) bool {
	if a, ok := src.(*ATPG); ok {
		return a.funcWords()
	}
	next := src.FuncStream()
	return func(pi, po []uint64) bool {
		p, ok := next()
		if ok {
			packBits(pi, p.PI)
			packBits(po, p.ExpectPO)
		}
		return ok
	}
}

// ExplicitSource serves literal pattern data (typically parsed from a STIL
// file's vector statements).
type ExplicitSource struct {
	core *testinfo.Core
	scan []ScanPattern
	fn   []FuncPattern
}

// NewExplicitSource validates the vector shapes against the core's test
// information and wraps them as a Source.
func NewExplicitSource(core *testinfo.Core, scan []ScanPattern, fn []FuncPattern) (*ExplicitSource, error) {
	if err := core.Validate(); err != nil {
		return nil, err
	}
	for i, p := range scan {
		if len(p.Load) != len(core.ScanChains) || len(p.ExpectUnload) != len(core.ScanChains) {
			return nil, fmt.Errorf("pattern: scan vector %d has %d chains, core has %d",
				i, len(p.Load), len(core.ScanChains))
		}
		for ci, ch := range core.ScanChains {
			if len(p.Load[ci]) != ch.Length || len(p.ExpectUnload[ci]) != ch.Length {
				return nil, fmt.Errorf("pattern: scan vector %d chain %s: %d/%d bits, want %d",
					i, ch.Name, len(p.Load[ci]), len(p.ExpectUnload[ci]), ch.Length)
			}
		}
		if len(p.PI) != core.PIs || len(p.ExpectPO) != core.POs {
			return nil, fmt.Errorf("pattern: scan vector %d PI/PO = %d/%d, want %d/%d",
				i, len(p.PI), len(p.ExpectPO), core.PIs, core.POs)
		}
	}
	for i, p := range fn {
		if len(p.PI) != core.PIs || len(p.ExpectPO) != core.POs {
			return nil, fmt.Errorf("pattern: functional vector %d PI/PO = %d/%d, want %d/%d",
				i, len(p.PI), len(p.ExpectPO), core.PIs, core.POs)
		}
	}
	return &ExplicitSource{core: core, scan: scan, fn: fn}, nil
}

// Core returns the core under test.
func (s *ExplicitSource) Core() *testinfo.Core { return s.core }

// ScanCount returns the number of explicit scan vectors.
func (s *ExplicitSource) ScanCount() int { return len(s.scan) }

// ScanPattern returns scan vector i.
func (s *ExplicitSource) ScanPattern(i int) (ScanPattern, error) {
	if i < 0 || i >= len(s.scan) {
		return ScanPattern{}, fmt.Errorf("pattern: scan vector %d of %d", i, len(s.scan))
	}
	return s.scan[i], nil
}

// FuncCount returns the number of explicit functional vectors.
func (s *ExplicitSource) FuncCount() int { return len(s.fn) }

// FuncStream iterates the explicit functional vectors.
func (s *ExplicitSource) FuncStream() func() (FuncPattern, bool) {
	i := 0
	return func() (FuncPattern, bool) {
		if i >= len(s.fn) {
			return FuncPattern{}, false
		}
		p := s.fn[i]
		i++
		return p, true
	}
}

// Export materializes up to maxScan scan and maxFunc functional patterns
// from any source (used to write explicit vectors into STIL files).
func Export(src Source, maxScan, maxFunc int) ([]ScanPattern, []FuncPattern, error) {
	nScan := src.ScanCount()
	if maxScan >= 0 && nScan > maxScan {
		nScan = maxScan
	}
	scan := make([]ScanPattern, 0, nScan)
	for i := 0; i < nScan; i++ {
		p, err := src.ScanPattern(i)
		if err != nil {
			return nil, nil, err
		}
		scan = append(scan, p)
	}
	nFunc := src.FuncCount()
	if maxFunc >= 0 && nFunc > maxFunc {
		nFunc = maxFunc
	}
	var fn []FuncPattern
	next := src.FuncStream()
	for i := 0; i < nFunc; i++ {
		p, ok := next()
		if !ok {
			return nil, nil, fmt.Errorf("pattern: functional stream ended at %d of %d", i, nFunc)
		}
		fn = append(fn, p)
	}
	return scan, fn, nil
}
