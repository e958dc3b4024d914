package pattern

import (
	"testing"
	"testing/quick"

	"steac/internal/testinfo"
	"steac/internal/wrapper"
)

func miniScanCore() *testinfo.Core {
	return &testinfo.Core{
		Name:        "MUSB",
		Clocks:      []string{"ck"},
		ScanEnables: []string{"se"},
		PIs:         6, POs: 4,
		ScanChains: []testinfo.ScanChain{
			{Name: "c0", Length: 13, In: "si0", Out: "so0", Clock: "ck"},
			{Name: "c1", Length: 7, In: "si1", Out: "so1", Clock: "ck"},
		},
		Patterns: []testinfo.PatternSet{{Name: "scan", Type: testinfo.Scan, Count: 5, Seed: 21}},
	}
}

func miniFuncCore() *testinfo.Core {
	return &testinfo.Core{
		Name:   "MJPEG",
		Clocks: []string{"ck"},
		PIs:    9, POs: 5,
		Patterns: []testinfo.PatternSet{{Name: "func", Type: testinfo.Functional, Count: 40, Seed: 22}},
	}
}

func TestBitSemantics(t *testing.T) {
	if !BX.Matches(true) || !BX.Matches(false) {
		t.Fatal("X must match anything")
	}
	if !B1.Matches(true) || B1.Matches(false) || !B0.Matches(false) {
		t.Fatal("bit matching broken")
	}
	if FromBool(true) != B1 || FromBool(false) != B0 {
		t.Fatal("FromBool")
	}
	if B1.Bool() != true || BX.Bool() != false {
		t.Fatal("Bool")
	}
}

func TestCoreModelDeterministic(t *testing.T) {
	core := miniScanCore()
	m1, m2 := NewCoreModel(core), NewCoreModel(core)
	state := prandBits(1, m1.StateBits())
	pi := prandBits(2, core.PIs)
	n1, p1 := m1.Capture(state, pi)
	n2, p2 := m2.Capture(state, pi)
	for i := range n1 {
		if n1[i] != n2[i] {
			t.Fatal("capture nondeterministic")
		}
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("po nondeterministic")
		}
	}
	if len(p1) != core.POs || len(n1) != m1.StateBits() {
		t.Fatal("capture dimensions")
	}
}

func TestCoreModelSensitivity(t *testing.T) {
	// A perturbed seed must change behaviour (this is how defects are
	// injected); and different PI vectors must change outputs somewhere.
	core := miniScanCore()
	m := NewCoreModel(core)
	bad := *m
	bad.Seed ^= 0xDEADBEEF
	state := prandBits(3, m.StateBits())
	pi := prandBits(4, core.PIs)
	n1, _ := m.Capture(state, pi)
	n2, _ := bad.Capture(state, pi)
	same := true
	for i := range n1 {
		if n1[i] != n2[i] {
			same = false
		}
	}
	if same {
		t.Fatal("defective model behaves identically")
	}
}

func TestATPGScanPatterns(t *testing.T) {
	a, err := NewATPG(miniScanCore())
	if err != nil {
		t.Fatal(err)
	}
	if a.ScanCount() != 5 || a.FuncCount() != 0 {
		t.Fatalf("counts = %d/%d", a.ScanCount(), a.FuncCount())
	}
	p0, err := a.ScanPattern(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p0.Load) != 2 || len(p0.Load[0]) != 13 || len(p0.Load[1]) != 7 {
		t.Fatalf("load shape: %d chains", len(p0.Load))
	}
	if len(p0.PI) != 6 || len(p0.ExpectPO) != 4 {
		t.Fatal("pi/po shape")
	}
	// Expected unload must equal the model's capture of the load.
	m := a.Model
	state := append(append([]bool{}, p0.Load[0]...), p0.Load[1]...)
	next, po := m.Capture(state, p0.PI)
	for i := 0; i < 13; i++ {
		if p0.ExpectUnload[0][i] != next[i] {
			t.Fatal("unload mismatch chain 0")
		}
	}
	for i := 0; i < 7; i++ {
		if p0.ExpectUnload[1][i] != next[13+i] {
			t.Fatal("unload mismatch chain 1")
		}
	}
	for i := range po {
		if p0.ExpectPO[i] != po[i] {
			t.Fatal("po mismatch")
		}
	}
	// Deterministic regeneration.
	q0, err := a.ScanPattern(0)
	if err != nil {
		t.Fatal(err)
	}
	for ci := range p0.Load {
		for k := range p0.Load[ci] {
			if p0.Load[ci][k] != q0.Load[ci][k] {
				t.Fatal("regeneration differs")
			}
		}
	}
	if _, err := a.ScanPattern(5); err == nil {
		t.Fatal("out-of-range pattern accepted")
	}
}

func TestATPGFunctionalSequence(t *testing.T) {
	a, err := NewATPG(miniFuncCore())
	if err != nil {
		t.Fatal(err)
	}
	var walked []FuncPattern
	a.FuncWalk(func(i int, p FuncPattern) bool {
		walked = append(walked, p)
		return true
	})
	if len(walked) != 40 {
		t.Fatalf("walked %d", len(walked))
	}
	// Random access agrees with the walk.
	for _, i := range []int{0, 7, 39} {
		p, err := a.FuncPattern(i)
		if err != nil {
			t.Fatal(err)
		}
		for k := range p.PI {
			if p.PI[k] != walked[i].PI[k] {
				t.Fatalf("pattern %d PI differs", i)
			}
		}
		for k := range p.ExpectPO {
			if p.ExpectPO[k] != walked[i].ExpectPO[k] {
				t.Fatalf("pattern %d PO differs", i)
			}
		}
	}
	if _, err := a.FuncPattern(40); err == nil {
		t.Fatal("out-of-range accepted")
	}
}

// Property: every scan pattern's chain images are structurally consistent:
// image lengths equal chain lengths and the segment region reproduces the
// load data.
func TestChainImagesProperty(t *testing.T) {
	core := miniScanCore()
	a, err := NewATPG(core)
	if err != nil {
		t.Fatal(err)
	}
	f := func(widthSeed uint8) bool {
		width := int(widthSeed%3) + 1
		plan, err := designPlan(core, width)
		if err != nil {
			return false
		}
		lane := ScanLane{Core: core, Source: a, Plan: plan}
		for i := 0; i < a.ScanCount(); i++ {
			p, err := a.ScanPattern(i)
			if err != nil {
				return false
			}
			load, expect := ChainImages(lane, p)
			for ci, ch := range plan.Chains {
				if len(load[ci]) != ch.Length() || len(expect[ci]) != ch.Length() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func designPlan(core *testinfo.Core, width int) (wrapper.Plan, error) {
	return wrapper.DesignChains(core, width, wrapper.LPT)
}
