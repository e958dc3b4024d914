package pattern

import (
	"bytes"
	"testing"

	"steac/internal/testinfo"
	"steac/internal/wrapper"
)

func extestCores() []*testinfo.Core {
	return []*testinfo.Core{
		{
			Name:        "A",
			Clocks:      []string{"ck"},
			ScanEnables: []string{"se"},
			PIs:         4, POs: 6,
			ScanChains: []testinfo.ScanChain{{Name: "c0", Length: 5, In: "si", Out: "so", Clock: "ck"}},
			Patterns:   []testinfo.PatternSet{{Name: "s", Type: testinfo.Scan, Count: 2, Seed: 1}},
		},
		{
			Name:   "B",
			Clocks: []string{"ck"},
			PIs:    6, POs: 3,
			Patterns: []testinfo.PatternSet{{Name: "f", Type: testinfo.Functional, Count: 2, Seed: 2}},
		},
	}
}

func extestWires() []Interconnect {
	return []Interconnect{
		{FromCore: "A", FromPO: 1, ToCore: "B", ToPI: 0},
		{FromCore: "A", FromPO: 4, ToCore: "B", ToPI: 5},
		{FromCore: "B", FromPO: 2, ToCore: "A", ToPI: 3},
	}
}

func TestBuildExtestGeometry(t *testing.T) {
	lane, err := BuildExtest(extestCores(), extestWires(), map[string]int{"A": 2}, wrapper.LPT)
	if err != nil {
		t.Fatal(err)
	}
	// A at width 2 (2 chains), B at default width 1: wires 0..1 for A,
	// wire 2 for B.
	if lane.Wires2 != 3 {
		t.Fatalf("total wires = %d, want 3", lane.Wires2)
	}
	if lane.Cores[0].WireLo != 0 || lane.Cores[1].WireLo != 2 {
		t.Fatalf("wire ranges: %d, %d", lane.Cores[0].WireLo, lane.Cores[1].WireLo)
	}
	// 3 wires -> 2*ceil(log2(5)) = 6 vectors.
	if lane.Vectors != 6 {
		t.Fatalf("vectors = %d", lane.Vectors)
	}
	if lane.Cycles != (lane.MaxLen+1)*lane.Vectors+lane.MaxLen {
		t.Fatalf("cycle formula broken: %d", lane.Cycles)
	}
}

func TestExtestImagesShape(t *testing.T) {
	lane, err := BuildExtest(extestCores(), extestWires(), nil, wrapper.LPT)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < lane.Vectors; v++ {
		load, expect := lane.extestImages(v)
		for i, cl := range lane.Cores {
			for ci, ch := range cl.Plan.Chains {
				if len(load[i][ci]) != ch.Length() ||
					len(expect[i][ci]) != ch.Length() {
					t.Fatalf("vector %d: image length mismatch on %s", v, cl.Core.Name)
				}
			}
		}
		// Every wire's drive appears in exactly one source load position
		// and one sink expect position.
		for wi := range lane.Wires {
			b := FromBool(lane.ExtestDrive(wi, v))
			w := lane.Wires[wi]
			foundDrive, foundExpect := false, false
			for i, cl := range lane.Cores {
				if cl.Core.Name == w.FromCore {
					for _, img := range load[i] {
						for _, bit := range img {
							if bit == b {
								foundDrive = true
							}
						}
					}
				}
				if cl.Core.Name == w.ToCore {
					for _, img := range expect[i] {
						for _, bit := range img {
							if bit == b {
								foundExpect = true
							}
						}
					}
				}
			}
			if !foundDrive || !foundExpect {
				t.Fatalf("vector %d wire %d: drive/expect not placed", v, wi)
			}
		}
	}
}

func TestStreamExtestCycleCount(t *testing.T) {
	lane, err := BuildExtest(extestCores(), extestWires(), nil, wrapper.LPT)
	if err != nil {
		t.Fatal(err)
	}
	prog := &Program{TamWidth: lane.Wires2, FuncBus: 1}
	prog.Sessions = append(prog.Sessions, SessionLayout{Index: 0, Cycles: lane.Cycles})
	if err := prog.AttachExtest(0, lane); err != nil {
		t.Fatal(err)
	}
	n, captures := 0, 0
	err = prog.Stream(prog.Sessions[0], func(c int, cyc *Cycle) bool {
		n++
		if cyc.Actions[0] == ActCapture { // lane 0 is core A
			captures++
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != lane.Cycles {
		t.Fatalf("streamed %d cycles, want %d", n, lane.Cycles)
	}
	if captures != lane.Vectors {
		t.Fatalf("captures = %d, want %d", captures, lane.Vectors)
	}
}

func TestAttachExtestErrors(t *testing.T) {
	lane, err := BuildExtest(extestCores(), extestWires(), nil, wrapper.LPT)
	if err != nil {
		t.Fatal(err)
	}
	prog := &Program{TamWidth: 1, FuncBus: 1}
	if err := prog.AttachExtest(0, lane); err == nil {
		t.Fatal("out-of-range session accepted")
	}
	prog.Sessions = append(prog.Sessions, SessionLayout{Index: 0, Cycles: lane.Cycles + 1})
	if err := prog.AttachExtest(0, lane); err == nil {
		t.Fatal("cycle mismatch accepted")
	}
}

func TestProgramFileInPackage(t *testing.T) {
	core := extestCores()[0]
	src, err := NewATPG(core)
	if err != nil {
		t.Fatal(err)
	}
	// Minimal single-scan-lane program built by hand.
	plan, err := wrapper.DesignChains(core, 1, wrapper.LPT)
	if err != nil {
		t.Fatal(err)
	}
	lane := ScanLane{Core: core, Source: src, Plan: plan,
		Cycles: plan.ScanTestCycles(src.ScanCount())}
	prog := &Program{TamWidth: 1, FuncBus: 2, Sessions: []SessionLayout{
		{Index: 0, Cycles: lane.Cycles, Scan: []ScanLane{lane}},
	}}
	var buf bytes.Buffer
	if err := WriteProgramFile(&buf, prog); err != nil {
		t.Fatal(err)
	}
	rec, err := ReadProgramFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rec.TotalCycles() != lane.Cycles || rec.TamWidth != 1 || rec.FuncBus != 2 {
		t.Fatalf("recorded program = %+v", rec)
	}
}
