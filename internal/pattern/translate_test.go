package pattern

import (
	"context"
	"testing"

	"steac/internal/sched"
	"steac/internal/testinfo"
	"steac/internal/wrapper"
)

// tinyScheduled builds a one-core schedule small enough to verify the
// translated cycle stream by hand.
func tinyScheduled(t *testing.T) (*testinfo.Core, *sched.Schedule, sched.Resources, *ATPG) {
	t.Helper()
	core := &testinfo.Core{
		Name:        "T",
		Clocks:      []string{"ck"},
		ScanEnables: []string{"se"},
		PIs:         1, POs: 1,
		ScanChains: []testinfo.ScanChain{{Name: "c0", Length: 2, In: "si", Out: "so", Clock: "ck"}},
		Patterns:   []testinfo.PatternSet{{Name: "s", Type: testinfo.Scan, Count: 1, Seed: 3}},
	}
	// Shared control = 1 clock + 1 SE + 4 BIST pins = 6, leaving exactly
	// one TAM wire so the hand analysis below holds.
	res := sched.Resources{TestPins: 8, FuncPins: 4, Partitioner: wrapper.LPT}
	tests, err := sched.BuildTests([]*testinfo.Core{core}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.SessionBasedContext(context.Background(), tests, res)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewATPG(core)
	if err != nil {
		t.Fatal(err)
	}
	return core, s, res, src
}

// TestStreamGolden verifies the translated cycle stream bit for bit against
// the wrapper-chain image computed by hand: the single wrapper chain is
// [in-cell, seg0, seg1, out-cell] (L=4), so the test runs (L+1)·1 + L = 9
// cycles — 4 load shifts, 1 capture, 4 unload shifts.
func TestStreamGolden(t *testing.T) {
	core, s, res, src := tinyScheduled(t)
	prog, err := Translate(s, map[string]Source{"T": src}, res)
	if err != nil {
		t.Fatal(err)
	}
	if prog.TamWidth != 1 {
		t.Fatalf("tam width = %d", prog.TamWidth)
	}
	layout := prog.Sessions[0]
	if layout.Cycles != 9 {
		t.Fatalf("session cycles = %d, want 9", layout.Cycles)
	}
	p, err := src.ScanPattern(0)
	if err != nil {
		t.Fatal(err)
	}
	// Chain content (cell 0 nearest TAM-in): [PI, load0, load1, X];
	// post-capture: [0, next0, next1, PO].
	load := []Bit{FromBool(p.PI[0]), FromBool(p.Load[0][0]), FromBool(p.Load[0][1]), BX}
	post := []Bit{B0, FromBool(p.ExpectUnload[0][0]), FromBool(p.ExpectUnload[0][1]), FromBool(p.ExpectPO[0])}

	type rec struct {
		in, exp Bit
		action  CoreAction
	}
	var got []rec
	err = prog.Stream(layout, func(c int, cyc *Cycle) bool {
		got = append(got, rec{cyc.TamIn.At(0), cyc.TamExpect.At(0), cyc.Actions[0]})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 9 {
		t.Fatalf("streamed %d cycles", len(got))
	}
	// Load shifts drive load[3-k] (deepest cell first); no expectations
	// during the first load (nothing unloads yet).
	for k := 0; k < 4; k++ {
		if got[k].action != ActShift {
			t.Fatalf("cycle %d: action %v", k, got[k].action)
		}
		if got[k].in != load[3-k] {
			t.Fatalf("cycle %d: drive %v, want %v", k, got[k].in, load[3-k])
		}
		if got[k].exp != BX {
			t.Fatalf("cycle %d: unexpected compare %v", k, got[k].exp)
		}
	}
	if got[4].action != ActCapture {
		t.Fatalf("cycle 4: action %v, want capture", got[4].action)
	}
	// Final unload: expect post[3-k] (cell nearest TAM-out first).
	for k := 0; k < 4; k++ {
		c := got[5+k]
		if c.action != ActShift {
			t.Fatalf("unload cycle %d: action %v", k, c.action)
		}
		if c.exp != post[3-k] {
			t.Fatalf("unload cycle %d: expect %v, want %v", k, c.exp, post[3-k])
		}
	}
	_ = core
}

func TestTranslateErrors(t *testing.T) {
	core, s, res, src := tinyScheduled(t)
	// Missing source.
	if _, err := Translate(s, map[string]Source{}, res); err == nil {
		t.Fatal("missing source accepted")
	}
	// Tampered cycle count must be caught.
	bad := *s
	bad.Sessions = append([]sched.Session(nil), s.Sessions...)
	bad.Sessions[0].Placements = append([]sched.Placement(nil), s.Sessions[0].Placements...)
	bad.Sessions[0].Placements[0].Cycles += 5
	if _, err := Translate(&bad, map[string]Source{"T": src}, res); err == nil {
		t.Fatal("tampered scan cycles accepted")
	}
	_ = core
}

func TestTranslateFuncErrors(t *testing.T) {
	core := &testinfo.Core{
		Name:   "F",
		Clocks: []string{"ck"},
		PIs:    4, POs: 2,
		Patterns: []testinfo.PatternSet{{Name: "f", Type: testinfo.Functional, Count: 3, Seed: 1}},
	}
	res := sched.Resources{TestPins: 8, FuncPins: 6, Partitioner: wrapper.LPT}
	tests, err := sched.BuildTests([]*testinfo.Core{core}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.SessionBasedContext(context.Background(), tests, res)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewATPG(core)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Translate(s, map[string]Source{"F": src}, res)
	if err != nil {
		t.Fatal(err)
	}
	// 6 granted pins for need 6 -> 1 cycle per pattern.
	if prog.Sessions[0].Cycles != 3 {
		t.Fatalf("cycles = %d", prog.Sessions[0].Cycles)
	}
	// Zero granted pins must be rejected.
	bad := *s
	bad.Sessions = append([]sched.Session(nil), s.Sessions...)
	bad.Sessions[0].Placements = append([]sched.Placement(nil), s.Sessions[0].Placements...)
	bad.Sessions[0].Placements[0].FuncPins = 0
	if _, err := Translate(&bad, map[string]Source{"F": src}, res); err == nil {
		t.Fatal("zero func pins accepted")
	}
}

func TestAllocatorReuse(t *testing.T) {
	a := newAllocator(4)
	lo1, err := a.alloc(3, 0, 10)
	if err != nil || lo1 != 0 {
		t.Fatalf("first alloc = %d, %v", lo1, err)
	}
	// Overlapping interval: only 1 unit left.
	if _, err := a.alloc(2, 5, 10); err == nil {
		t.Fatal("overlapping oversubscription accepted")
	}
	lo2, err := a.alloc(1, 5, 5)
	if err != nil || lo2 != 3 {
		t.Fatalf("fit in gap = %d, %v", lo2, err)
	}
	// After t=10 everything is free again.
	lo3, err := a.alloc(4, 10, 5)
	if err != nil || lo3 != 0 {
		t.Fatalf("reuse after expiry = %d, %v", lo3, err)
	}
	if _, err := a.alloc(0, 0, 1); err == nil {
		t.Fatal("zero-size alloc accepted")
	}
}
