package ate

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"steac/internal/pattern"
	"steac/internal/sched"
	"steac/internal/testinfo"
	"steac/internal/wrapper"
)

// miniPrograms returns the mini chip's programs under every scheduler,
// plus the EXTEST one.
func miniPrograms(t *testing.T) map[string]*pattern.Program {
	t.Helper()
	session, _, _ := buildProgram(t, miniRes(), sessionBased)
	serial, _, _ := buildProgram(t, miniRes(), sched.Serial)
	nonsession, _, _ := buildProgram(t, miniRes(), sched.NonSessionBased)
	extest, _, _ := extestProgram(t)
	return map[string]*pattern.Program{
		"session": session, "serial": serial, "nonsession": nonsession, "extest": extest,
	}
}

// Replaying a written tester file must give exactly the Result of
// streaming the program — cycles, mismatches, first mismatch and
// failing-test attribution — on the healthy chip and on every defect.
func TestRunRecordedMatchesRun(t *testing.T) {
	for name, prog := range miniPrograms(t) {
		var buf bytes.Buffer
		if err := pattern.WriteProgramFile(&buf, prog); err != nil {
			t.Fatal(err)
		}
		rec, err := pattern.ReadProgramFile(&buf)
		if err != nil {
			t.Fatal(err)
		}
		variants, opts := defectVariants(prog, miniCores())
		for i, v := range variants {
			want, err := Run(prog, NewChip(prog, miniCores(), opts[i]...))
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunRecorded(prog, rec, NewChip(prog, miniCores(), opts[i]...))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: replay %+v, stream %+v", name, v, got, want)
			}
		}
	}
}

// A tester file naming a core the chip's session has no lane for is
// refused, not silently idled.
func TestRunRecordedUnknownLane(t *testing.T) {
	prog, _, _ := buildProgram(t, miniRes(), sessionBased)
	var buf bytes.Buffer
	if err := pattern.WriteProgramFile(&buf, prog); err != nil {
		t.Fatal(err)
	}
	rec, err := pattern.ReadProgramFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rec.Sessions {
		for k := range rec.Sessions[i].Lanes {
			rec.Sessions[i].Lanes[k] = "NOPE"
		}
	}
	if _, err := RunRecorded(prog, rec, NewChip(prog, miniCores())); err == nil {
		t.Fatal("unknown lane name accepted")
	}
}

// scalarCompare is the per-pin reference for tester.compare: every pin's
// expectation checked on its own with Bit.Matches.
func scalarCompare(t *tester, c int, cyc *pattern.Cycle, tamOut, funcOut []uint64) {
	t.c = c
	for w := 0; w < cyc.TamExpect.Len(); w++ {
		if !cyc.TamExpect.At(w).Matches(bitAt(tamOut, w)) {
			t.tamMismatch(w)
		}
	}
	for s := 0; s < cyc.FuncExpect.Len(); s++ {
		if !cyc.FuncExpect.At(s).Matches(bitAt(funcOut, s)) {
			t.funcMismatch(s)
		}
	}
}

func bitAt(words []uint64, i int) bool { return words[i>>6]>>(i&63)&1 == 1 }

// randomBus fills an n-pin bus with random 0/1/X pins, through Set or
// (for runs of pins) SetBits, so both writers feed the compare.
func randomBus(r *rand.Rand, n int) pattern.Bus {
	b := pattern.NewBus(n)
	for i := 0; i < n; {
		if k := r.Intn(70) + 1; r.Intn(3) == 0 && i+k <= n {
			src := []uint64{r.Uint64(), r.Uint64(), r.Uint64()}
			off := r.Intn(64)
			b.SetBits(i, src, off, k)
			i += k
			continue
		}
		b.Set(i, pattern.Bit(r.Intn(3)))
		i++
	}
	return b
}

// compareLayout owns every pin for the first half of a session: TAM wires
// by three scan lanes, functional slots by two lanes.
func compareLayout(tam, fn int) *pattern.SessionLayout {
	l := &pattern.SessionLayout{}
	for i, lo := 0, 0; lo < tam; i++ {
		w := min(tam-lo, tam/3+1)
		l.Scan = append(l.Scan, pattern.ScanLane{
			Core:   &testinfo.Core{Name: fmt.Sprintf("S%d", i)},
			Plan:   wrapper.Plan{Chains: make([]wrapper.Chain, w)},
			WireLo: lo, Cycles: 50,
		})
		lo += w
	}
	for i, lo := 0, 0; lo < fn; i++ {
		s := min(fn-lo, fn/2+1)
		l.Func = append(l.Func, pattern.FuncLane{
			Core: &testinfo.Core{Name: fmt.Sprintf("F%d", i)}, SlotLo: lo, Slots: s, Cycles: 50,
		})
		lo += s
	}
	return l
}

// Property: the packed word compare reports exactly the scalar per-pin
// compare's mismatch set — same pins in the same order, so the same first
// mismatch, count and failing tests — on random value, care and observed
// words, for bus widths on and off the 64-pin word boundary.
func TestPackedCompareMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, tam := range []int{1, 63, 64, 65, 200, 300} {
		for _, fn := range []int{1, 63, 64, 65, 200, 300} {
			layout := compareLayout(tam, fn)
			packed, scalar := newTester(nil), newTester(nil)
			packed.setLayout(0, layout)
			scalar.setLayout(0, layout)
			for c := 0; c < 100; c++ {
				cyc := &pattern.Cycle{TamExpect: randomBus(r, tam), FuncExpect: randomBus(r, fn)}
				tamOut := make([]uint64, pattern.Words(tam))
				funcOut := make([]uint64, pattern.Words(fn))
				for i := range tamOut {
					tamOut[i] = r.Uint64() // bits past the width too
				}
				for i := range funcOut {
					funcOut[i] = r.Uint64()
				}
				if c%10 == 0 {
					// Mostly-matching cycles: observe the expected values.
					copy(tamOut, cyc.TamExpect.Val)
					copy(funcOut, cyc.FuncExpect.Val)
				}
				var got, want []int
				cyc.TamExpect.Mismatches(tamOut, func(p int) { got = append(got, p) })
				for p := 0; p < tam; p++ {
					if !cyc.TamExpect.At(p).Matches(bitAt(tamOut, p)) {
						want = append(want, p)
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("tam %d cycle %d: packed %v, scalar %v", tam, c, got, want)
				}
				packed.compare(c, cyc, tamOut, funcOut)
				scalarCompare(scalar, c, cyc, tamOut, funcOut)
			}
			if p, s := packed.result(), scalar.result(); !reflect.DeepEqual(p, s) {
				t.Fatalf("tam %d func %d: packed %+v, scalar %+v", tam, fn, p, s)
			}
		}
	}
}

// cloneCycle deep-copies a streamed cycle (Stream reuses its Cycle).
func cloneCycle(c *pattern.Cycle) pattern.Cycle {
	cp := func(b pattern.Bus) pattern.Bus {
		n := pattern.NewBus(b.Len())
		copy(n.Val, b.Val)
		copy(n.Care, b.Care)
		return n
	}
	return pattern.Cycle{
		TamIn: cp(c.TamIn), TamExpect: cp(c.TamExpect),
		Func: cp(c.Func), FuncExpect: cp(c.FuncExpect),
		Actions: slices.Clone(c.Actions),
	}
}

// Chip.Step allocates nothing: not on shifts, captures, functional
// windows or EXTEST captures.
func TestStepAllocatesNothing(t *testing.T) {
	for name, prog := range miniPrograms(t) {
		for si, layout := range prog.Sessions {
			var cycles []pattern.Cycle
			if err := prog.Stream(layout, func(c int, cyc *pattern.Cycle) bool {
				cycles = append(cycles, cloneCycle(cyc))
				return true
			}); err != nil {
				t.Fatal(err)
			}
			chip := NewChip(prog, miniCores())
			if err := chip.StartSession(si); err != nil {
				t.Fatal(err)
			}
			i := 0
			allocs := testing.AllocsPerRun(len(cycles), func() {
				chip.Step(&cycles[i%len(cycles)])
				i++
			})
			if allocs != 0 {
				t.Errorf("%s session %d: Step allocates %.2f per call", name, si, allocs)
			}
		}
	}
}

// Allocation in Run does not grow with the cycle count: doubling a
// session's BIST-only padding leaves it unchanged.
func TestRunAllocsIndependentOfCycles(t *testing.T) {
	prog, _, _ := buildProgram(t, miniRes(), sessionBased)
	padded := func(pad int) *pattern.Program {
		p := *prog
		p.Sessions = slices.Clone(prog.Sessions)
		p.Sessions[0].Cycles += pad
		return &p
	}
	allocs := func(p *pattern.Program) float64 {
		return testing.AllocsPerRun(5, func() {
			r, err := Run(p, NewChip(p, miniCores()))
			if err != nil || !r.Pass {
				t.Fatalf("padded run: %v %+v", err, r)
			}
		})
	}
	a1, a2 := allocs(padded(5000)), allocs(padded(10000))
	if a1 != a2 {
		t.Fatalf("Run allocates %.0f with 5000 padding cycles, %.0f with 10000", a1, a2)
	}
}
