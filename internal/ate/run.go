package ate

import (
	"fmt"
	"sort"

	"steac/internal/pattern"
)

// Mismatch describes the first failing compare.
type Mismatch struct {
	Session int
	Cycle   int
	Pin     string
}

// Result is the outcome of applying a full chip program.
type Result struct {
	Pass          bool
	Cycles        int
	SessionCycles []int
	Mismatches    int
	First         *Mismatch
	// FailingTests lists the test IDs whose compare windows saw
	// mismatches (sorted, deduplicated) — the ATE-side diagnosis of
	// which core or session failed.
	FailingTests []string
}

// tester applies cycles to a chip and tallies the compares; Run and
// RunRecorded share it, so a replayed tester file and the streamed program
// are judged by one compare.
type tester struct {
	chip    *Chip
	res     Result
	failing map[string]bool
	// Where the cycle being compared sits: session index and layout,
	// session cycle.
	si     int
	layout *pattern.SessionLayout
	c      int
	// The session's test IDs, indexed like layout.Scan and layout.Func.
	scanIDs, funcIDs []string
}

func newTester(chip *Chip) *tester {
	return &tester{chip: chip, res: Result{Pass: true}, failing: make(map[string]bool)}
}

// startSession configures the chip for session si.
func (t *tester) startSession(si int, layout *pattern.SessionLayout) error {
	t.setLayout(si, layout)
	return t.chip.StartSession(si)
}

func (t *tester) setLayout(si int, layout *pattern.SessionLayout) {
	t.si, t.layout = si, layout
	t.scanIDs, t.funcIDs = t.scanIDs[:0], t.funcIDs[:0]
	for _, lane := range layout.Scan {
		t.scanIDs = append(t.scanIDs, lane.Core.Name+".scan")
	}
	for _, lane := range layout.Func {
		t.funcIDs = append(t.funcIDs, lane.Core.Name+".func")
	}
}

// apply applies session cycle c and compares every non-X expectation.
func (t *tester) apply(c int, cyc *pattern.Cycle) {
	tamOut, funcOut := t.chip.Step(cyc)
	t.compare(c, cyc, tamOut, funcOut)
}

// compare checks the chip's outputs against the cycle's expectations a
// 64-pin word at a time; only a failing word is resolved pin by pin, to
// tally the mismatch and find the test that owned the pin.
func (t *tester) compare(c int, cyc *pattern.Cycle, tamOut, funcOut []uint64) {
	t.c = c
	cyc.TamExpect.Mismatches(tamOut, t.tamMismatch)
	cyc.FuncExpect.Mismatches(funcOut, t.funcMismatch)
}

func (t *tester) tamMismatch(w int) {
	t.record("tam_out", w)
	if id, ok := t.wireOwner(w); ok {
		t.failing[id] = true
	}
}

func (t *tester) funcMismatch(s int) {
	t.record("func", s)
	if id, ok := t.slotOwner(s); ok {
		t.failing[id] = true
	}
}

// wireOwner resolves which test owned TAM wire w at the current session
// cycle.  Pins are reused over time (time-disjoint lanes legally share
// wires and slots), so ownership is a (pin, cycle) question, not a pin
// question.
func (t *tester) wireOwner(w int) (string, bool) {
	c := t.c
	for i, lane := range t.layout.Scan {
		if w >= lane.WireLo && w < lane.WireLo+len(lane.Plan.Chains) &&
			c >= lane.Start && c < lane.Start+lane.Cycles {
			return t.scanIDs[i], true
		}
	}
	if ex := t.layout.Extest; ex != nil {
		for _, cl := range ex.Cores {
			if w >= cl.WireLo && w < cl.WireLo+len(cl.Plan.Chains) {
				return "chip.extest", true
			}
		}
	}
	return "", false
}

// slotOwner resolves which test owned functional slot s at the current
// session cycle.
func (t *tester) slotOwner(s int) (string, bool) {
	c := t.c
	for i, lane := range t.layout.Func {
		if s >= lane.SlotLo && s < lane.SlotLo+lane.Slots &&
			c >= lane.Start && c < lane.Start+lane.Cycles {
			return t.funcIDs[i], true
		}
	}
	return "", false
}

// record tallies one mismatch on pin bus[i]; only the first is named.
func (t *tester) record(bus string, i int) {
	t.res.Mismatches++
	if t.res.First == nil {
		t.res.First = &Mismatch{Session: t.si, Cycle: t.c, Pin: fmt.Sprintf("%s[%d]", bus, i)}
	}
}

// endSession checks the session ran to length and covered its BIST.
func (t *tester) endSession(count int) error {
	if !t.chip.BISTSatisfied() {
		return fmt.Errorf("ate: session %d ended before BIST completed", t.si)
	}
	t.res.SessionCycles = append(t.res.SessionCycles, count)
	t.res.Cycles += count
	return nil
}

// result closes the tally.
func (t *tester) result() Result {
	res := t.res
	if res.Mismatches > 0 {
		res.Pass = false
	}
	for id := range t.failing {
		res.FailingTests = append(res.FailingTests, id)
	}
	sort.Strings(res.FailingTests)
	return res
}

// Run applies the translated program to the chip, comparing every non-X
// expectation, and returns the tally.  The cycle count is the ATE's test
// time — the figure the paper's scheduling experiment reports.
func Run(prog *pattern.Program, chip *Chip) (Result, error) {
	t := newTester(chip)
	for si := range prog.Sessions {
		layout := &prog.Sessions[si]
		if err := t.startSession(si, layout); err != nil {
			return t.res, err
		}
		count := 0
		err := prog.Stream(*layout, func(c int, cyc *pattern.Cycle) bool {
			t.apply(c, cyc)
			count++
			return true
		})
		if err != nil {
			return t.res, err
		}
		if count != layout.Cycles {
			return t.res, fmt.Errorf("ate: session %d emitted %d of %d cycles", si, count, layout.Cycles)
		}
		if err := t.endSession(count); err != nil {
			return t.res, err
		}
	}
	return t.result(), nil
}

// RunRecorded applies a tester file (pattern.ReadProgramFile) to the chip.
// The chip's DFT configuration still comes from the translated program —
// the file carries stimulus and expectations only, as on a real ATE.  The
// file names scan lanes by core; each session's names are mapped to the
// chip's lanes once.
func RunRecorded(prog *pattern.Program, rec *pattern.RecordedProgram, chip *Chip) (Result, error) {
	t := newTester(chip)
	if rec.TamWidth != prog.TamWidth || rec.FuncBus != prog.FuncBus {
		return t.res, fmt.Errorf("ate: recorded program geometry %d/%d does not match chip %d/%d",
			rec.TamWidth, rec.FuncBus, prog.TamWidth, prog.FuncBus)
	}
	if len(rec.Sessions) != len(prog.Sessions) {
		return t.res, fmt.Errorf("ate: recorded %d sessions, chip has %d",
			len(rec.Sessions), len(prog.Sessions))
	}
	for si := range rec.Sessions {
		layout := &prog.Sessions[si]
		rs := &rec.Sessions[si]
		names := layout.LaneNames()
		lane := make(map[string]int, len(names))
		for i, n := range names {
			lane[n] = i
		}
		toLane := make([]int, len(rs.Lanes))
		for k, n := range rs.Lanes {
			i, ok := lane[n]
			if !ok {
				return t.res, fmt.Errorf("ate: recorded session %d drives core %s, which has no lane in the chip's session", si, n)
			}
			toLane[k] = i
		}
		if err := t.startSession(si, layout); err != nil {
			return t.res, err
		}
		actions := make([]pattern.CoreAction, len(names))
		for c := range rs.Cycles {
			cyc := rs.Cycles[c].Cycle
			clear(actions)
			for k, a := range cyc.Actions {
				if a != pattern.ActIdle {
					actions[toLane[k]] = a
				}
			}
			cyc.Actions = actions
			t.apply(c, &cyc)
		}
		if err := t.endSession(len(rs.Cycles)); err != nil {
			return t.res, err
		}
	}
	return t.result(), nil
}
