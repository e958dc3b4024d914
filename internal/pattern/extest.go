package pattern

import (
	"fmt"

	"steac/internal/testinfo"
	"steac/internal/wrapper"
)

// EXTEST interconnect testing (the classical IEEE 1500 use of the wrapper
// boundary): the source cores' output boundary cells drive the core-to-core
// glue wiring and the sink cores' input boundary cells capture it, so opens
// and bridges in the SOC-level interconnect are tested without involving
// any core logic.  STEAC schedules it as one extra session in which every
// wrapped core holds a width-1 TAM lane.

// Interconnect is one glue wire from a source core output to a sink core
// input.
type Interconnect struct {
	FromCore string
	FromPO   int
	ToCore   string
	ToPI     int
}

// ExtestCoreLane is one core's share of the EXTEST session.
type ExtestCoreLane struct {
	Core   *testinfo.Core
	Plan   wrapper.Plan
	WireLo int
}

// ExtestLane is the whole EXTEST session configuration.
type ExtestLane struct {
	Cores []ExtestCoreLane
	Wires []Interconnect
	// Wires2 is the total TAM wires the session occupies (sum of the
	// cores' chain counts).
	Wires2  int
	Vectors int
	// MaxLen is the longest wrapper chain across the cores; it paces the
	// common shift phase.
	MaxLen int
	Cycles int
}

// extestVectorBits returns the number of test vectors for n interconnects:
// the modified counting sequence (each wire gets the code i+1, so no wire
// is all-0s or all-1s) plus its complement, which together detect all
// opens (stuck wires) and all pairwise AND/OR bridges.
func extestVectorBits(n int) int {
	bits := 0
	for v := n + 1; v > 0; v >>= 1 {
		bits++
	}
	return bits
}

// ExtestDrive returns the value wire i drives in vector v.
func (l *ExtestLane) ExtestDrive(i, v int) bool {
	half := l.Vectors / 2
	code := i + 1
	if v < half {
		return code&(1<<v) != 0
	}
	return code&(1<<(v-half)) == 0
}

// BuildExtest plans the EXTEST session over the given cores and
// interconnect list.  Each core keeps the wrapper-chain structure of its
// scheduled TAM width (widths, default 1), so the EXTEST patterns shift
// through exactly the chains the inserted wrapper implements; wire ranges
// are assigned in core order.
func BuildExtest(cores []*testinfo.Core, wires []Interconnect, widths map[string]int, part wrapper.Partitioner) (*ExtestLane, error) {
	if len(wires) == 0 {
		return nil, fmt.Errorf("pattern: no interconnects to test")
	}
	byName := make(map[string]*testinfo.Core, len(cores))
	for _, c := range cores {
		byName[c.Name] = c
	}
	lane := &ExtestLane{Wires: wires}
	for wi, w := range wires {
		src, ok := byName[w.FromCore]
		if !ok {
			return nil, fmt.Errorf("pattern: interconnect %d: unknown source core %s", wi, w.FromCore)
		}
		dst, ok := byName[w.ToCore]
		if !ok {
			return nil, fmt.Errorf("pattern: interconnect %d: unknown sink core %s", wi, w.ToCore)
		}
		if w.FromPO < 0 || w.FromPO >= src.POs {
			return nil, fmt.Errorf("pattern: interconnect %d: PO %d out of range for %s", wi, w.FromPO, w.FromCore)
		}
		if w.ToPI < 0 || w.ToPI >= dst.PIs {
			return nil, fmt.Errorf("pattern: interconnect %d: PI %d out of range for %s", wi, w.ToPI, w.ToCore)
		}
	}
	wireLo := 0
	for _, c := range cores {
		w := widths[c.Name]
		if w < 1 {
			w = 1
		}
		plan, err := wrapper.DesignChains(c, w, part)
		if err != nil {
			return nil, err
		}
		if plan.Soft {
			hard := *c
			hard.Soft = false
			if plan, err = wrapper.DesignChains(&hard, w, part); err != nil {
				return nil, err
			}
		}
		lane.Cores = append(lane.Cores, ExtestCoreLane{
			Core: c, Plan: plan, WireLo: wireLo,
		})
		wireLo += len(plan.Chains)
		if l := plan.MaxLength(); l > lane.MaxLen {
			lane.MaxLen = l
		}
	}
	lane.Wires2 = wireLo
	lane.Vectors = 2 * extestVectorBits(len(wires))
	lane.Cycles = (lane.MaxLen+1)*lane.Vectors + lane.MaxLen
	return lane, nil
}

// AttachExtest binds the EXTEST lane to the program session with the given
// index (the session the flow appended to the schedule) and widens the
// program's TAM to carry one wire per core.
func (prog *Program) AttachExtest(sessionIdx int, lane *ExtestLane) error {
	if sessionIdx < 0 || sessionIdx >= len(prog.Sessions) {
		return fmt.Errorf("pattern: extest session %d of %d", sessionIdx, len(prog.Sessions))
	}
	l := &prog.Sessions[sessionIdx]
	if len(l.Scan) > 0 || len(l.Func) > 0 {
		return fmt.Errorf("pattern: extest session %d already carries core tests", sessionIdx)
	}
	if l.Cycles != lane.Cycles {
		return fmt.Errorf("pattern: extest session %d is %d cycles, lane needs %d",
			sessionIdx, l.Cycles, lane.Cycles)
	}
	l.Extest = lane
	if lane.Wires2 > prog.TamWidth {
		prog.TamWidth = lane.Wires2
	}
	return nil
}

// extestImages renders vector v as per-core, per-chain load and expect
// images, indexed like l.Cores.  Load: source out-cells drive their wire's
// bit, everything else is don't-care (padded 0).  Expect: sink in-cells
// must capture the driven bit; everything else is X.
func (l *ExtestLane) extestImages(v int) (load, expect [][][]Bit) {
	lane := make(map[string]int, len(l.Cores))
	load = make([][][]Bit, len(l.Cores))
	expect = make([][][]Bit, len(l.Cores))
	for i, cl := range l.Cores {
		lane[cl.Core.Name] = i
		for _, ch := range cl.Plan.Chains {
			lc, ec := make([]Bit, ch.Length()), make([]Bit, ch.Length())
			for k := range lc {
				lc[k], ec[k] = BX, BX
			}
			load[i] = append(load[i], lc)
			expect[i] = append(expect[i], ec)
		}
	}
	for wi, w := range l.Wires {
		b := FromBool(l.ExtestDrive(wi, v))
		if i, ok := lane[w.FromCore]; ok {
			if ci, pos, ok := l.Cores[i].Cell(false, w.FromPO); ok {
				load[i][ci][pos] = b
			}
		}
		if i, ok := lane[w.ToCore]; ok {
			if ci, pos, ok := l.Cores[i].Cell(true, w.ToPI); ok {
				expect[i][ci][pos] = b
			}
		}
	}
	return load, expect
}

// Cell locates a boundary cell in the core's wrapper chains: inCell
// selects input cell k (the PI index), otherwise output cell k (the PO
// index), walking the sequential cell allocation across the chains.  It
// returns the wrapper chain and the position in it (0 = nearest TAM-in).
func (cl *ExtestCoreLane) Cell(inCell bool, k int) (chain, pos int, ok bool) {
	idx := 0
	for ci, ch := range cl.Plan.Chains {
		n, base := ch.OutCells, ch.InCells+ch.ScanBits()
		if inCell {
			n, base = ch.InCells, 0
		}
		if k < idx+n {
			return ci, base + (k - idx), true
		}
		idx += n
	}
	return 0, 0, false
}

// streamExtest emits the EXTEST session cycles: all cores shift together
// for MaxLen cycles per vector (update+capture on the MaxLen+1-th), then a
// final unload.  *emitted counts the cycles handed to fn.
func (prog *Program) streamExtest(lane *ExtestLane, fn func(c int, cyc *Cycle) bool, emitted *int) error {
	cyc := prog.newCycle(len(lane.Cores))
	L := lane.MaxLen
	period := L + 1
	var curLoad, prevExpect [][][]Bit
	emit := func() bool {
		c := *emitted
		*emitted++
		return fn(c, cyc)
	}
	for v := 0; v < lane.Vectors; v++ {
		load, expect := lane.extestImages(v)
		curLoad = load
		for k := 0; k < period; k++ {
			cyc.reset()
			if k < L {
				for i, cl := range lane.Cores {
					cyc.Actions[i] = ActShift
					for ci, img := range curLoad[i] {
						wire := cl.WireLo + ci
						if idx := L - 1 - k; idx < len(img) {
							cyc.TamIn.Set(wire, img[idx])
						} else {
							cyc.TamIn.Set(wire, B0)
						}
						if prevExpect != nil {
							pimg := prevExpect[i][ci]
							if idx := len(pimg) - 1 - k; idx >= 0 {
								cyc.TamExpect.Set(wire, pimg[idx])
							}
						}
					}
				}
			} else {
				for i := range lane.Cores {
					cyc.Actions[i] = ActCapture
				}
			}
			if !emit() {
				return nil
			}
		}
		prevExpect = expect
	}
	// Final unload.
	for k := 0; k < L; k++ {
		cyc.reset()
		for i, cl := range lane.Cores {
			cyc.Actions[i] = ActShift
			for ci, pimg := range prevExpect[i] {
				wire := cl.WireLo + ci
				cyc.TamIn.Set(wire, B0)
				if idx := len(pimg) - 1 - k; idx >= 0 {
					cyc.TamExpect.Set(wire, pimg[idx])
				}
			}
		}
		if !emit() {
			return nil
		}
	}
	return nil
}
