// Package ate models the external tester and the device under test at the
// cycle level.  The Chip type is a behavioural model of the DFT-inserted
// SOC: wrapped cores (wrapper chains, capture logic), the TAM routing of
// the active session, the functional-test pin multiplexing, and the
// on-chip BIST occupancy.  Run applies a translated chip-level program
// (package pattern) to the chip, compares every expected value, and counts
// tester cycles — the quantity the paper reports as test time.
//
// Because the chip model and the ATPG substitute share the same core
// models, a correct scheduler + wrapper + translator pipeline produces zero
// mismatches; any injected defect (perturbed core logic, stuck TAM wire) or
// any translation bug produces nonzero mismatches.  That is the end-to-end
// verification of the Fig. 1 flow.
package ate

import (
	"fmt"

	"steac/internal/pattern"
	"steac/internal/testinfo"
)

// Option configures defect injection on the chip model.
type Option func(*Chip)

// WithCoreDefect perturbs the named core's logic (a manufacturing defect in
// the core): captures and functional responses diverge from the ATPG's
// expectations.
func WithCoreDefect(core string) Option {
	return func(c *Chip) { c.defectCore[core] = true }
}

// WithStuckTamWire forces chip TAM output wire w to 0.
func WithStuckTamWire(w int) Option {
	return func(c *Chip) { c.stuckWire = w }
}

// WithOpenInterconnect breaks glue wire i (the sink input floats low).
func WithOpenInterconnect(i int) Option {
	return func(c *Chip) { c.openWires[i] = true }
}

// WithBridgedInterconnects shorts glue wires i and j (wired-AND bridge:
// both sinks see the AND of the two drivers).
func WithBridgedInterconnects(i, j int) Option {
	return func(c *Chip) { c.bridges = append(c.bridges, [2]int{i, j}) }
}

// Chip is the behavioural DFT-inserted SOC.
type Chip struct {
	prog   *pattern.Program
	models map[string]*pattern.CoreModel

	defectCore map[string]bool
	stuckWire  int
	openWires  map[int]bool
	bridges    [][2]int

	layout      pattern.SessionLayout
	scan        []chipScanLane // indexed like Cycle.Actions
	funcLanes   []chipFuncLane
	extest      *chipExtest
	cycleInSess int

	// tamOut and funcOut are Step's packed outputs, owned by the chip.
	tamOut, funcOut []uint64
}

// chipScanLane is one wrapped core's wrapper chains and capture scratch,
// set up once per session.
type chipScanLane struct {
	lane   pattern.ScanLane
	wireLo int
	// chains[i][j] is wrapper chain i's cell j (0 = nearest TAM-in).
	chains [][]bool
	model  *pattern.CoreModel
	// chainOff[i] is core scan chain i's offset in the model's state.
	chainOff []int
	// Capture scratch: the core PI and state images and the model's
	// next-state and PO results.
	pi, state, next, po []bool
}

type chipFuncLane struct {
	lane    pattern.FuncLane
	model   *pattern.CoreModel
	machine uint64
	// inBuf and poLatch hold the PI window and the latched POs, packed.
	inBuf   []uint64
	poLatch []uint64
	latched bool
}

// chipExtest is the EXTEST session's interconnect wiring, resolved to
// wrapper cells once per session.
type chipExtest struct {
	// src[i] is interconnect i's driving out-cell; sinks lists every
	// sink in-cell with the interconnect it captures (-1: none, quiet 0).
	src   []cellRef
	sinks []sinkRef
	// outs lists the out-cells, which capture the idle core side (0).
	outs   []cellRef
	driven []bool
}

// cellRef addresses a wrapper cell: lane (-1 = no such cell, reads 0),
// chain and position.
type cellRef struct{ lane, chain, pos int }

type sinkRef struct {
	cellRef
	wire int
}

// NewChip builds the chip for a translated program.  Core models are
// derived from the cores' test information, exactly like the ATPG's.
func NewChip(prog *pattern.Program, cores []*testinfo.Core, opts ...Option) *Chip {
	c := &Chip{
		prog:       prog,
		models:     make(map[string]*pattern.CoreModel),
		defectCore: make(map[string]bool),
		stuckWire:  -1,
		openWires:  make(map[int]bool),
		tamOut:     make([]uint64, pattern.Words(prog.TamWidth)),
		funcOut:    make([]uint64, pattern.Words(prog.FuncBus)),
	}
	for _, core := range cores {
		c.models[core.Name] = pattern.NewCoreModel(core)
	}
	for _, o := range opts {
		o(c)
	}
	// A defective core's logic differs: rebuild its model with a
	// perturbed seed.
	for name := range c.defectCore {
		if m, ok := c.models[name]; ok {
			bad := *m
			bad.Seed ^= 0xDEADBEEF
			c.models[name] = &bad
		}
	}
	return c
}

// StartSession configures the chip for session i (the controller decodes
// the session select and re-routes the TAM; wrapper chains reset to 0).
// Everything a cycle needs is laid out here, so Step allocates nothing.
func (c *Chip) StartSession(i int) error {
	if i < 0 || i >= len(c.prog.Sessions) {
		return fmt.Errorf("ate: session %d of %d", i, len(c.prog.Sessions))
	}
	c.layout = c.prog.Sessions[i]
	c.cycleInSess = 0
	c.scan = c.scan[:0]
	for _, lane := range c.layout.Scan {
		c.scan = append(c.scan, c.newScanLane(lane, lane.WireLo))
	}
	c.extest = nil
	if ex := c.layout.Extest; ex != nil {
		for _, cl := range ex.Cores {
			c.scan = append(c.scan, c.newScanLane(pattern.ScanLane{Core: cl.Core, Plan: cl.Plan}, cl.WireLo))
		}
		c.extest = newChipExtest(ex)
	}
	c.funcLanes = c.funcLanes[:0]
	for _, lane := range c.layout.Func {
		model := c.models[lane.Core.Name]
		c.funcLanes = append(c.funcLanes, chipFuncLane{
			lane:    lane,
			model:   model,
			machine: model.FuncReset(),
			inBuf:   make([]uint64, pattern.Words(lane.Core.PIs)),
			poLatch: make([]uint64, pattern.Words(lane.Core.POs)),
		})
	}
	return nil
}

func (c *Chip) newScanLane(lane pattern.ScanLane, wireLo int) chipScanLane {
	core := lane.Core
	sl := chipScanLane{lane: lane, wireLo: wireLo, chains: make([][]bool, len(lane.Plan.Chains))}
	for ci, ch := range lane.Plan.Chains {
		sl.chains[ci] = make([]bool, ch.Length())
	}
	if model, ok := c.models[core.Name]; ok {
		sl.model = model
		sl.chainOff = make([]int, len(core.ScanChains))
		off := 0
		for i, ch := range core.ScanChains {
			sl.chainOff[i] = off
			off += ch.Length
		}
		sl.pi = make([]bool, core.PIs)
		sl.state = make([]bool, model.StateBits())
		sl.next = make([]bool, model.StateBits())
		sl.po = make([]bool, core.POs)
	}
	return sl
}

// newChipExtest resolves every interconnect to its source out-cell and
// every sink in-cell to the interconnect it captures (the last one listed,
// when several drive the same input).
func newChipExtest(ex *pattern.ExtestLane) *chipExtest {
	lane := make(map[string]int, len(ex.Cores))
	for i, cl := range ex.Cores {
		lane[cl.Core.Name] = i
	}
	x := &chipExtest{driven: make([]bool, len(ex.Wires))}
	sinkWire := make(map[[2]int]int)
	for wi, w := range ex.Wires {
		ref := cellRef{lane: -1}
		if li, ok := lane[w.FromCore]; ok {
			if ci, pos, ok := ex.Cores[li].Cell(false, w.FromPO); ok {
				ref = cellRef{li, ci, pos}
			}
		}
		x.src = append(x.src, ref)
		if li, ok := lane[w.ToCore]; ok {
			sinkWire[[2]int{li, w.ToPI}] = wi
		}
	}
	for li, cl := range ex.Cores {
		piIdx := 0
		for ci, ch := range cl.Plan.Chains {
			pos := 0
			for k := 0; k < ch.InCells; k++ {
				wi, ok := sinkWire[[2]int{li, piIdx}]
				if !ok {
					wi = -1
				}
				x.sinks = append(x.sinks, sinkRef{cellRef{li, ci, pos}, wi})
				piIdx++
				pos++
			}
			pos += ch.ScanBits() // core segments hold
			for k := 0; k < ch.OutCells; k++ {
				x.outs = append(x.outs, cellRef{li, ci, pos})
				pos++
			}
		}
	}
	return x
}

// Step applies one tester cycle and returns the chip's observed outputs,
// packed like pattern.Bus (pin i in bit i%64 of word i/64).  The slices
// are owned by the chip and valid until the next Step; Step allocates
// nothing.
func (c *Chip) Step(cyc *pattern.Cycle) (tamOut, funcOut []uint64) {
	tamOut, funcOut = c.tamOut, c.funcOut
	clear(tamOut)
	clear(funcOut)

	capture := false
	for i := range c.scan {
		sl := &c.scan[i]
		switch cyc.Actions[i] {
		case pattern.ActShift:
			for ci, chain := range sl.chains {
				if len(chain) == 0 {
					continue
				}
				wire := sl.wireLo + ci
				if chain[len(chain)-1] {
					tamOut[wire>>6] |= 1 << (wire & 63)
				} else {
					tamOut[wire>>6] &^= 1 << (wire & 63)
				}
				copy(chain[1:], chain[:len(chain)-1])
				chain[0] = cyc.TamIn.Level(wire)
			}
		case pattern.ActCapture:
			capture = true
			if c.extest == nil {
				c.capture(sl)
			}
		}
	}
	if capture && c.extest != nil {
		c.extestCapture()
	}

	for i := range c.funcLanes {
		c.funcCycle(&c.funcLanes[i], cyc, funcOut)
	}

	if w := c.stuckWire; w >= 0 && w < c.prog.TamWidth {
		tamOut[w>>6] &^= 1 << (w & 63)
	}
	c.cycleInSess++
	return tamOut, funcOut
}

// capture performs the update+capture cycle of one wrapped core: in-cells
// drive the core PIs, the core logic computes, segments take the next scan
// state, out-cells take the POs, in-cells capture the quiescent chip pins.
func (c *Chip) capture(sl *chipScanLane) {
	core := sl.lane.Core
	piIdx := 0
	for ci, ch := range sl.lane.Plan.Chains {
		cells := sl.chains[ci]
		pos := 0
		for k := 0; k < ch.InCells; k++ {
			sl.pi[piIdx] = cells[pos]
			piIdx++
			pos++
		}
		for _, cci := range ch.CoreChains {
			l := core.ScanChains[cci].Length
			copy(sl.state[sl.chainOff[cci]:sl.chainOff[cci]+l], cells[pos:pos+l])
			pos += l
		}
	}

	sl.model.CaptureInto(sl.state, sl.pi, sl.next, sl.po)

	poIdx := 0
	for ci, ch := range sl.lane.Plan.Chains {
		cells := sl.chains[ci]
		pos := 0
		for k := 0; k < ch.InCells; k++ {
			cells[pos] = false // chip-side functional pins held quiet
			pos++
		}
		for _, cci := range ch.CoreChains {
			l := core.ScanChains[cci].Length
			copy(cells[pos:pos+l], sl.next[sl.chainOff[cci]:sl.chainOff[cci]+l])
			pos += l
		}
		for k := 0; k < ch.OutCells; k++ {
			cells[pos] = sl.po[poIdx]
			poIdx++
			pos++
		}
	}
}

// funcCycle implements the functional-test pin multiplexing: ingest this
// cycle's input slots, step the core machine when the last PI slot of the
// window arrives, and present output slots from the PO latch.  Cycle j of
// a window carries pattern slots j·Slots.., a word at a time.
func (c *Chip) funcCycle(fl *chipFuncLane, cyc *pattern.Cycle, funcOut []uint64) {
	lane := &fl.lane
	local := c.cycleInSess - lane.Start
	if local < 0 || local >= lane.Cycles {
		return
	}
	j := local % lane.CPP
	nPI, nPO := lane.Core.PIs, lane.Core.POs
	lo, hi := j*lane.Slots, (j+1)*lane.Slots
	computes := nPI == 0 && j == 0
	if n := min(hi, nPI) - lo; n > 0 {
		cyc.Func.LevelsTo(fl.inBuf, lo, lane.SlotLo, n)
		computes = lo+n == nPI // the window's last PI slot arrived
	}
	if computes {
		fl.machine = fl.model.FuncStep(fl.machine, fl.inBuf, fl.poLatch)
		fl.latched = true
	}
	if !fl.latched {
		return
	}
	if from := max(lo, nPI); from < hi {
		if n := min(hi, nPI+nPO) - from; n > 0 {
			pattern.CopyBits(funcOut, lane.SlotLo+from-lo, fl.poLatch, from-nPI, n)
		}
	}
}

// extestCapture handles an interconnect-test capture: each sink input
// boundary cell takes the value its glue wire carries (through any
// injected open or bridge defect), core-internal segments hold, and output
// cells capture the quiescent core side.
func (c *Chip) extestCapture() {
	x := c.extest
	// Gather driven values from the source out-cells (the update latches
	// hold the loaded bits after the controller's UPDATE pulse).
	for wi, ref := range x.src {
		x.driven[wi] = c.cell(ref)
		if c.openWires[wi] {
			x.driven[wi] = false
		}
	}
	for _, b := range c.bridges {
		v := x.driven[b[0]] && x.driven[b[1]]
		x.driven[b[0]], x.driven[b[1]] = v, v
	}
	// Sink capture: in-cells take their wire's value (default quiet 0),
	// out-cells capture the idle core side (0); segments hold.
	for _, s := range x.sinks {
		c.scan[s.lane].chains[s.chain][s.pos] = s.wire >= 0 && x.driven[s.wire]
	}
	for _, o := range x.outs {
		c.scan[o.lane].chains[o.chain][o.pos] = false
	}
}

// cell reads a wrapper cell.
func (c *Chip) cell(ref cellRef) bool {
	if ref.lane < 0 {
		return false
	}
	return c.scan[ref.lane].chains[ref.chain][ref.pos]
}

// BISTSatisfied reports whether the current session ran long enough to
// cover its BIST occupancy (the on-chip controller raises MBO once its
// groups finish; the session length must reach that point).
func (c *Chip) BISTSatisfied() bool {
	return c.cycleInSess >= c.layout.BISTCycles
}
