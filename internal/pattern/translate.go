package pattern

import (
	"fmt"

	"steac/internal/obs"
	"steac/internal/sched"
	"steac/internal/testinfo"
	"steac/internal/wrapper"
)

// Observability.  Stream's per-cycle loop counts locally and publishes one
// total per call — the translator streams millions of cycles and must not
// touch a shared cache line per cycle.
var (
	obsSpanTranslate   = obs.GetSpan("pattern.translate")
	obsSpanStream      = obs.GetSpan("pattern.stream")
	obsTranslations    = obs.GetCounter("pattern.translations")
	obsLanesTranslated = obs.GetCounter("pattern.lanes_translated")
	obsCyclesStreamed  = obs.GetCounter("pattern.cycles_streamed")
)

// CoreAction is the per-core scan control state in one chip cycle (the
// decoded form of the controller's gated SE/capture signals).
type CoreAction byte

// Actions.
const (
	ActIdle CoreAction = iota
	ActShift
	ActCapture
)

// Cycle is one chip-level tester cycle: drive values and expectations on
// the packed TAM and functional buses, and the scan control of every lane.
// Actions is indexed like the session's SessionLayout.LaneNames: by scan
// lane (layout.Scan), or by core lane (layout.Extest.Cores) in an EXTEST
// session.
type Cycle struct {
	TamIn      Bus
	TamExpect  Bus
	Func       Bus
	FuncExpect Bus
	Actions    []CoreAction
}

// newCycle returns an all-X, all-idle cycle for one session of prog.
func (prog *Program) newCycle(lanes int) *Cycle {
	return &Cycle{
		TamIn:      NewBus(prog.TamWidth),
		TamExpect:  NewBus(prog.TamWidth),
		Func:       NewBus(prog.FuncBus),
		FuncExpect: NewBus(prog.FuncBus),
		Actions:    make([]CoreAction, lanes),
	}
}

// reset returns the cycle to all-X, all-idle.
func (cyc *Cycle) reset() {
	cyc.TamIn.Clear()
	cyc.TamExpect.Clear()
	cyc.Func.Clear()
	cyc.FuncExpect.Clear()
	clear(cyc.Actions)
}

// ScanLane is one wrapped scan core's share of a session: its wrapper-chain
// plan and its TAM wire range.
type ScanLane struct {
	Core   *testinfo.Core
	Source Source
	Plan   wrapper.Plan
	WireLo int
	// Start is the lane's offset from the session origin (nonzero in
	// packed non-session schedules).
	Start int
	// Cycles is (L+1)·p + L for this lane.
	Cycles int
}

// FuncLane is one functional test's share of a session: its slot range on
// the functional pin bus and its start offset (after the same core's scan).
type FuncLane struct {
	Core   *testinfo.Core
	Source Source
	SlotLo int
	Slots  int
	Start  int
	CPP    int
	// Cycles is patterns·CPP.
	Cycles int
}

// SessionLayout is the physical configuration of one test session: it is
// shared verbatim between the pattern translator and the chip model (it is
// what the inserted DFT hardware implements).
type SessionLayout struct {
	Index  int
	Cycles int
	Scan   []ScanLane
	Func   []FuncLane
	// BISTCycles is the serial BIST occupancy padded into this session.
	BISTCycles int
	// Extest, when set, makes this an interconnect-test session (no scan
	// or functional lanes).
	Extest *ExtestLane
}

// LaneNames names the session's lanes in Cycle.Actions order: the scan
// lanes' cores, or the EXTEST session's cores.
func (l *SessionLayout) LaneNames() []string {
	var names []string
	if l.Extest != nil {
		for _, cl := range l.Extest.Cores {
			names = append(names, cl.Core.Name)
		}
		return names
	}
	for _, lane := range l.Scan {
		names = append(names, lane.Core.Name)
	}
	return names
}

// Program is the chip-level test program for a whole schedule.
type Program struct {
	TamWidth int
	FuncBus  int
	Sessions []SessionLayout
}

// TotalCycles sums the session lengths.
func (p *Program) TotalCycles() int {
	total := 0
	for _, s := range p.Sessions {
		total += s.Cycles
	}
	return total
}

// Translate lifts a schedule to the chip level: it assigns TAM wires and
// functional-bus slots to every placement and returns the program, whose
// cycle stream the ATE applies.  This is Fig. 1's "Wrapper Pattern
// Translation" + "System Pattern Translation" combined: core patterns are
// re-expressed as wrapper-chain load/unload streams and mapped onto chip
// pins.
func Translate(s *sched.Schedule, sources map[string]Source, res sched.Resources) (*Program, error) {
	tm := obsSpanTranslate.Start()
	defer tm.Stop()
	prog := &Program{FuncBus: res.FuncPins}
	for _, sess := range s.Sessions {
		layout := SessionLayout{Index: sess.Index, Cycles: sess.Cycles}
		// Pins are reused over time: placements that do not overlap may
		// share TAM wires and functional slots (the non-session packer
		// relies on this; within a session placements mostly overlap).
		wires := newAllocator((res.TestPins) / 2)
		slots := newAllocator(res.FuncPins)
		maxWire := 0
		for _, pl := range sess.Placements {
			switch pl.Test.Kind {
			case sched.ScanKind:
				src, ok := sources[pl.Test.Core.Name]
				if !ok {
					return nil, fmt.Errorf("pattern: no ATPG source for %s", pl.Test.Core.Name)
				}
				plan, err := wrapper.DesignChains(pl.Test.Core, pl.Width, res.Partitioner)
				if err != nil {
					return nil, err
				}
				if got := plan.ScanTestCycles(src.ScanCount()); got != pl.Cycles {
					return nil, fmt.Errorf("pattern: %s scan plan %d cycles vs scheduled %d",
						pl.Test.ID, got, pl.Cycles)
				}
				lo, err := wires.alloc(pl.Width, pl.Start, pl.Cycles)
				if err != nil {
					return nil, fmt.Errorf("pattern: %s: %w", pl.Test.ID, err)
				}
				layout.Scan = append(layout.Scan, ScanLane{
					Core: pl.Test.Core, Source: src, Plan: plan,
					WireLo: lo, Start: pl.Start, Cycles: pl.Cycles,
				})
				if lo+pl.Width > maxWire {
					maxWire = lo + pl.Width
				}
			case sched.FuncKind:
				src, ok := sources[pl.Test.Core.Name]
				if !ok {
					return nil, fmt.Errorf("pattern: no ATPG source for %s", pl.Test.Core.Name)
				}
				if pl.FuncPins <= 0 {
					return nil, fmt.Errorf("pattern: %s granted no functional pins", pl.Test.ID)
				}
				need := pl.Test.NeedFuncPins
				cpp := (need + pl.FuncPins - 1) / pl.FuncPins
				if got := src.FuncCount() * cpp; got != pl.Cycles {
					return nil, fmt.Errorf("pattern: %s functional %d cycles vs scheduled %d",
						pl.Test.ID, got, pl.Cycles)
				}
				lo, err := slots.alloc(pl.FuncPins, pl.Start, pl.Cycles)
				if err != nil {
					return nil, fmt.Errorf("pattern: %s: %w", pl.Test.ID, err)
				}
				layout.Func = append(layout.Func, FuncLane{
					Core: pl.Test.Core, Source: src,
					SlotLo: lo, Slots: pl.FuncPins, Start: pl.Start,
					CPP: cpp, Cycles: pl.Cycles,
				})
			case sched.BISTKind:
				if end := pl.End(); end > layout.BISTCycles {
					layout.BISTCycles = end
				}
			case sched.ExtestKind:
				// Attached after translation via AttachExtest.
			}
		}
		if maxWire > prog.TamWidth {
			prog.TamWidth = maxWire
		}
		prog.Sessions = append(prog.Sessions, layout)
		obsLanesTranslated.Add(int64(len(layout.Scan) + len(layout.Func)))
	}
	obsTranslations.Add(1)
	return prog, nil
}

// allocator hands out contiguous pin/slot ranges with time-based reuse.
type allocator struct {
	size int
	busy []struct{ lo, n, start, end int }
}

func newAllocator(size int) *allocator { return &allocator{size: size} }

// alloc reserves n contiguous units for [start, start+dur): two
// reservations may share units only when their time windows are disjoint.
// Requests arrive in placement order, which is NOT start order (a schedule
// lists a core's late functional test before another core's early one), so
// expired-looking reservations must stay on the books — dropping them when
// a later-starting request arrives would hand their units to an
// earlier-starting request that does overlap them.
func (a *allocator) alloc(n, start, dur int) (int, error) {
	if n <= 0 {
		return 0, fmt.Errorf("pattern: allocation of %d units", n)
	}
	end := start + dur
	for lo := 0; lo+n <= a.size; lo++ {
		free := true
		for _, b := range a.busy {
			if lo < b.lo+b.n && b.lo < lo+n && start < b.end && b.start < end {
				free = false
				lo = b.lo + b.n - 1 // skip past this reservation
				break
			}
		}
		if free {
			a.busy = append(a.busy, struct{ lo, n, start, end int }{lo, n, start, end})
			return lo, nil
		}
	}
	return 0, fmt.Errorf("pattern: no %d contiguous units free of %d", n, a.size)
}

// laneState is the translator's per-scan-lane streaming state.  The
// lane's shape is fixed per session, and each scan pattern is generated
// once: pattern t's expect image is what unloads while pattern t+1 loads,
// and the last one is the final unload.
type laneState struct {
	lane *ScanLane
	// L is the longest wrapper chain, p the pattern count, period = L+1
	// the cycles per pattern (L shifts and a capture).
	L, p, period int
	// load is the current pattern's load image per chain (what we are
	// shifting in); expect[t&1] is pattern t's post-capture image.
	load   [][]Bit
	expect [2][][]Bit
	// unload is the previous pattern's expect image (what the chip holds
	// and shifts out); nil before pattern 0 has been captured.
	unload [][]Bit
}

func newLaneState(lane *ScanLane) *laneState {
	L := lane.Plan.MaxLength()
	ls := &laneState{lane: lane, L: L, p: lane.Source.ScanCount(), period: L + 1}
	ls.load = chainBuffers(lane)
	ls.expect[0] = chainBuffers(lane)
	ls.expect[1] = chainBuffers(lane)
	return ls
}

// chainBuffers allocates one image per wrapper chain of the lane: its
// boundary cells and the core scan chains it carries (a soft core's
// synthetic segments carry no pattern data and have no image).
func chainBuffers(lane *ScanLane) [][]Bit {
	bufs := make([][]Bit, len(lane.Plan.Chains))
	for ci, ch := range lane.Plan.Chains {
		n := ch.InCells + ch.OutCells
		for _, cc := range ch.CoreChains {
			n += lane.Core.ScanChains[cc].Length
		}
		bufs[ci] = make([]Bit, n)
	}
	return bufs
}

// ChainImages renders a scan pattern as per-wrapper-chain load and expect
// vectors (index 0 = cell nearest the chip's TAM-in pin), exactly as the
// translator streams them.  Gate-level cross-checkers use it to drive a
// flattened wrapper with the same images the ATE applies.
//
// Load image: in-cells carry the PI stimulus (allocated sequentially
// across chains, matching wrapper.Generate), segments carry the chain load
// data, out-cells are don't-care.  Expect image: the post-capture content
// — the in-cells captured the quiescent chip-side pins (0), segments hold
// the expected next state, out-cells hold the expected POs.
func ChainImages(lane ScanLane, p ScanPattern) (load, expect [][]Bit) {
	load, expect = chainBuffers(&lane), chainBuffers(&lane)
	chainImagesInto(&lane, p, load, expect)
	return load, expect
}

// chainImagesInto is ChainImages writing into buffers from chainBuffers.
func chainImagesInto(lane *ScanLane, p ScanPattern, load, expect [][]Bit) {
	piIdx, poIdx := 0, 0
	for ci, ch := range lane.Plan.Chains {
		li, ei := load[ci], expect[ci]
		pos := 0
		for k := 0; k < ch.InCells; k++ {
			li[pos] = FromBool(p.PI[piIdx])
			ei[pos] = B0 // captured chip-side quiescent level
			piIdx++
			pos++
		}
		for _, cc := range ch.CoreChains {
			for k, v := range p.Load[cc] {
				li[pos] = FromBool(v)
				ei[pos] = FromBool(p.ExpectUnload[cc][k])
				pos++
			}
		}
		for k := 0; k < ch.OutCells; k++ {
			li[pos] = BX
			ei[pos] = FromBool(p.ExpectPO[poIdx])
			poIdx++
			pos++
		}
	}
}

// funcState streams a functional lane pattern by pattern (pull-based, no
// materialization: the source's own iterator supplies the sequence).  The
// current pattern is held packed, so a cycle's slots are written a word
// at a time.
type funcState struct {
	lane    *FuncLane
	next    func(pi, po []uint64) bool
	curIdx  int
	haveCur bool
	pi, po  []uint64
}

func newFuncState(lane *FuncLane) *funcState {
	return &funcState{
		lane:   lane,
		next:   packedFuncStream(lane.Source),
		curIdx: -1,
		pi:     make([]uint64, Words(lane.Core.PIs)),
		po:     make([]uint64, Words(lane.Core.POs)),
	}
}

// advance pulls the next functional pattern in sequence.
func (fs *funcState) advance() bool {
	fs.haveCur = fs.next(fs.pi, fs.po)
	return fs.haveCur
}

// Stream generates the chip-level cycle sequence of one session, calling fn
// for every cycle; fn returning false aborts.  The emitted cycle count
// always equals layout.Cycles: lanes that finish early idle, and BIST-only
// padding idles everything (the on-chip BIST keeps running during those
// cycles).  The Cycle passed to fn is reused: it is valid only until fn
// returns.
func (prog *Program) Stream(layout SessionLayout, fn func(c int, cyc *Cycle) bool) error {
	tm := obsSpanStream.Start()
	defer tm.Stop()
	emitted := 0
	defer func() { obsCyclesStreamed.Add(int64(emitted)) }()
	if layout.Extest != nil {
		return prog.streamExtest(layout.Extest, fn, &emitted)
	}
	lanes := make([]*laneState, len(layout.Scan))
	for i := range layout.Scan {
		lanes[i] = newLaneState(&layout.Scan[i])
	}
	funcs := make([]*funcState, len(layout.Func))
	for i := range layout.Func {
		funcs[i] = newFuncState(&layout.Func[i])
	}

	cyc := prog.newCycle(len(lanes))
	for c := 0; c < layout.Cycles; c++ {
		cyc.reset()
		for i, ls := range lanes {
			if err := ls.emit(c, i, cyc); err != nil {
				return err
			}
		}
		for _, fs := range funcs {
			fs.emit(c, cyc)
		}
		emitted++
		if !fn(c, cyc) {
			return nil
		}
	}
	return nil
}

// emit writes lane i's drive, expectations and action for session cycle
// cycleIdx.
func (ls *laneState) emit(cycleIdx, i int, cyc *Cycle) error {
	lane := ls.lane
	c := cycleIdx - lane.Start
	if c < 0 || c >= lane.Cycles || ls.p == 0 {
		return nil
	}
	L := ls.L
	if c < ls.period*ls.p {
		t, k := c/ls.period, c%ls.period
		if k == 0 {
			// Entering pattern t: render its images once.  Pattern t-1's
			// expect image is what unloads now.
			sp, err := lane.Source.ScanPattern(t)
			if err != nil {
				return err
			}
			chainImagesInto(lane, sp, ls.load, ls.expect[t&1])
			if t > 0 {
				ls.unload = ls.expect[(t-1)&1]
			}
		}
		if k == L {
			cyc.Actions[i] = ActCapture
			return nil
		}
		cyc.Actions[i] = ActShift
		for ci, img := range ls.load {
			wire := lane.WireLo + ci
			// Shift-in order: after L shifts, cell j holds the input from
			// cycle L-1-j, so drive img[L-1-k]; cycles addressing beyond a
			// shorter chain's length are padding.
			if idx := L - 1 - k; idx < len(img) {
				cyc.TamIn.Set(wire, img[idx])
			} else {
				cyc.TamIn.Set(wire, B0)
			}
			// Unload of the previous pattern drains head-first: the cell
			// nearest TAM-out leaves first.
			if ls.unload != nil {
				pimg := ls.unload[ci]
				if idx := len(pimg) - 1 - k; idx >= 0 {
					cyc.TamExpect.Set(wire, pimg[idx])
				}
			}
		}
		return nil
	}
	// Final unload of the last pattern.
	k := c - ls.period*ls.p
	if k < L {
		cyc.Actions[i] = ActShift
		for ci, pimg := range ls.expect[(ls.p-1)&1] {
			wire := lane.WireLo + ci
			cyc.TamIn.Set(wire, B0)
			if idx := len(pimg) - 1 - k; idx >= 0 {
				cyc.TamExpect.Set(wire, pimg[idx])
			}
		}
	}
	return nil
}

// emit writes the lane's slots for session cycle c: cycle j of a pattern
// window carries PI slots j·Slots.. on the drive bus, then the PO slots on
// the expect bus.
func (fs *funcState) emit(c int, cyc *Cycle) {
	lane := fs.lane
	local := c - lane.Start
	if local < 0 || local >= lane.Cycles {
		return
	}
	t, j := local/lane.CPP, local%lane.CPP
	if t != fs.curIdx {
		if !fs.advance() {
			return
		}
		fs.curIdx = t
	}
	if !fs.haveCur {
		return
	}
	nPI, nPO := lane.Core.PIs, lane.Core.POs
	lo, hi := j*lane.Slots, (j+1)*lane.Slots
	if n := min(hi, nPI) - lo; n > 0 {
		cyc.Func.SetBits(lane.SlotLo, fs.pi, lo, n)
	}
	if from := max(lo, nPI); from < hi {
		if n := min(hi, nPI+nPO) - from; n > 0 {
			cyc.FuncExpect.SetBits(lane.SlotLo+from-lo, fs.po, from-nPI, n)
		}
	}
}
