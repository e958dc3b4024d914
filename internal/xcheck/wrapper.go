package xcheck

import (
	"context"
	"fmt"

	"steac/internal/netlist"
	"steac/internal/pattern"
	"steac/internal/testinfo"
	"steac/internal/wrapper"
)

// BuildWrapperDesign assembles the full gate-level stack for one wrapped
// core: the structural scan core (pattern.BuildStructuralCore), the
// generated IEEE-1500-style wrapper around it, and an "xtop" shell that
// ties wrck and every core clock to a single "tck" port so one Tick
// advances boundary cells and core flops together (on silicon they are the
// same test clock; the netlist keeps them as separate ports).
func BuildWrapperDesign(core *testinfo.Core, width int, part wrapper.Partitioner) (*netlist.Design, wrapper.Plan, error) {
	d := netlist.NewDesign("xwrap", netlist.DefaultLibrary())
	if _, err := pattern.BuildStructuralCore(d, core); err != nil {
		return nil, wrapper.Plan{}, err
	}
	plan, err := wrapper.DesignChains(core, width, part)
	if err != nil {
		return nil, wrapper.Plan{}, err
	}
	gen, err := wrapper.Generate(d, core, plan)
	if err != nil {
		return nil, wrapper.Plan{}, err
	}

	x := netlist.NewModule("xtop")
	x.MustPort("tck", netlist.In, 1)
	conns := map[string]string{"wrck": "tck"}
	for _, ck := range core.Clocks {
		conns[ck] = "tck"
	}
	addPort := func(name string, dir netlist.PortDir, w int) {
		x.MustPort(name, dir, w)
		for i := 0; i < w; i++ {
			b := netlist.BitName(name, i, w)
			conns[b] = b
		}
	}
	if core.PIs > 0 {
		addPort("pi", netlist.In, core.PIs)
	}
	if core.POs > 0 {
		addPort("po", netlist.Out, core.POs)
	}
	for _, p := range []string{"shift", "update", "mode", "safe", "shiftwir", "updatewir"} {
		addPort(p, netlist.In, 1)
	}
	addPort("wsi", netlist.In, plan.Width)
	addPort("wso", netlist.Out, plan.Width)
	addPort("wirso", netlist.Out, 1)
	for _, pins := range [][]string{core.Resets, core.ScanEnables, core.TestEnables} {
		for _, p := range pins {
			addPort(p, netlist.In, 1)
		}
	}
	x.MustInstance("u_wrap", gen.Module.Name, conns)
	if err := d.AddModule(x); err != nil {
		return nil, wrapper.Plan{}, err
	}
	return d, plan, nil
}

// wrapPins caches compiled net ids for the xtop harness.
type wrapPins struct {
	wsi, wso []int
	wirso    int
}

func newWrapPins(sim *netlist.CompiledSim, width int) wrapPins {
	return wrapPins{
		wsi:   sim.BusIDs("wsi", width),
		wso:   sim.BusIDs("wso", width),
		wirso: sim.NetID("wirso"),
	}
}

// wrapDefaults puts the harness in INTEST posture: functional pins and
// core control pins quiet, MODE on, SAFE off, WIR strobes idle.
func wrapDefaults(sim *netlist.CompiledSim, core *testinfo.Core) {
	sim.Set("mode", true)
	sim.Set("safe", false)
	sim.Set("shift", false)
	sim.Set("update", false)
	sim.Set("shiftwir", false)
	sim.Set("updatewir", false)
	for i := 0; i < core.PIs; i++ {
		sim.SetID(sim.NetID(netlist.BitName("pi", i, core.PIs)), false)
	}
	for _, pins := range [][]string{core.Resets, core.ScanEnables, core.TestEnables} {
		for _, p := range pins {
			sim.Set(p, false)
		}
	}
}

// scanObserver sees every non-X expectation comparison; returning false
// aborts the stream.
type scanObserver func(cycle int, pin string, got, want bool) bool

// scanLaneIndex returns the Cycle.Actions index of core's scan lane in the
// session, or -1 when the core has none (it idles throughout).
func scanLaneIndex(layout pattern.SessionLayout, core string) int {
	for i, lane := range layout.Scan {
		if lane.Core.Name == core {
			return i
		}
	}
	return -1
}

// streamScan applies one translated scan session to the gate-level stack,
// comparing every non-X wso expectation through obs.  The drive protocol is
// the tester's: shift cycles raise SHIFT/SE and present wsi before the tck
// edge (wso is read pre-shift), capture cycles drop them, pulse UPDATE to
// transfer loaded stimulus onto the core inputs, and clock once.  ctx is
// polled every equivPollCycles streamed cycles; a cancel aborts the stream
// (the caller surfaces ctx.Err()).
func streamScan(ctx context.Context, sim *netlist.CompiledSim, prog *pattern.Program, layout pattern.SessionLayout,
	core *testinfo.Core, pins wrapPins, obs scanObserver) error {
	setSE := func(v bool) {
		sim.Set("shift", v)
		for _, se := range core.ScanEnables {
			sim.Set(se, v)
		}
	}
	pollIn := equivPollCycles
	lane := scanLaneIndex(layout, core.Name)
	return prog.Stream(layout, func(c int, cyc *pattern.Cycle) bool {
		if pollIn--; pollIn <= 0 {
			pollIn = equivPollCycles
			if ctx.Err() != nil {
				return false
			}
		}
		action := pattern.ActIdle
		if lane >= 0 {
			action = cyc.Actions[lane]
		}
		switch action {
		case pattern.ActShift:
			setSE(true)
			for i, id := range pins.wsi {
				sim.SetID(id, cyc.TamIn.At(i) == pattern.B1)
			}
			sim.Settle()
			for i, id := range pins.wso {
				want := cyc.TamExpect.At(i)
				if want == pattern.BX {
					continue
				}
				if !obs(c, fmt.Sprintf("wso[%d]", i), sim.GetID(id), want == pattern.B1) {
					return false
				}
			}
			sim.Tick("tck")
		case pattern.ActCapture:
			setSE(false)
			sim.Tick("update")
			sim.Tick("tck")
		default:
			sim.Tick("tck")
		}
		return true
	})
}

// wirBypassScript exercises the wrapper instruction register: it programs
// BYPASS, proves the serial path through the one-bit WBY register (one
// cycle in, one cycle out), then reloads INTESTSCAN while checking the old
// instruction echoes out on wirso.  Every comparison goes through obs; the
// returned count is the tck cycles spent.
func wirBypassScript(sim *netlist.CompiledSim, pins wrapPins, obs scanObserver) int {
	cycle := 0
	shiftWIR := func(bits []bool, echo []int) {
		sim.Set("shiftwir", true)
		for k, b := range bits {
			sim.SetID(pins.wsi[0], b)
			sim.Settle()
			if echo != nil && echo[k] >= 0 {
				obs(cycle, "wirso", sim.GetID(pins.wirso), echo[k] == 1)
			}
			sim.Tick("tck")
			cycle++
		}
		sim.Set("shiftwir", false)
		sim.Tick("updatewir")
	}
	// Program BYPASS (code 3): the first bit shifted lands in the unused
	// third stage, the last two become q1=1, q0=1.
	shiftWIR([]bool{false, true, true}, nil)
	// The WBY register must now delay wsi[0] to wso[0] by exactly one cycle.
	for _, b := range []bool{true, false, true, true, false} {
		sim.SetID(pins.wsi[0], b)
		sim.Tick("tck")
		cycle++
		obs(cycle, "wso[0]@bypass", sim.GetID(pins.wso[0]), b)
	}
	// Reload INTESTSCAN (code 0); the old BYPASS bits echo on wirso in
	// shift order: stage-2 first (0), then the two programmed ones.
	shiftWIR([]bool{false, false, false}, []int{0, 1, 1})
	return cycle
}

// VerifyWrapperContext proves a generated wrapper + structural core stack executes
// a complete translated scan program bit-exactly: every non-X TAM
// expectation the pattern translator emits must appear on the wso pins,
// pattern after pattern, plus a WIR excursion showing BYPASS takes over the
// serial path and INTESTSCAN restores it.
//
// The scan stream polls ctx every equivPollCycles cycles, and a canceled check returns
// ctx.Err() wrapped with the stage name.
func VerifyWrapperContext(ctx context.Context, name string, core *testinfo.Core, width int, opts Options) (EquivResult, *pattern.ATPG, error) {
	tm := obsSpanVerify.Start()
	defer tm.Stop()
	res := EquivResult{Name: name}
	d, plan, err := BuildWrapperDesign(core, width, wrapper.LPT)
	if err != nil {
		return res, nil, err
	}
	sim, err := netlist.NewCompiledSim(d, "xtop")
	if err != nil {
		return res, nil, err
	}
	res.Gates = sim.GateCount()
	atpg, err := pattern.NewATPG(core)
	if err != nil {
		return res, nil, err
	}
	pins := newWrapPins(sim, plan.Width)
	mmCap := opts.maxMismatches()
	obs := func(cycle int, pin string, got, want bool) bool {
		res.check(cycle, pin, got, want, mmCap)
		return len(res.Mismatches) < mmCap
	}

	sim.Reset()
	wrapDefaults(sim, core)

	// Session 1: WIR programming and bypass.
	res.Sessions++
	res.Cycles += wirBypassScript(sim, pins, obs)

	// Session 2: the full translated scan program (the WIR is back in
	// INTESTSCAN; the first pattern load initializes every chain flop, so
	// the bypass excursion leaves no residue).
	res.Sessions++
	lane := pattern.ScanLane{
		Core: core, Source: atpg, Plan: plan,
		Cycles: plan.ScanTestCycles(atpg.ScanCount()),
	}
	layout := pattern.SessionLayout{Cycles: lane.Cycles, Scan: []pattern.ScanLane{lane}}
	prog := &pattern.Program{TamWidth: plan.Width}
	if err := streamScan(ctx, sim, prog, layout, core, pins, obs); err != nil {
		return res, nil, err
	}
	if err := ctx.Err(); err != nil {
		return res, nil, fmt.Errorf("xcheck: verify %s: %w", name, err)
	}
	res.Cycles += layout.Cycles
	if res.Checks == 0 {
		res.Notes = append(res.Notes, "scan program produced no expectations")
	}
	res.finish()
	return res, atpg, nil
}
