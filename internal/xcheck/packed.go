package xcheck

import (
	"context"
	"math/bits"

	"steac/internal/bist"
	"steac/internal/memory"
	"steac/internal/netlist"
	"steac/internal/pattern"
	"steac/internal/testinfo"
)

// PackedBatch is the number of faults one packed pass simulates: lanes
// 0..62 carry fault copies, lane 63 is reserved for the fault-free machine
// (the golden-bit convention — detection is (word ^ golden) != 0).
const PackedBatch = netlist.Lanes - 1

// bcast broadcasts one golden-trace bit to every lane.
func bcast(v bool) uint64 {
	if v {
		return ^uint64(0)
	}
	return 0
}

// busWords reads a bus's lane-words into dst.
func busWords(ps *netlist.PackedSim, ids []int, dst []uint64) {
	for i, id := range ids {
		dst[i] = ps.GetWordID(id)
	}
}

// laneDiffMask returns the lanes whose bus value differs from lane 63's
// (the golden machine's).  With one fault per lane this is the set of
// lanes whose address stream has been corrupted — typically empty, and a
// handful at worst — so RAM access below is a whole-word operation at the
// golden address patched per diverged lane, never a 64-lane gather.
func laneDiffMask(ws []uint64) uint64 {
	var d uint64
	for _, w := range ws {
		d |= w ^ uint64(int64(w)>>63)
	}
	return d
}

// laneBusVal assembles one lane's integer value from bus lane-words.
func laneBusVal(ws []uint64, lane int) int {
	v := 0
	for i, w := range ws {
		if w>>uint(lane)&1 == 1 {
			v |= 1 << uint(i)
		}
	}
	return v
}

// markDiff records newly-divergent lanes at cycle and prunes them from
// pending; it returns the updated pending mask.
func markDiff(det []int, diff, pending uint64, cycle int) uint64 {
	hits := diff & pending
	for h := hits; h != 0; h &= h - 1 {
		det[bits.TrailingZeros64(h)] = cycle
	}
	return pending &^ hits
}

// pbench is the packed twin of the scalar gmem emulation: one bit-plane
// lane-word per (address, data bit), so 64 fault copies of the bench RAM
// are read and written as one whole-word operation at the golden lane's
// address, patched per lane only where a fault has corrupted that lane's
// address stream.
type pbench struct {
	nb    int      // data bits
	plane []uint64 // [addr*nb + b] lane-words
	addrW []uint64 // scratch: address bus lane-words
	addrs []int    // scratch: per-lane decoded addresses
}

// runBISTPacked is runBISTTraced in compare mode across 64 lanes: one
// solid-background March session with emulated RAMs answering each lane's
// own pins, comparing every lane's DONE/FAIL against the recorded golden
// trace.  det[lane] is the first divergent cycle or -1; only lanes in
// pending are tracked.  The run ends at the end of the golden trace or when
// every pending lane has diverged, whichever is first (a detected lane's
// result can no longer change, and lanes are independent).
func runBISTPacked(ctx context.Context, ps *netlist.PackedSim, pins benchPins,
	mems []memory.Config, golden []bistTrace, pending uint64) []int {
	det := make([]int, netlist.Lanes)
	for i := range det {
		det[i] = -1
	}
	pm := make([]pbench, len(mems))
	for i, cfg := range mems {
		pm[i] = pbench{
			nb:    cfg.Bits,
			plane: make([]uint64, cfg.Words*cfg.Bits),
			addrW: make([]uint64, cfg.AddrBits()),
			addrs: make([]int, netlist.Lanes),
		}
	}
	ps.Reset()
	ps.Set("bgsel", false)
	ps.Set("pbsel", false)
	ps.Set("rst", true)
	ps.Set("en", false)
	ps.Tick("ck")
	ps.Set("rst", false)
	ps.Set("en", true)
	// One settle propagates the enable; inside the loop the state is
	// already settled at the top (Tick ends with a Settle), so each cycle
	// needs only the post-RAM-read settle.
	ps.Settle()

	pollIn := equivPollCycles
	for cycle := 0; ; cycle++ {
		if pollIn--; pollIn <= 0 {
			pollIn = equivPollCycles
			if ctx.Err() != nil {
				return det // caller discards results once ctx has fired
			}
		}
		for i := range mems {
			m := &pm[i]
			busWords(ps, pins.addr[i], m.addrW)
			a := laneBusVal(m.addrW, netlist.Lanes-1)
			diff := laneDiffMask(m.addrW)
			if diff == 0 {
				for b, id := range pins.q[i] {
					ps.SetWordID(id, m.plane[a*m.nb+b])
				}
				for b, id := range pins.qb[i] {
					ps.SetWordID(id, m.plane[a*m.nb+b])
				}
			} else {
				for d := diff; d != 0; d &= d - 1 {
					l := bits.TrailingZeros64(d)
					m.addrs[l] = laneBusVal(m.addrW, l)
				}
				for b := 0; b < m.nb; b++ {
					w := m.plane[a*m.nb+b]
					for d := diff; d != 0; d &= d - 1 {
						l := bits.TrailingZeros64(d)
						bit := uint64(1) << uint(l)
						w = (w &^ bit) | (m.plane[m.addrs[l]*m.nb+b] & bit)
					}
					ps.SetWordID(pins.q[i][b], w)
					if pins.qb[i] != nil {
						ps.SetWordID(pins.qb[i][b], w)
					}
				}
			}
		}
		ps.Settle()
		gb := golden[cycle]
		diff := (ps.GetWordID(pins.done) ^ bcast(gb.done)) | (ps.GetWordID(pins.fail) ^ bcast(gb.fail))
		pending = markDiff(det, diff, pending, cycle)
		if cycle == len(golden)-1 || pending == 0 {
			return det
		}
		for i := range mems {
			m := &pm[i]
			weW := ps.GetWordID(pins.we[i])
			if weW == 0 {
				continue
			}
			busWords(ps, pins.addr[i], m.addrW)
			a := laneBusVal(m.addrW, netlist.Lanes-1)
			diff := laneDiffMask(m.addrW)
			if diff == 0 {
				for b, id := range pins.d[i] {
					p := &m.plane[a*m.nb+b]
					*p = (*p &^ weW) | (ps.GetWordID(id) & weW)
				}
			} else {
				// Lanes still on the golden address write as one word; each
				// diverged lane writes its own bit at its own address (bit
				// positions are disjoint, so the order is irrelevant).
				for d := diff & weW; d != 0; d &= d - 1 {
					l := bits.TrailingZeros64(d)
					m.addrs[l] = laneBusVal(m.addrW, l)
				}
				base := weW &^ diff
				for b, id := range pins.d[i] {
					dW := ps.GetWordID(id)
					if base != 0 {
						p := &m.plane[a*m.nb+b]
						*p = (*p &^ base) | (dW & base)
					}
					for d := diff & weW; d != 0; d &= d - 1 {
						l := bits.TrailingZeros64(d)
						bit := uint64(1) << uint(l)
						p := &m.plane[m.addrs[l]*m.nb+b]
						*p = (*p &^ bit) | (dW & bit)
					}
				}
			}
		}
		ps.Tick("ck")
	}
}

// runControllerPacked is runControllerTraced in compare mode across 64
// lanes: the scripted two-scenario session with per-lane behavioural groups
// answering each lane's own GO outputs.
func runControllerPacked(_ context.Context, ps *netlist.PackedSim, nGroups int,
	goIDs, gdoneIDs, gfailIDs, outIDs []int, golden []ctlTrace, pending uint64) []int {
	det := make([]int, netlist.Lanes)
	for i := range det {
		det[i] = -1
	}
	age := make([][]int, nGroups)
	for i := range age {
		age[i] = make([]int, netlist.Lanes)
	}
	cycle := 0
	ps.Reset()
	for scenario := 0; scenario < 2; scenario++ {
		failing := -1
		if scenario == 1 {
			failing = nGroups / 2
		}
		for _, step := range []struct{ mbs, mbr bool }{{false, true}, {true, false}} {
			ps.Set(bist.PinMBS, step.mbs)
			ps.Set(bist.PinMBR, step.mbr)
			ps.Set(bist.PinMSI, true)
			for i := 0; i < nGroups; i++ {
				ps.SetID(gdoneIDs[i], false)
				ps.SetID(gfailIDs[i], false)
			}
			ps.Tick(bist.PinMBC)
		}
		ps.Set(bist.PinMBS, false)
		for i := range age {
			for l := range age[i] {
				age[i][l] = 0
			}
		}
		for local := 0; local < 12*nGroups+12; local++ {
			ps.Settle()
			gb := golden[cycle]
			diff := (ps.GetWordID(outIDs[0]) ^ bcast(gb.mbo)) |
				(ps.GetWordID(outIDs[1]) ^ bcast(gb.mrd)) |
				(ps.GetWordID(outIDs[2]) ^ bcast(gb.mso))
			pending = markDiff(det, diff, pending, cycle)
			if cycle == len(golden)-1 || pending == 0 {
				return det
			}
			for i := 0; i < nGroups; i++ {
				var gdoneW, gfailW uint64
				if goW := ps.GetWordID(goIDs[i]); goW != 0 {
					for w := goW; w != 0; w &= w - 1 {
						l := bits.TrailingZeros64(w)
						age[i][l]++
						if age[i][l] >= 3+i%4 {
							gdoneW |= 1 << uint(l)
						}
						if i == failing && age[i][l] == 2 {
							gfailW |= 1 << uint(l)
						}
					}
				}
				ps.SetWordID(gdoneIDs[i], gdoneW)
				ps.SetWordID(gfailIDs[i], gfailW)
			}
			ps.Tick(bist.PinMBC)
			cycle++
		}
	}
	return det
}

// wrapDefaultsPacked broadcasts the INTEST posture to every lane.
func wrapDefaultsPacked(ps *netlist.PackedSim, core *testinfo.Core) {
	ps.Set("mode", true)
	ps.Set("safe", false)
	ps.Set("shift", false)
	ps.Set("update", false)
	ps.Set("shiftwir", false)
	ps.Set("updatewir", false)
	for i := 0; i < core.PIs; i++ {
		ps.Set(netlist.BitName("pi", i, core.PIs), false)
	}
	for _, pins := range [][]string{core.Resets, core.ScanEnables, core.TestEnables} {
		for _, p := range pins {
			ps.Set(p, false)
		}
	}
}

// packedScanObserver sees every comparison as a lane-word against the
// script-known expected bit; returning false aborts the stream (all
// pending lanes diverged).
type packedScanObserver func(cycle int, got uint64, want bool) bool

// wirBypassScriptPacked is wirBypassScript across 64 lanes; expected values
// are script constants, so they are broadcast for comparison.
func wirBypassScriptPacked(ps *netlist.PackedSim, pins wrapPins, obs packedScanObserver) int {
	cycle := 0
	shiftWIR := func(bitsIn []bool, echo []int) {
		ps.Set("shiftwir", true)
		for k, b := range bitsIn {
			ps.SetID(pins.wsi[0], b)
			ps.Settle()
			if echo != nil && echo[k] >= 0 {
				obs(cycle, ps.GetWordID(pins.wirso), echo[k] == 1)
			}
			ps.Tick("tck")
			cycle++
		}
		ps.Set("shiftwir", false)
		ps.Tick("updatewir")
	}
	shiftWIR([]bool{false, true, true}, nil)
	for _, b := range []bool{true, false, true, true, false} {
		ps.SetID(pins.wsi[0], b)
		ps.Tick("tck")
		cycle++
		obs(cycle, ps.GetWordID(pins.wso[0]), b)
	}
	shiftWIR([]bool{false, false, false}, []int{0, 1, 1})
	return cycle
}

// streamScanPacked is streamScan across 64 lanes: identical drive protocol,
// with every non-X wso expectation compared as a lane-word.
func streamScanPacked(ctx context.Context, ps *netlist.PackedSim, prog *pattern.Program,
	layout pattern.SessionLayout, core *testinfo.Core, pins wrapPins, obs packedScanObserver) error {
	setSE := func(v bool) {
		ps.Set("shift", v)
		for _, se := range core.ScanEnables {
			ps.Set(se, v)
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
				ps.SetID(id, cyc.TamIn.At(i) == pattern.B1)
			}
			ps.Settle()
			for i, id := range pins.wso {
				want := cyc.TamExpect.At(i)
				if want == pattern.BX {
					continue
				}
				if !obs(c, ps.GetWordID(id), want == pattern.B1) {
					return false
				}
			}
			ps.Tick("tck")
		case pattern.ActCapture:
			setSE(false)
			ps.Tick("update")
			ps.Tick("tck")
		default:
			ps.Tick("tck")
		}
		return true
	})
}

// runWrapperPacked mirrors the wrapper campaign's scalar run closure: WIR
// excursion first, then the translated scan program, detection cycles
// offset by the WIR script length.
func runWrapperPacked(ctx context.Context, ps *netlist.PackedSim, core *testinfo.Core,
	pins wrapPins, prog *pattern.Program, layout pattern.SessionLayout, pending uint64) []int {
	det := make([]int, netlist.Lanes)
	for i := range det {
		det[i] = -1
	}
	ps.Reset()
	wrapDefaultsPacked(ps, core)
	wirCycles := wirBypassScriptPacked(ps, pins, func(cycle int, got uint64, want bool) bool {
		pending = markDiff(det, got^bcast(want), pending, cycle)
		return pending != 0
	})
	if pending == 0 {
		return det
	}
	_ = streamScanPacked(ctx, ps, prog, layout, core, pins, func(cycle int, got uint64, want bool) bool {
		pending = markDiff(det, got^bcast(want), pending, wirCycles+cycle)
		return pending != 0
	})
	return det
}
