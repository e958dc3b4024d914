package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"steac/internal/ate"
	"steac/internal/brains"
	"steac/internal/core"
	"steac/internal/insertion"
	"steac/internal/netlist"
	"steac/internal/pattern"
	"steac/internal/scenario"
	"steac/internal/sched"
	"steac/internal/stil"
	"steac/internal/testinfo"
)

// dscCycles is the paper's session-based test time for the DSC chip: the
// cycle count the schedule, the translated program and the tester model
// must all agree on.
const dscCycles = 4376942

// chipInput generates a registered scenario chip and its flow input.
func chipInput(name string, seed int64, verify bool) (core.FlowInput, error) {
	chip, err := scenario.GenerateByName(name, seed)
	if err != nil {
		return core.FlowInput{}, err
	}
	return chip.FlowInput(verify)
}

// flowSig is what the flow checks compare between two runs of one chip.
type flowSig struct {
	Cycles, Sessions, BISTGroups int
	Gates                        float64
}

func sigOf(s *sched.Schedule, b *brains.Result, ins *insertion.Result) flowSig {
	sig := flowSig{Cycles: s.TotalCycles, Sessions: len(s.Sessions)}
	if b != nil {
		sig.BISTGroups = len(b.Groups)
	}
	if ins != nil {
		sig.Gates = ins.WrapperGates + ins.ControllerGates + ins.TAMGates + ins.BISTGates
	}
	return sig
}

// checkVerify checks an ATE verification against the schedule it applied.
func checkVerify(r *ate.Result, scheduleCycles, want int) error {
	switch {
	case r == nil:
		return fmt.Errorf("flow ran without ATE verification")
	case !r.Pass || r.Mismatches != 0:
		return fmt.Errorf("ATE verification failed with %d mismatches", r.Mismatches)
	case r.Cycles != scheduleCycles || r.Cycles != want:
		return fmt.Errorf("ATE applied %d cycles, schedule says %d, want %d", r.Cycles, scheduleCycles, want)
	}
	return nil
}

// flowLayers is one replayed flow's time and work per layer.
type flowLayers struct {
	parse, brains, search, baselines, insert, translate, apply, wall time.Duration
	insertAlloc, applyAlloc                                          uint64
	sig                                                              flowSig
	verify                                                           *ate.Result
}

// replayFlow runs the stage sequence of core.RunFlowContext through the
// same public calls, each inside its own span under one "flow" root, so
// a traced run can attribute the flow's wall time to its layers.  The
// flow's own remainder is the root span's self time.  Inputs with
// interconnects (EXTEST) are not replayed; no workload generates them.
func replayFlow(ctx context.Context, tr *tracer, run string, in core.FlowInput) (flowLayers, error) {
	var L flowLayers
	if len(in.Interconnects) > 0 {
		return L, fmt.Errorf("replay does not cover EXTEST interconnects")
	}
	root := tr.start(run, 0, "flow")
	err := replayStages(ctx, tr, run, root, in, &L)
	L.wall = tr.stop(root)
	return L, err
}

func replayStages(ctx context.Context, tr *tracer, run string, root int, in core.FlowInput, L *flowLayers) error {
	step := func(name string, d *time.Duration, f func() error) error {
		id := tr.start(run, root, name)
		err := f()
		*d = tr.stop(id)
		return err
	}

	var cores []*testinfo.Core
	sources := map[string]pattern.Source{}
	if err := step("stil.parse", &L.parse, func() error {
		for i, src := range in.STIL {
			c, vecs, err := stil.ParseWithVectors(src)
			if err != nil {
				return fmt.Errorf("STIL input %d: %w", i, err)
			}
			cores = append(cores, c)
			if len(vecs.Scan) > 0 || len(vecs.Func) > 0 {
				sources[c.Name], err = pattern.FromSTIL(c, vecs)
			} else {
				sources[c.Name], err = pattern.NewATPG(c)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	var b *brains.Result
	var bistGroups []sched.BISTGroup
	var bistDesign *netlist.Design
	bistTop := ""
	if len(in.Memories) > 0 {
		if err := step("brains.compile", &L.brains, func() (err error) {
			b, err = brains.CompileContext(ctx, in.Memories, in.BISTOptions)
			return err
		}); err != nil {
			return err
		}
		bistGroups, bistDesign, bistTop = core.BISTGroups(b), b.Design, b.Top.Name
	}

	var tests []sched.Test
	var schedule *sched.Schedule
	if err := step("sched.search", &L.search, func() (err error) {
		if tests, err = sched.BuildTests(cores, append(bistGroups, in.ExtraBIST...)); err != nil {
			return err
		}
		schedule, err = sched.SessionBasedContext(ctx, tests, in.Resources)
		return err
	}); err != nil {
		return err
	}
	if err := step("sched.baselines", &L.baselines, func() error {
		if _, err := sched.NonSessionBased(tests, in.Resources); err != nil {
			return err
		}
		_, err := sched.Serial(tests, in.Resources)
		return err
	}); err != nil {
		return err
	}

	var ins *insertion.Result
	if in.SOC != nil {
		alloc, err := allocDuring(func() error {
			return step("insertion.insert", &L.insert, func() (err error) {
				ins, err = insertion.Insert(in.SOC, cores, schedule, in.Resources, bistDesign, bistTop)
				return err
			})
		})
		if err != nil {
			return err
		}
		L.insertAlloc = alloc
	}

	var prog *pattern.Program
	if err := step("pattern.translate", &L.translate, func() (err error) {
		prog, err = pattern.Translate(schedule, sources, in.Resources)
		return err
	}); err != nil {
		return err
	}
	L.sig = sigOf(schedule, b, ins)

	if in.Verify {
		alloc, err := allocDuring(func() error {
			return step("ate.apply", &L.apply, func() error {
				r, err := ate.Run(prog, ate.NewChip(prog, cores))
				L.verify = &r
				return err
			})
		})
		if err != nil {
			return err
		}
		L.applyAlloc = alloc
	}
	return nil
}

// allocDuring returns the bytes the process allocated while f ran.
func allocDuring(f func() error) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
}

// layerSamples collects the replayed flows' per-layer figures.
type layerSamples struct {
	parse, brains, search, baselines, insert, translate, apply, wall, unattributed []float64
	insertAlloc, applyAlloc, nsPerCycle, groups, sessions, gates, cycles, mism     []float64
}

func (s *layerSamples) add(L flowLayers) {
	s.parse = append(s.parse, ms(L.parse))
	s.search = append(s.search, ms(L.search))
	s.baselines = append(s.baselines, ms(L.baselines))
	s.translate = append(s.translate, ms(L.translate))
	s.wall = append(s.wall, ms(L.wall))
	s.unattributed = append(s.unattributed,
		ms(L.wall-L.parse-L.brains-L.search-L.baselines-L.insert-L.translate-L.apply))
	s.sessions = append(s.sessions, float64(L.sig.Sessions))
	if L.sig.BISTGroups > 0 {
		s.brains = append(s.brains, ms(L.brains))
		s.groups = append(s.groups, float64(L.sig.BISTGroups))
	}
	if L.sig.Gates > 0 {
		s.insert = append(s.insert, ms(L.insert))
		s.insertAlloc = append(s.insertAlloc, float64(L.insertAlloc)/1e6)
		s.gates = append(s.gates, L.sig.Gates)
	}
	if L.verify != nil {
		s.apply = append(s.apply, ms(L.apply))
		s.applyAlloc = append(s.applyAlloc, float64(L.applyAlloc)/1e6)
		s.cycles = append(s.cycles, float64(L.verify.Cycles))
		s.mism = append(s.mism, float64(L.verify.Mismatches))
		if L.verify.Cycles > 0 {
			s.nsPerCycle = append(s.nsPerCycle, float64(L.apply.Nanoseconds())/float64(L.verify.Cycles))
		}
	}
}

// report records the per-flow medians of every layer figure.
func (s *layerSamples) report(o *outcome) {
	o.setMedian("stil.parse_ms", s.parse, "ms")
	o.setMedian("brains.compile_ms", s.brains, "ms")
	o.setMedian("brains.groups", s.groups, "count")
	o.setMedian("sched.search_ms", s.search, "ms")
	o.setMedian("sched.baselines_ms", s.baselines, "ms")
	o.setMedian("sched.sessions", s.sessions, "count")
	o.setMedian("insertion.insert_ms", s.insert, "ms")
	o.setMedian("insertion.alloc_mb", s.insertAlloc, "MB")
	o.setMedian("insertion.gates", s.gates, "gates")
	o.setMedian("pattern.translate_ms", s.translate, "ms")
	o.setMedian("flow.wall_ms", s.wall, "ms")
	o.setMedian("flow.unattributed_ms", s.unattributed, "ms")
	if len(s.apply) > 0 {
		o.setMedian("ate.apply_ms", s.apply, "ms")
		o.setMedian("ate.alloc_mb", s.applyAlloc, "MB")
		o.setMedian("ate.cycles", s.cycles, "cycles")
		o.setMedian("ate.mismatches", s.mism, "count")
		o.setMedian("ate.ns_per_cycle", s.nsPerCycle, "ns/cycle")
	}
}

// The lbist-verify chip: p1500-lbist at the generator's default seed, the
// chip README.md's quickstart runs through the verifying flow (dscflow
// -scenario p1500-lbist -verify).  Like the DSC chip it is fixed, so the
// seed does not change the work.  Its session-based schedule is the
// 140,216 cycles EXPERIMENTS.md records for it.
const (
	lbistScenario = "p1500-lbist"
	lbistSeed     = 0
	lbistCycles   = 140216
	lbistSetups   = 25
)

// runLBISTVerify is the lbist-verify workload: one caller runs the
// p1500-lbist chip through the verifying flow, back to back.  ATE apply
// does most of the work.  An op takes a fraction of a second, so a run
// holds a hundred or more and their median shrugs off a short slowdown
// of the host, which the paper's DSC chip, at several seconds a flow,
// cannot.  The DSC chip is verified once after the window (checkDSC).
func runLBISTVerify(e *env) (*outcome, error) {
	o := newOutcome(1)
	in, err := repeatSetup(o, lbistSetups, func(int) (core.FlowInput, error) {
		return chipInput(lbistScenario, lbistSeed, true)
	}, nil)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	var ref *flowSig
	var samples layerSamples
	var cyclesPerS []float64

	w := o.startWindow()
	for i := 0; time.Since(w.t0) < e.window; i++ {
		t0 := time.Now()
		if !e.traced(i) {
			res, err := core.RunFlowContext(ctx, in)
			d := time.Since(t0)
			if err == nil {
				err = checkVerify(res.Verify, res.Schedule.TotalCycles, lbistCycles)
			}
			if err == nil && ref == nil {
				sig := sigOf(res.Schedule, res.Brains, res.Insertion)
				ref = &sig
			}
			if err == nil && e.tr == nil {
				cyclesPerS = append(cyclesPerS, float64(res.Verify.Cycles)/d.Seconds())
			}
			o.op(false, d, err)
			continue
		}
		L, err := replayFlow(ctx, e.tr, fmt.Sprintf("op%d", i), in)
		d := time.Since(t0)
		if err == nil {
			err = checkVerify(L.verify, L.sig.Cycles, lbistCycles)
		}
		if err == nil && ref != nil && L.sig != *ref {
			err = fmt.Errorf("replayed flow %+v differs from core.RunFlowContext %+v", L.sig, *ref)
		}
		if err == nil {
			samples.add(L)
			cyclesPerS = append(cyclesPerS, float64(L.verify.Cycles)/d.Seconds())
		}
		o.op(true, d, err)
	}
	o.endWindow(w)
	o.setMedian("ate_cycles_per_s", cyclesPerS, "cycles/s")
	if e.tr != nil {
		samples.report(o)
	}
	checkDSC(ctx, e, o)
	return o, nil
}

// checkDSC runs the paper's DSC chip through the verifying flow once,
// after the measured window, and checks that the tester applies exactly
// the scheduled 4,376,942 cycles with no mismatch.  It counts as one
// attempted op.  A traced run replays it layer by layer, under a tracer
// of its own so its spans stay out of the run's self-time table, and
// reports its flow time, ATE apply time and cycles.
func checkDSC(ctx context.Context, e *env, o *outcome) {
	in, err := chipInput("dsc", e.seed, true)
	if err != nil {
		o.check(err)
		return
	}
	if e.tr == nil {
		res, err := core.RunFlowContext(ctx, in)
		if err == nil {
			err = checkVerify(res.Verify, res.Schedule.TotalCycles, dscCycles)
		}
		o.check(err)
		return
	}
	L, err := replayFlow(ctx, newTracer(), "dsc", in)
	if err == nil {
		err = checkVerify(L.verify, L.sig.Cycles, dscCycles)
	}
	if err == nil {
		o.set("dsc.flow_ms", ms(L.wall), "ms", 1)
		o.set("dsc.ate_apply_ms", ms(L.apply), "ms", 1)
		o.set("dsc.ate_cycles", float64(L.verify.Cycles), "cycles", 1)
	}
	o.check(err)
}

// The scenario-sweep pool: sweepSeedsPer chips drawn from each generated
// builtin, plus the DSC chip once per pass.  Eight draws is the smallest
// count at which the time of a pass varies with the seed no more than it
// does at 32 (an interquartile range of about 3% of the median over 40
// seeds, against 6% at four draws), and it keeps a pass near 0.4 s, so a
// run holds dozens of them.
var sweepScenarios = []string{"hybrid-power", "manycore", "memory-heavy", "p1500-lbist"}

const (
	sweepSeedsPer = 8
	sweepSetups   = 25
)

type sweepChip struct {
	name string
	seed int64
	in   core.FlowInput
}

// buildSweepPool generates the pool in a seeded order.
func buildSweepPool(seed int64) ([]sweepChip, error) {
	rng := rand.New(rand.NewSource(seed))
	pool := []sweepChip{{name: "dsc"}}
	for _, name := range sweepScenarios {
		for k := 0; k < sweepSeedsPer; k++ {
			pool = append(pool, sweepChip{name: name, seed: rng.Int63n(1 << 30)})
		}
	}
	for i := range pool {
		in, err := chipInput(pool[i].name, pool[i].seed, false)
		if err != nil {
			return nil, fmt.Errorf("generate %s seed %d: %w", pool[i].name, pool[i].seed, err)
		}
		pool[i].in = in
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool, nil
}

// runScenarioSweep is the scenario-sweep workload: one caller runs the
// pool's chips through the flow without verify.  An op is one pass over
// the whole pool: per-chip flow times are bimodal (manycore and
// memory-heavy chips take about half as long as hybrid-power and
// p1500-lbist ones), so a per-flow median would sit in the gap between
// the modes and jump with the draw; a pass time does not.  A traced run
// alternates untraced passes through core.RunFlowContext with traced
// passes through the replay, and each chip's replay must agree with its
// untraced run.
func runScenarioSweep(e *env) (*outcome, error) {
	o := newOutcome(1)
	pool, err := repeatSetup(o, sweepSetups, func(int) ([]sweepChip, error) {
		return buildSweepPool(e.seed)
	}, nil)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	ref := make([]*flowSig, len(pool))
	var samples layerSamples

	w := o.startWindow()
	for i := 0; time.Since(w.t0) < e.window; i++ {
		traced := e.traced(i)
		t0 := time.Now()
		var err error
		for idx := range pool {
			c := &pool[idx]
			if traced {
				var L flowLayers
				if L, err = replayFlow(ctx, e.tr, fmt.Sprintf("op%d", i), c.in); err == nil {
					samples.add(L)
					err = checkSweep(c, ref, idx, L.sig)
				}
			} else {
				var res *core.FlowResult
				if res, err = core.RunFlowContext(ctx, c.in); err == nil {
					err = checkSweep(c, ref, idx, sigOf(res.Schedule, res.Brains, res.Insertion))
				}
			}
			if err != nil {
				break
			}
		}
		o.op(traced, time.Since(t0), err)
	}
	o.endWindow(w)
	if e.tr != nil {
		samples.report(o)
	}
	return o, nil
}

// checkSweep checks one flow of a pool chip: the DSC chip must hit the
// paper's cycle count, and every chip must repeat the schedule, sessions,
// BIST groups and gate counts of its first run.
func checkSweep(c *sweepChip, ref []*flowSig, idx int, sig flowSig) error {
	if c.name == "dsc" && sig.Cycles != dscCycles {
		return fmt.Errorf("dsc schedule %d cycles, want %d", sig.Cycles, dscCycles)
	}
	if ref[idx] == nil {
		ref[idx] = &sig
		return nil
	}
	if sig != *ref[idx] {
		return fmt.Errorf("%s seed %d: flow %+v differs from its first run %+v", c.name, c.seed, sig, *ref[idx])
	}
	return nil
}
