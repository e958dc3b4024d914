package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"steac/internal/campaign"
	"steac/internal/dsc"
	"steac/internal/fabric"
	"steac/internal/memory"
	"steac/internal/serve"
)

const (
	jobSetups  = 25
	jobWorkers = 2
	// nodePoll is the fabric node's idle poll; it discovers new campaigns
	// every 4 polls.  waitJobInterval is the client's job-status poll.
	// Both are the benchmark's own and sit well below a job's run time.
	nodePoll        = 10 * time.Millisecond
	waitJobInterval = 5 * time.Millisecond
	// daemonWatchTick is the daemon's fixed fabric-progress poll.  The
	// benchmark does not set it; it is reported so its lag can be read.
	daemonWatchTick = 100 * time.Millisecond
	// directRounds bounds the rounds whose specs are re-run directly,
	// per storage mode, after a traced window.
	directRounds = 8
)

// The two tenants: a job id is tenant+fingerprint, so the same spec run
// locally and on the fabric needs two identities.
var (
	localTenant  = serve.Tenant{ID: "local", Key: "steacbench-local"}
	fabricTenant = serve.Tenant{ID: "fabric", Key: "steacbench-fabric"}
)

// roundSpecs draws one round's campaigns, both taken from specs the
// repository already runs: the memfault job of the CI catalog and job
// smoke stages and of TestCatalogRecommendEndToEnd (March C- coverage of
// a 64x4 memory, every fault), and the xcheck TPG campaign of the
// steac-bench/v1 suite (March C- on the DSC chip's extfifo macro, 64
// sampled faults).  The seed draws the xcheck fault sample; names carry
// the seed and round, so every spec is new to the daemon and the fabric.
func roundSpecs(rng *rand.Rand, seed int64, round int) []campaign.Spec {
	name := fmt.Sprintf("s%d-r%d", seed, round)
	return []campaign.Spec{
		&campaign.CoverageSpec{
			Algorithm: "March C-",
			Config:    memory.Config{Name: name, Words: 64, Bits: 4},
			AllFaults: true,
		},
		&campaign.XCheckSpec{
			Campaign:  campaign.XCheckTPG,
			Name:      name,
			Algorithm: "March C-",
			Memories:  []memory.Config{extfifo},
			MaxFaults: 64,
			Seed:      rng.Int63n(1 << 30),
		},
	}
}

// extfifo is the DSC chip's two-port FIFO macro.
var extfifo = func() memory.Config {
	for _, cfg := range dsc.Memories() {
		if cfg.Name == "extfifo" {
			return cfg
		}
	}
	panic("steacbench: the DSC chip has no extfifo macro")
}()

// jobRun is one spec's pair of jobs, kept for the post-window checks.
type jobRun struct {
	spec          campaign.Spec
	round         int
	local, fabric json.RawMessage
}

// jobDaemon is the campaign-jobs daemon: steacd as a fabric coordinator,
// plus one in-process fabric node leasing over loopback.
type jobDaemon struct {
	*daemon
	local, fabric *serve.Client
	span          atomic.Int64 // the traced fabric job the node works for
}

func startJobDaemon(e *env, rep int) (*jobDaemon, error) {
	dir := filepath.Join(e.tmp, fmt.Sprintf("daemon%d", rep))
	fabricDir := filepath.Join(dir, "fabric")
	coord, err := fabric.New(fabric.Config{Dir: fabricDir})
	if err != nil {
		return nil, err
	}
	tenants, err := serve.NewTenantSet([]serve.Tenant{localTenant, fabricTenant})
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(dir, e.tr, serve.Config{
		Workers:    jobWorkers,
		Tenants:    tenants,
		JobDir:     filepath.Join(dir, "jobs"),
		CatalogDir: filepath.Join(dir, "catalog"),
		Fabric:     coord,
	})
	if err != nil {
		return nil, err
	}
	jd := &jobDaemon{daemon: d, local: d.client(localTenant.Key), fabric: d.client(fabricTenant.Key)}
	node := &fabric.Node{
		ID: "steacbench-node",
		Client: &fabric.Client{Base: d.ts.URL, HTTP: &http.Client{Transport: &meteredTransport{
			base: d.transport,
			span: func() int { return int(jd.span.Load()) },
		}}},
		Dir:     fabricDir,
		Workers: jobWorkers,
		Poll:    nodePoll,
	}
	ctx, cancel := context.WithCancel(context.Background())
	d.nodeStop, d.nodeDone = cancel, make(chan error, 1)
	go func() { d.nodeDone <- node.Run(ctx) }()

	// One local job finishes the daemon's lazy set-up (job pool, job
	// database, catalog ingest, client connections) before timing.
	warm := &campaign.CoverageSpec{Algorithm: "March C-",
		Config: memory.Config{Name: "warmup", Words: 64, Bits: 4}, AllFaults: true}
	if _, err := jd.runJob(context.Background(), jd.local, warm, false); err != nil {
		jd.release()
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	return jd, nil
}

// jobTimes are the traced timings of one fabric job.
type jobTimes struct {
	fingerprint     string
	submit, watched time.Time
}

// runJob submits spec as a job and polls it to completion.
func (jd *jobDaemon) runJob(ctx context.Context, cl *serve.Client, spec campaign.Spec, onFabric bool) (serve.JobStatus, error) {
	payload, err := spec.Marshal()
	if err != nil {
		return serve.JobStatus{}, err
	}
	st, err := cl.SubmitJob(ctx, serve.JobRequest{Kind: spec.Kind(), Spec: payload, Workers: jobWorkers, Fabric: onFabric})
	if err != nil {
		return st, fmt.Errorf("submit %s job: %w", spec.Kind(), err)
	}
	st, err = cl.WaitJob(ctx, st.ID, waitJobInterval, nil)
	if err == nil && st.State != "done" {
		err = fmt.Errorf("%s job %s ended %s: %s", spec.Kind(), st.ID, st.State, st.Error)
	}
	return st, err
}

// runCampaignJobs is the campaign-jobs workload: one caller submits each
// round's specs as jobs, first to the local pool under one tenant, then
// to the fabric under the other, and waits for each.  An op is a round.
func runCampaignJobs(e *env) (*outcome, error) {
	o := newOutcome(1)
	o.polls = map[string]string{
		"node_poll":          nodePoll.String(),
		"node_discover":      (4 * nodePoll).String(),
		"wait_job_interval":  waitJobInterval.String(),
		"daemon_watch_fixed": daemonWatchTick.String(),
	}
	jd, err := repeatSetup(o, jobSetups, func(rep int) (*jobDaemon, error) {
		return startJobDaemon(e, rep)
	}, func(jd *jobDaemon) { jd.release() })
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.seed))
	ctx := context.Background()
	var runs []jobRun
	var localS, fabricS, discover, lag []float64
	var fabricJobs []jobTimes
	units := 0

	w := o.startWindow()
	for i := 0; time.Since(w.t0) < e.window; i++ {
		run := fmt.Sprintf("op%d", i)
		root := 0
		if e.traced(i) {
			root = e.tr.start(run, 0, "round")
		}
		t0 := time.Now()
		var err error
		var roundLocal, roundFabric time.Duration
		for _, spec := range roundSpecs(rng, e.seed, i) {
			r := jobRun{spec: spec, round: i}
			x := &exchange{}
			if root != 0 {
				x.span = e.tr.start(run, root, "job.local")
			}
			js := time.Now()
			var st serve.JobStatus
			st, err = jd.runJob(withExchange(ctx, x), jd.local, spec, false)
			e.tr.stop(x.span)
			if err != nil {
				break
			}
			roundLocal += time.Since(js)
			r.local, units = st.Result, units+st.UnitsTotal

			x = &exchange{}
			if root != 0 {
				x.span = e.tr.start(run, root, "job.fabric")
			}
			jd.span.Store(int64(x.span))
			ft := jobTimes{submit: time.Now()}
			st, err = jd.runJob(withExchange(ctx, x), jd.fabric, spec, true)
			ft.watched = time.Now()
			jd.span.Store(0)
			e.tr.stop(x.span)
			if err != nil {
				break
			}
			roundFabric += ft.watched.Sub(ft.submit)
			if root != 0 {
				ft.fingerprint = st.Fingerprint
				fabricJobs = append(fabricJobs, ft)
			}
			r.fabric, units = st.Result, units+st.UnitsTotal
			runs = append(runs, r)
		}
		if err == nil && (root != 0 || e.tr == nil) {
			localS = append(localS, roundLocal.Seconds())
			fabricS = append(fabricS, roundFabric.Seconds())
		}
		elapsed := time.Since(t0)
		e.tr.stop(root)
		o.op(root != 0, elapsed, err)
	}
	o.endWindow(w)
	// Stop the daemon and the node first: no handler may still record
	// into the meter while it is read.
	if err := jd.stop(); err != nil {
		return nil, err
	}
	o.set("fault_units_per_s", float64(units)/o.window.Seconds(), "faults/s", len(runs)*2)
	// Job times are per round, one memfault and one xcheck job: a median
	// over single jobs would sit between the two kinds' times.
	o.setMedian("job_local_s_p50", localS, "s")
	o.setMedian("job_fabric_s_p50", fabricS, "s")

	if e.tr != nil {
		for _, ft := range fabricJobs {
			first, done := jd.meter.fabricTimes(shortFP(ft.fingerprint))
			if !first.IsZero() {
				discover = append(discover, ms(first.Sub(ft.submit)))
			}
			if !done.IsZero() {
				lag = append(lag, ms(ft.watched.Sub(done)))
			}
		}
		o.setMedian("fabric.discover_wait_ms", discover, "ms")
		o.setMedian("fabric.watch_lag_ms", lag, "ms")
		o.setMedian("serve.job_submit_ms", jd.meter.byClass["job_submit"], "ms")
		o.setMedian("fabric.lease_ms", jd.meter.byClass["fabric_lease"], "ms")
		o.setMedian("fabric.complete_ms", jd.meter.byClass["fabric_complete"], "ms")
		o.set("fabric.leases", float64(jd.meter.leases), "count", 1)
		if l := median(localS); l > 0 {
			o.set("fabric.overhead_frac", median(fabricS)/l-1, "frac", len(fabricS))
		}
	}

	shards, steals := o.counters["campaign.shards_completed"], o.counters["campaign.steals"]
	o.set("campaign.shards", float64(shards), "count", 1)
	o.set("campaign.steals", float64(steals), "count", 1)
	o.set("campaign.steal_ratio", ratio(steals, shards), "frac", int(shards))
	granted := o.counters["fabric.leases_granted"]
	o.set("fabric.expired_ratio", ratio(o.counters["fabric.leases_expired"], granted), "frac", int(granted))
	o.set("fabric.stolen_ratio", ratio(o.counters["fabric.leases_stolen"], granted), "frac", int(granted))
	o.checkZeroCounters("serve.queue_rejects", "serve.catalog_ingest_failures",
		"campaign.shards_resumed", "campaign.journal_repaired")
	return o, checkJobReports(e, o, runs)
}

// checkJobReports runs every spec directly through campaign.Run in
// memory and requires both job reports to match it byte for byte.  On a
// traced run it also times, for the first directRounds rounds, each
// round's campaign.Run calls without and with a checkpoint directory;
// the difference within a round is the journal's cost.
func checkJobReports(e *env, o *outcome, runs []jobRun) error {
	mem, ckpt := map[int]time.Duration{}, map[int]time.Duration{}
	for i, r := range runs {
		timed := e.tr != nil && r.round < directRounds
		dir := filepath.Join(e.tmp, fmt.Sprintf("direct%d", i))
		// Odd rounds run the checkpointed pass first, so neither mode
		// always runs on a warmer process.
		if timed && r.round%2 == 1 {
			d, err := timeRun(r.spec, dir)
			if err != nil {
				return err
			}
			ckpt[r.round] += d
		}
		t0 := time.Now()
		res, err := campaign.Run(context.Background(), r.spec, campaign.Options{Workers: jobWorkers})
		if err != nil {
			return err
		}
		d := time.Since(t0)
		want, err := json.Marshal(res.Report)
		if err != nil {
			return err
		}
		if !bytes.Equal(r.local, want) || !bytes.Equal(r.fabric, want) {
			o.fail("%s job %d: local report identical=%v, fabric identical=%v to campaign.Run",
				r.spec.Kind(), i, bytes.Equal(r.local, want), bytes.Equal(r.fabric, want))
		}
		if !timed {
			continue
		}
		mem[r.round] += d
		if r.round%2 == 0 {
			d, err := timeRun(r.spec, dir)
			if err != nil {
				return err
			}
			ckpt[r.round] += d
		}
	}
	if e.tr != nil {
		var memMS, ckptMS, journal []float64
		for round, m := range mem {
			memMS = append(memMS, ms(m))
			ckptMS = append(ckptMS, ms(ckpt[round]))
			journal = append(journal, ms(ckpt[round]-m))
		}
		o.setMedian("campaign.run_mem_ms", memMS, "ms")
		o.setMedian("campaign.run_ckpt_ms", ckptMS, "ms")
		o.setMedian("campaign.journal_ms", journal, "ms")
	}
	return nil
}

// timeRun times campaign.Run of spec with its checkpoint journal in dir,
// which it removes afterwards.
func timeRun(spec campaign.Spec, dir string) (time.Duration, error) {
	defer os.RemoveAll(dir)
	t0 := time.Now()
	_, err := campaign.Run(context.Background(), spec, campaign.Options{Workers: jobWorkers, Dir: dir})
	return time.Since(t0), err
}

// shortFP is the fingerprint prefix campaigns are keyed by on the fabric.
func shortFP(fp string) string {
	if len(fp) > 16 {
		return fp[:16]
	}
	return fp
}
