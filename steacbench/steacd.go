package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"steac/internal/catalog"
	"steac/internal/core"
	"steac/internal/march"
	"steac/internal/recommend"
	"steac/internal/report"
	"steac/internal/scenario"
	"steac/internal/serve"
)

// The steacd-mixed request mix.  Nothing in the repository records the
// proportions real traffic has, so a round is the plainest mix: one
// request of every class for every scenario.  The catalog is seeded the
// way TestCatalogRecommendEndToEnd seeds it: each scenario swept at
// mixSeedSweeps seeds over the pin budgets mixPins.
const (
	mixClients    = 2
	mixSetups     = 25
	mixSeedSweeps = 4
	// mixListLimit caps a listing: an assumption, one page for a reader.
	// No request in the repository sets a limit, and an unlimited
	// listing would grow with the catalog the run writes.
	mixListLimit = 50
	// mixWaitSamples bounds the misses re-run directly after a traced
	// window to split handler time into flow compute and waiting.
	mixWaitSamples = 24
)

// mixPins are the pin budgets of every scheduling sweep.
var mixPins = []int{16, 24, 32}

// envelope is the daemon's response envelope, kept raw.
type envelope struct {
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
}

// mixRun is the state the steacd-mixed clients share.
type mixRun struct {
	e *env
	o *outcome
	d *daemon

	mu      sync.Mutex
	used    map[[2]int64]bool    // (scenario index, seed) pairs already requested
	rtt     map[string][]float64 // client-side rtt by class, ms
	spans   map[string][]int     // traced request spans by class
	missRun []serve.FlowRequest  // traced misses, for the wait split
	missSp  []int                // their spans
}

// freshSeed draws a chip seed no earlier request used for scenario sc.
func (m *mixRun) freshSeed(rng *rand.Rand, sc int) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		s := rng.Int63n(1 << 40)
		if !m.used[[2]int64{int64(sc), s}] {
			m.used[[2]int64{int64(sc), s}] = true
			return s
		}
	}
}

// call runs one request of a round as its own span and records its rtt.
func (m *mixRun) call(ctx context.Context, run string, root int, class string,
	do func(ctx context.Context) error) (*exchange, error) {
	x := &exchange{}
	if root != 0 {
		x.span = m.e.tr.start(run, root, "serve."+class)
	}
	err := do(withExchange(ctx, x))
	m.e.tr.stop(x.span)
	if err != nil {
		return x, fmt.Errorf("%s: %w", class, err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if root == 0 && m.e.tr != nil {
		return x, nil // untraced op of a traced run: only the round time counts
	}
	m.rtt[class] = append(m.rtt[class], ms(x.rtt))
	if x.span != 0 {
		m.spans[class] = append(m.spans[class], x.span)
	}
	return x, nil
}

// mixClient is one closed-loop caller.
type mixClient struct {
	m   *mixRun
	cl  *serve.Client
	rng *rand.Rand
}

// round is one op: for every scenario, one request of each class.
func (c *mixClient) round(ctx context.Context, run string, root int) error {
	for sc := range sweepScenarios {
		if err := c.scenarioRequests(ctx, run, root, sc); err != nil {
			return err
		}
	}
	return nil
}

// scenarioRequests sends one request of each class for scenario sc: a
// fresh flow (a cache miss, which ingests one catalog record), the same
// flow again (a cache hit, which must return the miss's exact result
// bytes), a fresh scheduling sweep, a catalog listing, a compare table
// and a recommendation for the chip of the fresh flow.
func (c *mixClient) scenarioRequests(ctx context.Context, run string, root int, sc int) error {
	m := c.m
	chip := sweepScenarios[sc]
	req := serve.FlowRequest{Chip: chip, Seed: m.freshSeed(c.rng, sc)}
	if err := c.missThenHit(ctx, run, root, req); err != nil {
		return err
	}

	sreq := serve.SchedRequest{Chip: chip, Seed: m.freshSeed(c.rng, sc), TestPins: mixPins}
	if _, err := m.call(ctx, run, root, "sched", func(ctx context.Context) error {
		res, cached, err := c.cl.Sched(ctx, sreq)
		if err == nil && (cached || len(res.Points) != len(mixPins)) {
			err = fmt.Errorf("fresh sweep answered cached=%v with %d points", cached, len(res.Points))
		}
		return err
	}); err != nil {
		return err
	}

	q := catalog.Query{Scenario: chip, Limit: mixListLimit}
	if _, err := m.call(ctx, run, root, "catalog_list", func(ctx context.Context) error {
		res, err := c.cl.Catalog(ctx, q)
		if err != nil {
			return err
		}
		if len(res.Records) == 0 || len(res.Records) > mixListLimit {
			return fmt.Errorf("listing %s returned %d records", q.Scenario, len(res.Records))
		}
		for _, rec := range res.Records {
			if rec.Scenario != q.Scenario {
				return fmt.Errorf("listing %s returned a %s record", q.Scenario, rec.Scenario)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if _, err := m.call(ctx, run, root, "catalog_compare", func(ctx context.Context) error {
		blob, err := c.cl.CatalogCompare(ctx, "json", q)
		if err != nil {
			return err
		}
		cmp, err := report.DecodeCompare(blob)
		if err == nil && len(cmp.Rows) == 0 {
			err = fmt.Errorf("compare %s has no rows", q.Scenario)
		}
		return err
	}); err != nil {
		return err
	}

	rreq := serve.RecommendRequest{Scenario: req.Chip, Seed: req.Seed}
	_, err := m.call(ctx, run, root, "recommend", func(ctx context.Context) error {
		sug, err := c.cl.Recommend(ctx, rreq)
		if err == nil && (len(sug.Basis) == 0 || sug.TamWidth <= 0) {
			err = fmt.Errorf("recommendation for %s seed %d has no basis", rreq.Scenario, rreq.Seed)
		}
		return err
	})
	return err
}

// missThenHit requests a fresh flow, which must be computed, then the
// same flow again, which must come from the cache with the miss's exact
// result bytes.
func (c *mixClient) missThenHit(ctx context.Context, run string, root int, req serve.FlowRequest) error {
	m := c.m
	x, err := m.call(ctx, run, root, "flow_miss", func(ctx context.Context) error {
		_, _, err := c.cl.Flow(ctx, req)
		return err
	})
	if err != nil {
		return err
	}
	var miss envelope
	if err := json.Unmarshal(x.body, &miss); err != nil || miss.Cached {
		return fmt.Errorf("flow_miss %s seed %d: fresh request answered cached=%v (%v)", req.Chip, req.Seed, miss.Cached, err)
	}
	if root != 0 {
		m.mu.Lock()
		m.missRun = append(m.missRun, req)
		m.missSp = append(m.missSp, x.span)
		m.mu.Unlock()
	}

	x, err = m.call(ctx, run, root, "flow_hit", func(ctx context.Context) error {
		_, _, err := c.cl.Flow(ctx, req)
		return err
	})
	if err != nil {
		return err
	}
	var hit envelope
	if err := json.Unmarshal(x.body, &hit); err != nil || !hit.Cached || !bytes.Equal(hit.Result, miss.Result) {
		return fmt.Errorf("flow_hit %s seed %d: cached=%v, result identical to miss=%v (%v)",
			req.Chip, req.Seed, hit.Cached, bytes.Equal(hit.Result, miss.Result), err)
	}
	return nil
}

// startMixDaemon builds one steacd-mixed daemon and seeds its catalog
// with scheduling sweeps, so recommendations have neighbours from the
// first round.
func startMixDaemon(e *env, rep int) (*daemon, error) {
	dir := filepath.Join(e.tmp, fmt.Sprintf("daemon%d", rep))
	d, err := startDaemon(dir, e.tr, serve.Config{
		Workers:    mixClients,
		JobDir:     filepath.Join(dir, "jobs"),
		CatalogDir: filepath.Join(dir, "catalog"),
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.seed))
	cl := d.client("")
	for _, sc := range sweepScenarios {
		for k := 0; k < mixSeedSweeps; k++ {
			req := serve.SchedRequest{Chip: sc, Seed: 1<<41 + rng.Int63n(1<<30), TestPins: mixPins}
			if _, _, err := cl.Sched(context.Background(), req); err != nil {
				d.release()
				return nil, fmt.Errorf("seed catalog: %w", err)
			}
		}
	}
	return d, nil
}

// runSteacdMixed is the steacd-mixed workload: mixClients closed-loop
// callers on one daemon with a durable job directory and catalog.  An op
// is one round of the mix (see mixClient.round).
func runSteacdMixed(e *env) (*outcome, error) {
	o := newOutcome(mixClients)
	d, err := repeatSetup(o, mixSetups, func(rep int) (*daemon, error) {
		return startMixDaemon(e, rep)
	}, (*daemon).release)
	if err != nil {
		return nil, err
	}
	m := &mixRun{e: e, o: o, d: d, used: map[[2]int64]bool{},
		rtt: map[string][]float64{}, spans: map[string][]int{}}

	ctx := context.Background()
	w := o.startWindow()
	var wg sync.WaitGroup
	for ci := 0; ci < mixClients; ci++ {
		c := &mixClient{m: m, cl: d.client(""), rng: rand.New(rand.NewSource(e.seed*7919 + int64(ci) + 1))}
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for i := 0; time.Since(w.t0) < e.window; i++ {
				run := fmt.Sprintf("c%d.op%d", ci, i)
				root := 0
				if e.traced(i) {
					root = e.tr.start(run, 0, "round")
				}
				t0 := time.Now()
				err := c.round(ctx, run, root)
				elapsed := time.Since(t0)
				e.tr.stop(root)
				o.op(root != 0, elapsed, err)
			}
		}(ci)
	}
	wg.Wait()
	o.endWindow(w)
	if err := d.stop(); err != nil {
		return nil, err
	}

	o.setLatencyTail()
	o.setMedian("hit_latency_ms_p50", m.rtt["flow_hit"], "ms")
	o.setMedian("miss_latency_ms_p50", m.rtt["flow_miss"], "ms")
	hits, misses := o.counters["serve.cache_hits"], o.counters["serve.cache_misses"]
	o.set("serve.cache_hit_ratio", ratio(hits, hits+misses), "frac", int(hits+misses))
	o.set("serve.cache_lookups", float64(hits+misses), "count", 1)
	o.checkZeroCounters("serve.queue_rejects", "serve.catalog_ingest_failures")
	if e.tr != nil {
		if err := m.layerFigures(); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// layerFigures derives the traced run's per-layer metrics: client rtt
// and handler time per class, the transport share, the wait inside a
// flow miss, and direct timings of the catalog, report and recommend
// layers on the catalog the run left behind.
func (m *mixRun) layerFigures() error {
	o, meter := m.o, m.d.meter
	var transport []float64
	for _, class := range []string{"flow_miss", "flow_hit", "sched", "catalog_list", "catalog_compare", "recommend"} {
		o.setMedian("serve.rtt_ms."+class, m.rtt[class], "ms")
		o.setMedian("serve.handler_ms."+class, meter.byClass[class], "ms")
	}
	for class, spans := range m.spans {
		for i, sp := range spans {
			if h, ok := meter.handlerFor(sp); ok {
				transport = append(transport, m.rtt[class][i]-ms(h))
			}
		}
	}
	o.setMedian("serve.transport_ms", transport, "ms")

	// Split a miss's handler time into the flow itself and the rest:
	// admission, queueing, chip generation, ingest and encoding.
	var wait []float64
	for i, miss := range m.missRun {
		if i == mixWaitSamples {
			break
		}
		h, ok := meter.handlerFor(m.missSp[i])
		if !ok {
			continue
		}
		in, err := chipInput(miss.Chip, miss.Seed, false)
		if err != nil {
			return err
		}
		if in.BISTOptions.Algorithm.Name == "" {
			in.BISTOptions.Algorithm = march.MarchCMinus() // the daemon's default
		}
		t0 := time.Now()
		if _, err := core.RunFlowContext(context.Background(), in); err != nil {
			return err
		}
		wait = append(wait, ms(h-time.Since(t0)))
	}
	o.setMedian("serve.wait_ms.flow_miss", wait, "ms")
	return catalogFigures(o, filepath.Join(m.d.dir, "catalog"), filepath.Join(m.e.tmp, "catalog-replay"))
}

// catalogFigures times the catalog layer directly: every record of the
// run replayed into a fresh store (Store.Put, fsync included), listings
// and compare tables per scenario, and recommendations over the whole
// population.
func catalogFigures(o *outcome, dir, replayDir string) error {
	st, err := catalog.Open(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	recs := st.List(catalog.Query{})
	o.set("catalog.records", float64(len(recs)), "count", 1)

	fresh, err := catalog.Open(replayDir)
	if err != nil {
		return err
	}
	var put []float64
	for _, rec := range recs {
		t0 := time.Now()
		if err := fresh.Put(rec); err != nil {
			fresh.Close()
			return err
		}
		put = append(put, ms(time.Since(t0)))
	}
	if err := fresh.Close(); err != nil {
		return err
	}
	os.RemoveAll(replayDir)
	o.setMedian("catalog.put_ms", put, "ms")

	var list, cmp, rec []float64
	for _, sc := range sweepScenarios {
		for k := 0; k < 5; k++ {
			q := catalog.Query{Tenant: serve.AnonTenant, Scenario: sc, Limit: mixListLimit}
			t0 := time.Now()
			got := st.List(q)
			list = append(list, ms(time.Since(t0)))
			t0 = time.Now()
			if _, err := catalog.CompareRecords(got).JSON(); err != nil {
				return err
			}
			cmp = append(cmp, ms(time.Since(t0)))
		}
		chip, err := scenario.GenerateByName(sc, 1)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := recommend.Recommend(st.List(catalog.Query{Tenant: serve.AnonTenant}),
			recommend.Request{Cores: chip.Cores, Memories: chip.Memories}); err != nil {
			return err
		}
		rec = append(rec, ms(time.Since(t0)))
	}
	o.setMedian("catalog.list_ms", list, "ms")
	o.setMedian("report.compare_ms", cmp, "ms")
	o.setMedian("recommend.ms", rec, "ms")
	return nil
}
