// Package serve is the STEAC flow daemon: an HTTP/JSON front end that
// accepts flow requests (the full DSC integration flow, scheduling sweeps,
// memory-fault coverage evaluation, gate-level xcheck campaigns) and runs
// them on a bounded worker pool behind a multi-tenant admission pipeline.
//
// The daemon's contract, in priority order:
//
//   - Identity first.  Every request is attributed to a tenant before any
//     resource decision (API keys from a tenants file, constant-time
//     compared; an anonymous single-tenant mode for dev).  With a tenant
//     set configured, an unknown key is 401 and never touches the queue.
//   - Bounded resources, fairly shared.  At most Config.Workers requests
//     compute at once.  Admission is deficit-round-robin fair queueing
//     across tenants: each tenant has its own bounded lane
//     (Config.QueueDepth deep) and a token-bucket rate limit plus a
//     concurrent-job quota from its tenant row.  A tenant that floods the
//     daemon fills only its own lane (429 ErrQueueFull) or its own bucket
//     (429 ErrQuotaExceeded); other tenants keep their round-robin share
//     of the pool.
//   - Deterministic memoization.  Every engine in the repository is
//     worker-count-invariant, so responses are content-addressed by the
//     canonical request hash (tuning fields zeroed; see requestKey) and
//     replayed from a bounded LRU.  A cache hit returns the exact bytes
//     the first computation produced.
//   - Prompt cancellation.  Each request runs under a deadline (TimeoutMS,
//     clamped to Config.MaxTimeout) and under the client's connection
//     context, both threaded into the engines, which poll at batch
//     boundaries — a disconnected client or expired deadline stops paying
//     for simulation within milliseconds.
//   - Typed errors.  Every non-2xx response carries the v1 wire envelope
//     {"error","code"}; serve.Client reconstructs the package sentinels
//     (ErrUnauthorized, ErrQuotaExceeded, ErrQueueFull, ErrDraining, ...)
//     so programmatic callers branch with errors.Is, not string matching.
//   - Graceful drain.  Drain stops admissions (503), lets queued and
//     in-flight work finish, then releases the workers; cmd/steacd wires
//     it to SIGTERM behind http.Server.Shutdown.
//
// Observability rides the existing obs registry: the global serve.*
// counters and gauges plus per-tenant serve.tenant.<id>.requests /
// .rejects / .queue_depth, exported as text via GET /metrics alongside
// every engine counter.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"steac/internal/catalog"
	"steac/internal/fabric"
	"steac/internal/obs"
	"steac/internal/sched"
)

// Config tunes the daemon.  The zero value serves with sensible bounds.
type Config struct {
	// Workers is the compute pool size (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds each tenant's admission lane (0 = 16).  The
	// global queue bound is QueueDepth × active tenants.
	QueueDepth int
	// CacheEntries bounds the response memo (0 = 128).
	CacheEntries int
	// DefaultTimeout is the per-request deadline when the request names
	// none (0 = 120s).
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested deadlines (0 = 10m).
	MaxTimeout time.Duration
	// Tenants is the identity registry (steacd -tenants).  Nil serves in
	// anonymous mode: every caller is the unlimited "anon" tenant.
	Tenants *TenantSet
	// JobDir is the checkpoint root for async campaign jobs (POST
	// /v1/jobs); each job journals under JobDir/<id> and the durable job
	// database lives at JobDir/jobs.jsonl.  Empty keeps job state in
	// memory only — jobs still run, but nothing survives a restart.
	JobDir string
	// MaxJobs bounds concurrently running campaign jobs across all
	// tenants (0 = 2).  Jobs run on their own pool — a long campaign
	// never starves the synchronous request workers.  Per-tenant job
	// quotas come from the tenant rows.
	MaxJobs int
	// CatalogDir is the durable results-catalog root (steacd -catalog-dir).
	// When set, every completed flow run, scheduling sweep point, and
	// campaign job is ingested as a content-addressed catalog.Record, the
	// /v1/catalog and /v1/recommend endpoints come live, and completed jobs
	// already in the job database are backfilled on startup.  Empty
	// disables the catalog (the endpoints answer 400).
	CatalogDir string
	// Fabric, when non-nil, makes this daemon a fabric coordinator: the
	// /v1/fabric/* protocol is mounted on the same mux, and jobs
	// submitted with "fabric": true are distributed to leased nodes
	// instead of the local pool.  The caller constructs the coordinator
	// (cmd/steacd's -coordinator flag) so its checkpoint dir and TTL are
	// configured in one place.
	Fabric *fabric.Coordinator
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 128
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 120 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.Tenants == nil {
		c.Tenants = anonymousTenants()
	}
	return c
}

// Observability handles (always-live counters; see package obs).
var (
	obsRequests   = obs.GetCounter("serve.requests")
	obsAuthFails  = obs.GetCounter("serve.auth_failures")
	obsQuotaRejs  = obs.GetCounter("serve.quota_rejects")
	obsCacheHits  = obs.GetCounter("serve.cache_hits")
	obsCacheMiss  = obs.GetCounter("serve.cache_misses")
	obsRejects    = obs.GetCounter("serve.queue_rejects")
	obsQueueDepth = obs.GetGauge("serve.queue_depth")
	obsInflight   = obs.GetGauge("serve.inflight")
)

// job is one admitted request travelling from the HTTP handler to a pool
// worker and back.
type job struct {
	ctx  context.Context
	run  func(ctx context.Context) (interface{}, error)
	done chan jobResult
}

type jobResult struct {
	val interface{}
	err error
}

// Server is the daemon core, independent of the actual listener so tests
// drive it through httptest.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	cache    *lruCache
	queue    *fairQueue
	jobMgr   *jobManager
	catalog  *catalog.Store // nil without CatalogDir
	catErr   error          // deferred catalog.Open failure, surfaced per request
	workers  sync.WaitGroup
	pending  sync.WaitGroup // admitted jobs not yet answered
	inflight atomic.Int64
	draining atomic.Bool
	drained  sync.Once
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		mux:   http.NewServeMux(),
		cache: newLRU(cfg.CacheEntries),
		queue: newFairQueue(cfg.QueueDepth),
	}
	s.jobMgr = newJobManager(s.cfg.JobDir, s.cfg.MaxJobs, s.cfg.Workers)
	s.jobMgr.fabric = s.cfg.Fabric
	if s.cfg.CatalogDir != "" {
		s.catalog, s.catErr = catalog.Open(s.cfg.CatalogDir)
		if s.catErr == nil {
			s.jobMgr.ingest = s.ingestJobRecord
			s.backfillCatalog()
		}
	}
	if s.cfg.Fabric != nil {
		s.cfg.Fabric.Register(s.mux)
	}
	for i := 0; i < s.cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	s.mux.HandleFunc("POST /v1/flow", handle(s, "flow", func() *FlowRequest { return &FlowRequest{} }))
	s.mux.HandleFunc("POST /v1/sched", handle(s, "sched", func() *SchedRequest { return &SchedRequest{} }))
	s.mux.HandleFunc("POST /v1/memfault", handle(s, "memfault", func() *MemfaultRequest { return &MemfaultRequest{} }))
	s.mux.HandleFunc("POST /v1/xcheck", handle(s, "xcheck", func() *XCheckRequest { return &XCheckRequest{} }))
	s.mux.HandleFunc("GET /v1/catalog", s.handleCatalogList)
	s.mux.HandleFunc("GET /v1/catalog/compare", s.handleCatalogCompare)
	s.mux.HandleFunc("GET /v1/catalog/{fingerprint}", s.handleCatalogGet)
	s.mux.HandleFunc("POST /v1/recommend", s.handleRecommend)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("GET /healthz", s.healthz)
	s.mux.HandleFunc("GET /metrics", s.metrics)
	return s
}

// Handler exposes the daemon as an http.Handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain stops admitting work, checkpoints and cancels async campaign jobs
// (their in-flight shards are journaled before the job unwinds, so a
// restarted daemon resumes them), waits for every queued and in-flight
// synchronous job to finish (or ctx to expire), then stops the worker
// pool.  It is the SIGTERM path: call http.Server.Shutdown first so no new
// connections race the drain, then Drain.  Safe to call once; later calls
// return immediately.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	if err := s.jobMgr.drain(ctx); err != nil {
		return err
	}
	finished := make(chan struct{})
	go func() {
		s.pending.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-ctx.Done():
		return fmt.Errorf("serve: drain: %w", ctx.Err())
	}
	s.drained.Do(func() { s.queue.close() })
	s.workers.Wait()
	// Every producer is gone; release the catalog's and the job
	// database's append handles.
	if err := s.catalog.Close(); err != nil {
		return fmt.Errorf("serve: drain: close catalog: %w", err)
	}
	if err := s.jobMgr.db.close(); err != nil {
		return fmt.Errorf("serve: drain: close job db: %w", err)
	}
	return nil
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

func (s *Server) worker() {
	defer s.workers.Done()
	for {
		j, ok := s.queue.pop()
		if !ok {
			return
		}
		obsQueueDepth.Set(int64(s.queue.len()))
		obsInflight.Set(s.inflight.Add(1))
		val, err := j.run(j.ctx)
		obsInflight.Set(s.inflight.Add(-1))
		j.done <- jobResult{val: val, err: err}
		s.pending.Done()
	}
}

// submit enqueues work on the tenant's fair-queue lane without blocking: a
// full lane is an immediate ErrQueueFull (admission control), a draining
// server an ErrDraining.
func (s *Server) submit(ctx context.Context, tn *tenantState, run func(context.Context) (interface{}, error)) (*job, error) {
	if s.draining.Load() {
		return nil, ErrDraining
	}
	if tn == nil {
		tn = s.cfg.Tenants.anon
		if tn == nil {
			tn = s.cfg.Tenants.tenants[0]
		}
	}
	j := &job{ctx: ctx, run: run, done: make(chan jobResult, 1)}
	s.pending.Add(1)
	if err := s.queue.push(tn, j); err != nil {
		s.pending.Done()
		if errors.Is(err, ErrQueueFull) {
			obsRejects.Add(1)
			tn.rejects.Add(1)
		}
		return nil, err
	}
	obsQueueDepth.Set(int64(s.queue.len()))
	return j, nil
}

// runner is the common shape of every request type in requests.go.
type runner interface {
	canonical() interface{}
	run(ctx context.Context) (interface{}, error)
}

// timeoutMS is implemented by every request carrying the shared TimeoutMS
// tuning field.
type timeoutMS interface{ timeout() time.Duration }

func (r FlowRequest) timeout() time.Duration  { return time.Duration(r.TimeoutMS) * time.Millisecond }
func (r SchedRequest) timeout() time.Duration { return time.Duration(r.TimeoutMS) * time.Millisecond }
func (r MemfaultRequest) timeout() time.Duration {
	return time.Duration(r.TimeoutMS) * time.Millisecond
}
func (r XCheckRequest) timeout() time.Duration { return time.Duration(r.TimeoutMS) * time.Millisecond }

// response is the wire envelope: the memoized result plus whether it came
// from the cache.
type response struct {
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
}

// handle builds the POST handler for one endpoint — the admission
// pipeline, in order: authenticate, rate-limit, decode, cache lookup,
// fair-queue admission, deadline, compute, memoize.
func handle[R runner](s *Server, endpoint string, fresh func() R) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		obsRequests.Add(1)
		tn, err := s.cfg.Tenants.authenticate(r)
		if err != nil {
			obsAuthFails.Add(1)
			writeError(w, err)
			return
		}
		tn.reqs.Add(1)
		if !tn.allow() {
			obsQuotaRejs.Add(1)
			tn.rejects.Add(1)
			writeError(w, fmt.Errorf("%w: tenant %q rate limit (%g/s, burst %d)",
				ErrQuotaExceeded, tn.ID, tn.RatePerSec, tn.Burst))
			return
		}
		req := fresh()
		body, err := io.ReadAll(io.LimitReader(r.Body, 16<<20))
		if err != nil {
			writeError(w, badRequestf("serve: read request body: %v", err))
			return
		}
		if len(body) > 0 {
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(req); err != nil {
				writeError(w, badRequestf("serve: bad request body: %v", err))
				return
			}
		}
		key, err := requestKey(endpoint, req.canonical())
		if err != nil {
			writeError(w, badRequestf("serve: canonicalize request: %v", err))
			return
		}
		if blob, ok := s.cache.get(key); ok {
			obsCacheHits.Add(1)
			writeResult(w, blob, true)
			return
		}
		obsCacheMiss.Add(1)

		timeout := s.cfg.DefaultTimeout
		if t, ok := any(req).(timeoutMS); ok && t.timeout() > 0 {
			timeout = t.timeout()
		}
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()

		j, err := s.submit(ctx, tn, req.run)
		if err != nil {
			writeError(w, err)
			return
		}
		res := <-j.done
		if res.err != nil {
			writeError(w, res.err)
			return
		}
		blob, err := json.Marshal(res.val)
		if err != nil {
			writeError(w, err)
			return
		}
		s.cache.put(key, blob)
		// First computation of this content address: catalog it.  Cache
		// hits above never re-ingest — the record already exists.
		if src, ok := any(req).(catalogSource); ok {
			s.catalogIngest(src.catalogRecords(key, tn.ID, res.val))
		}
		writeResult(w, blob, false)
	}
}

func isInfeasible(err error) bool { return errors.Is(err, sched.ErrInfeasible) }

func writeResult(w http.ResponseWriter, blob []byte, cached bool) {
	w.Header().Set("Content-Type", "application/json")
	if cached {
		w.Header().Set("X-Cache", "HIT")
	} else {
		w.Header().Set("X-Cache", "MISS")
	}
	_ = json.NewEncoder(w).Encode(response{Cached: cached, Result: blob})
}

// writeError answers one request with the v1 typed error envelope.
func writeError(w http.ResponseWriter, err error) {
	status, code := wireFor(err)
	w.Header().Set("Content-Type", "application/json")
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(wireError{Error: err.Error(), Code: code})
}

// healthz answers 200 while serving and 503 once draining, so load
// balancers stop routing during shutdown.
func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// metrics exports every obs counter and gauge as "name value" text lines —
// the daemon's own serve.* metrics (including the per-tenant
// serve.tenant.<id>.* series) next to all engine counters — plus the
// cache size.
func (s *Server) metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, m := range obs.Counters() {
		fmt.Fprintf(w, "%s %d\n", m.Name, m.Value)
	}
	for _, m := range obs.Gauges() {
		fmt.Fprintf(w, "%s %d\n", m.Name, m.Value)
	}
	fmt.Fprintf(w, "serve.cache_entries %d\n", s.cache.len())
	fmt.Fprintf(w, "serve.catalog_records %d\n", s.catalog.Len())
	fmt.Fprintf(w, "serve.draining %d\n", b2i(s.draining.Load()))
}

func b2i(v bool) int64 {
	if v {
		return 1
	}
	return 0
}
