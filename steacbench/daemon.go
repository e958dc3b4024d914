package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"steac/internal/fabric"
	"steac/internal/serve"
)

// spanHeader carries a client-side span id to the daemon middleware, so
// the handler span nests under the request span that caused it.
const spanHeader = "X-Steacbench-Span"

// exchange is one HTTP round trip as the client saw it.  An op puts a
// pointer to one in the request context; the metered transport fills it.
type exchange struct {
	span int
	rtt  time.Duration
	body []byte
}

type exchangeKey struct{}

// withExchange returns a context whose next request fills x.
func withExchange(ctx context.Context, x *exchange) context.Context {
	return context.WithValue(ctx, exchangeKey{}, x)
}

// meteredTransport times each round trip on the client side and keeps
// the raw response body, so hit and miss bodies can be compared byte for
// byte.  It is installed on every run; only its span header is specific
// to traced ops.
type meteredTransport struct {
	base http.RoundTripper
	// span, when set, tags requests that carry no exchange (the fabric
	// node's) with the current op's span.
	span func() int
}

func (t *meteredTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	x, _ := req.Context().Value(exchangeKey{}).(*exchange)
	span := 0
	if x != nil {
		span = x.span
	} else if t.span != nil {
		span = t.span()
	}
	if span != 0 {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.Itoa(span))
	}
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil || x == nil {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	x.rtt, x.body = time.Since(t0), body
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// handlerMeter is the middleware of a traced run around the daemon's
// handler.  It times each request carrying a span header as a handler
// span and notes the fabric lease and completion events.
type handlerMeter struct {
	tr *tracer

	mu        sync.Mutex
	byClass   map[string][]float64 // handler ms
	bySpan    map[int]time.Duration
	leases    int
	firstTake map[string]time.Time // campaign → end of its first granted lease
	doneAt    map[string]time.Time // campaign → end of the completion that finished it
}

func newHandlerMeter(tr *tracer) *handlerMeter {
	return &handlerMeter{tr: tr, byClass: map[string][]float64{}, bySpan: map[int]time.Duration{},
		firstTake: map[string]time.Time{}, doneAt: map[string]time.Time{}}
}

// captureWriter keeps a copy of the response body when asked to.
type captureWriter struct {
	http.ResponseWriter
	keep bool
	body bytes.Buffer
}

func (w *captureWriter) Write(p []byte) (int, error) {
	if w.keep {
		w.body.Write(p)
	}
	return w.ResponseWriter.Write(p)
}

func (m *handlerMeter) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
		if parent == 0 {
			h.ServeHTTP(w, r)
			return
		}
		fabricCall := r.URL.Path == "/v1/fabric/lease" || r.URL.Path == "/v1/fabric/complete"
		var reqBody []byte
		if fabricCall {
			reqBody, _ = io.ReadAll(r.Body) // a short read fails the handler's own decode
			r.Body = io.NopCloser(bytes.NewReader(reqBody))
		}
		cw := &captureWriter{ResponseWriter: w, keep: fabricCall}
		start := time.Now()
		h.ServeHTTP(cw, r)
		end := time.Now()
		class := classify(r, cw.Header().Get("X-Cache"))
		m.tr.record("", parent, "serve.handler."+class, start, end)
		m.mu.Lock()
		defer m.mu.Unlock()
		m.byClass[class] = append(m.byClass[class], ms(end.Sub(start)))
		m.bySpan[parent] = end.Sub(start)
		if fabricCall {
			m.fabricEvent(r.URL.Path, reqBody, cw.body.Bytes(), end)
		}
	})
}

// fabricEvent notes a lease grant or a finishing completion.  Callers
// hold m.mu.
func (m *handlerMeter) fabricEvent(path string, reqBody, respBody []byte, at time.Time) {
	var req struct {
		Campaign string `json:"campaign"`
	}
	if json.Unmarshal(reqBody, &req) != nil {
		return
	}
	if path == "/v1/fabric/lease" {
		var resp fabric.LeaseResponse
		if json.Unmarshal(respBody, &resp) == nil && len(resp.Leases) > 0 {
			m.leases++
			if _, ok := m.firstTake[shortFP(req.Campaign)]; !ok {
				m.firstTake[shortFP(req.Campaign)] = at
			}
		}
		return
	}
	var resp fabric.CompleteResponse
	if json.Unmarshal(respBody, &resp) == nil && resp.Done {
		m.doneAt[shortFP(req.Campaign)] = at
	}
}

// handlerFor returns the handler time of the request tagged with span.
func (m *handlerMeter) handlerFor(span int) (time.Duration, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.bySpan[span]
	return d, ok
}

// fabricTimes returns the first-lease and campaign-done times of a
// campaign.
func (m *handlerMeter) fabricTimes(fp string) (first, done time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.firstTake[fp], m.doneAt[fp]
}

// classify names the request class the metrics are reported under.
func classify(r *http.Request, cache string) string {
	switch p := r.URL.Path; {
	case p == "/v1/flow" && cache == "HIT":
		return "flow_hit"
	case p == "/v1/flow":
		return "flow_miss"
	case p == "/v1/sched":
		return "sched"
	case p == "/v1/catalog":
		return "catalog_list"
	case p == "/v1/catalog/compare":
		return "catalog_compare"
	case p == "/v1/recommend":
		return "recommend"
	case p == "/v1/jobs" && r.Method == http.MethodPost:
		return "job_submit"
	case strings.HasPrefix(p, "/v1/jobs/"):
		return "job_poll"
	case strings.HasPrefix(p, "/v1/fabric/"):
		// /v1/fabric/{lease,complete,...}, campaigns, campaigns/{fp} and
		// campaigns/{fp}/{progress,report}.
		parts := strings.Split(strings.TrimPrefix(p, "/v1/fabric/"), "/")
		switch len(parts) {
		case 2:
			return "fabric_campaign"
		case 3:
			return "fabric_" + parts[2]
		}
		return "fabric_" + parts[0]
	}
	return "other"
}

// daemon is an in-process steacd behind a loopback httptest server.
type daemon struct {
	srv       *serve.Server
	ts        *httptest.Server
	meter     *handlerMeter // nil on untraced runs
	transport *http.Transport
	dir       string

	nodeStop context.CancelFunc
	nodeDone chan error
}

// startDaemon starts serve.New(cfg) in dir.  On a traced run the handler
// is wrapped in the meter.
func startDaemon(dir string, tr *tracer, cfg serve.Config) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &daemon{srv: serve.New(cfg), dir: dir,
		transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	h := d.srv.Handler()
	if tr != nil {
		d.meter = newHandlerMeter(tr)
		h = d.meter.wrap(h)
	}
	d.ts = httptest.NewServer(h)
	return d, nil
}

// client returns a typed client whose requests go through the metered
// transport.
func (d *daemon) client(apiKey string) *serve.Client {
	return &serve.Client{Base: d.ts.URL, APIKey: apiKey,
		HTTP: &http.Client{Transport: &meteredTransport{base: d.transport}}}
}

// stop shuts the daemon down: the fabric node first, then the listener,
// then the drain that closes the job database and the catalog.
func (d *daemon) stop() error {
	var nodeErr error
	if d.nodeStop != nil {
		d.nodeStop()
		if err := <-d.nodeDone; err != nil && !errors.Is(err, context.Canceled) {
			nodeErr = fmt.Errorf("fabric node: %w", err)
		}
	}
	d.ts.Close()
	d.transport.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.srv.Drain(ctx); err != nil {
		return err
	}
	return nodeErr
}

// release stops a daemon built by an earlier set-up repetition and
// removes its directory.
func (d *daemon) release() {
	if err := d.stop(); err != nil {
		fmt.Fprintf(os.Stderr, "steacbench: stop set-up daemon: %v\n", err)
	}
	os.RemoveAll(d.dir)
}
