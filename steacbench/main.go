// Command steacbench is the repository benchmark.  It drives the STEAC
// flow, the steacd daemon and the campaign fabric from outside, through
// their public Go APIs and HTTP endpoints, on four seeded workloads:
//
//	lbist-verify    a generated P1500 logic-BIST chip through the verifying
//	                flow, and the paper's DSC chip verified once
//	scenario-sweep  generated scenario chips through the flow, no verify
//	steacd-mixed    two clients on an in-process daemon: misses, hits,
//	                sweeps and catalog reads
//	campaign-jobs   fault-campaign jobs on the local pool and the fabric
//
// Every workload checks its outputs; a wrong output counts as a failed
// op.  An untraced run (--trace 0) prints the end-to-end metrics; a
// traced run (--trace 1) records spans around the calls into each layer
// and prints the per-layer metrics.  The last line of standard output
// is always one JSON object: {"correct","attempted","failed","metrics"}.
//
// Run it from the repository root:
//
//	bash steacbench/run.sh --workload lbist-verify --seed 1 --seconds 28 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"steac/internal/obs"
)

// workloadFunc runs one workload and returns what it measured.
type workloadFunc func(e *env) (*outcome, error)

var workloads = map[string]workloadFunc{
	"lbist-verify":   runLBISTVerify,
	"scenario-sweep": runScenarioSweep,
	"steacd-mixed":   runSteacdMixed,
	"campaign-jobs":  runCampaignJobs,
}

// workloadOrder is the order --workload all runs them in.
var workloadOrder = []string{"lbist-verify", "scenario-sweep", "steacd-mixed", "campaign-jobs"}

// env is what a workload is handed: its seed, how long to measure, the
// tracer (nil on untraced runs) and a scratch directory it owns.
type env struct {
	seed   int64
	window time.Duration
	tr     *tracer
	tmp    string
}

// traced reports whether the i-th op of a client is traced.  Traced runs
// alternate traced and untraced ops, so the tracing overhead is measured
// on the same inputs at the same time.
func (e *env) traced(i int) bool { return e.tr != nil && i%2 == 1 }

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadOrder, ", ")+", or all")
		seed     = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Int("seconds", 28, "length of the measured window in seconds")
		traceOn  = flag.Int("trace", 0, "1 = traced run: record spans and report per-layer metrics")
		outPath  = flag.String("out", "", "also write the full result, with provenance, as JSON to this file")
		compare  = flag.String("compare", "", "compare two result files written by -out, given as A,B, instead of running")
	)
	flag.Parse()
	// The program's own obs spans stay off, as they are by default; the
	// benchmark records its spans from outside.
	obs.Disable()
	if *compare != "" {
		os.Exit(compareResults(*compare))
	}
	if *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fatalf("--seconds must be at least 1 and --trace 0 or 1")
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadOrder
	} else if workloads[*workload] == nil {
		fatalf("unknown --workload %q (want one of %s, or all)", *workload, strings.Join(workloadOrder, ", "))
	}

	var results []*result
	for _, name := range names {
		r, err := runOne(name, *seed, time.Duration(*seconds)*time.Second, *traceOn == 1)
		if err != nil {
			fatalf("%s: %v", name, err)
		}
		r.print(os.Stdout)
		results = append(results, r)
	}
	if *outPath != "" {
		blob, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			fatalf("encode results: %v", err)
		}
		if err := os.WriteFile(*outPath, append(blob, '\n'), 0o644); err != nil {
			fatalf("write results: %v", err)
		}
	}
	line, err := json.Marshal(summary(results))
	if err != nil {
		fatalf("encode summary: %v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "steacbench: "+format+"\n", args...)
	os.Exit(1)
}

// runOne runs a workload in a fresh scratch directory under the
// benchmark's build directory and turns its outcome into a result.
func runOne(name string, seed int64, window time.Duration, traced bool) (*result, error) {
	root, err := filepath.Abs(filepath.Join(".bench_build", "tmp"))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(root, name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	e := &env{seed: seed, window: window, tmp: tmp}
	resetPeakRSS()
	if traced {
		e.tr = newTracer()
	}
	o, err := workloads[name](e)
	if err != nil {
		return nil, err
	}
	r := newResult(name, e, o)
	if traced {
		path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
		if err := e.tr.writeFile(path); err != nil {
			return nil, err
		}
		r.SpanFile = path
		r.SelfTime = e.tr.selfTimes()
	}
	return r, nil
}

// summary is the contract line: end-to-end metrics on untraced runs,
// per-layer metrics on traced runs.  With several workloads (--workload
// all) every metric name is prefixed with its workload.
func summary(results []*result) map[string]any {
	correct, attempted, failed := true, 0, 0
	metrics := map[string]map[string]any{}
	for _, r := range results {
		correct = correct && r.Correct
		attempted += r.Attempted
		failed += r.Failed
		for _, m := range r.Metrics {
			name := m.Name
			if len(results) > 1 {
				name = r.Workload + "." + name
			}
			metrics[name] = map[string]any{"value": m.Value, "unit": m.Unit}
		}
	}
	return map[string]any{"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
}

// compareResults prints B's metrics as ratios of A's, for two result
// files written by -out.  It refuses files from differently shaped hosts
// (CPU count, GOMAXPROCS, Go version) or different workloads: their
// numbers say more about the host than about the code.
func compareResults(arg string) int {
	paths := strings.Split(arg, ",")
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "steacbench: -compare wants two files, A,B")
		return 2
	}
	var sides [2][]*result
	for i, p := range paths {
		blob, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(blob, &sides[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "steacbench: read %s: %v\n", p, err)
			return 2
		}
	}
	if len(sides[0]) != len(sides[1]) {
		fmt.Fprintln(os.Stderr, "steacbench: the files hold different numbers of workloads")
		return 3
	}
	for i, a := range sides[0] {
		b := sides[1][i]
		if why := a.Provenance.mismatch(b.Provenance); why != "" {
			fmt.Fprintf(os.Stderr, "steacbench: refusing to compare: %s\n", why)
			return 3
		}
		if a.Workload != b.Workload || a.Traced != b.Traced {
			fmt.Fprintf(os.Stderr, "steacbench: refusing to compare %s (traced=%v) with %s (traced=%v)\n",
				a.Workload, a.Traced, b.Workload, b.Traced)
			return 3
		}
		bm := map[string]metric{}
		for _, m := range b.Metrics {
			bm[m.Name] = m
		}
		for _, m := range a.Metrics {
			ratio := "n/a"
			if m.Value != 0 {
				ratio = fmt.Sprintf("%+.1f%%", (bm[m.Name].Value/m.Value-1)*100)
			}
			fmt.Printf("%-16s %-28s %14.4f %14.4f %8s %s\n", a.Workload, m.Name, m.Value, bm[m.Name].Value, ratio, m.Unit)
		}
	}
	return 0
}

// provenance is the host and input shape a result was measured under.
type provenance struct {
	NumCPU     int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	GitRev     string            `json:"git_rev"`
	Seed       int64             `json:"seed"`
	Clients    int               `json:"clients"`
	TempFS     string            `json:"temp_fs"`
	Polls      map[string]string `json:"polls,omitempty"`
}

// mismatch names the first host-shape difference between two results.
func (p provenance) mismatch(q provenance) string {
	switch {
	case p.NumCPU != q.NumCPU:
		return fmt.Sprintf("nproc %d vs %d", p.NumCPU, q.NumCPU)
	case p.GOMAXPROCS != q.GOMAXPROCS:
		return fmt.Sprintf("GOMAXPROCS %d vs %d", p.GOMAXPROCS, q.GOMAXPROCS)
	case p.GoVersion != q.GoVersion:
		return fmt.Sprintf("Go %s vs %s", p.GoVersion, q.GoVersion)
	case p.Clients != q.Clients:
		return fmt.Sprintf("%d vs %d clients", p.Clients, q.Clients)
	}
	return ""
}

// result is one workload's full record: what -out writes.
type result struct {
	Workload   string                   `json:"workload"`
	Traced     bool                     `json:"traced"`
	Provenance provenance               `json:"provenance"`
	Correct    bool                     `json:"correct"`
	Attempted  int                      `json:"attempted"`
	Failed     int                      `json:"failed"`
	Failures   []string                 `json:"failures,omitempty"`
	Metrics    []metric                 `json:"metrics"`
	Figures    []metric                 `json:"figures"`
	Counters   map[string]int64         `json:"counters"`
	SelfTime   map[string]time.Duration `json:"self_time_ns,omitempty"`
	SpanFile   string                   `json:"span_file,omitempty"`
}

func newResult(name string, e *env, o *outcome) *result {
	r := &result{
		Workload: name,
		Traced:   e.tr != nil,
		Provenance: provenance{
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			GitRev:     gitRevision,
			Seed:       e.seed,
			Clients:    o.clients,
			TempFS:     fsType(e.tmp),
			Polls:      o.polls,
		},
		Attempted: o.attempted,
		Failed:    o.failed,
		Failures:  o.failures,
		Counters:  o.counters,
	}
	if r.Attempted < 1 {
		r.Attempted = 1
		r.Failed = 1
		r.Failures = append(r.Failures, "no op completed in the window")
	}
	r.Correct = r.Failed == 0
	r.Figures = o.figures()
	if r.Traced {
		r.Metrics = o.layerMetrics()
	} else {
		r.Metrics = o.endToEnd()
	}
	return r
}

// print writes the human-readable report for one workload.
func (r *result) print(w *os.File) {
	prov, _ := json.Marshal(r.Provenance)
	fmt.Fprintf(w, "== %s (traced=%v)\nprovenance %s\n", r.Workload, r.Traced, prov)
	fmt.Fprintf(w, "ops attempted %d, failed %d, correct %v\n", r.Attempted, r.Failed, r.Correct)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
	for _, m := range r.Figures {
		fmt.Fprintf(w, "  %-30s %16.6g %-10s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
	if len(r.SelfTime) > 0 {
		fmt.Fprintf(w, "self time by span (spans in %s):\n", r.SpanFile)
		var total time.Duration
		names := make([]string, 0, len(r.SelfTime))
		for name, d := range r.SelfTime {
			names = append(names, name)
			total += d
		}
		sort.Slice(names, func(i, j int) bool { return r.SelfTime[names[i]] > r.SelfTime[names[j]] })
		for _, name := range names {
			d := r.SelfTime[name]
			fmt.Fprintf(w, "  %-30s %12.3f ms %6.1f%%\n", name, ms(d), 100*float64(d)/float64(total))
		}
	}
	names := make([]string, 0, len(r.Counters))
	for name := range r.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  counter %-40s %+d\n", name, r.Counters[name])
	}
}
