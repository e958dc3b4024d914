package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"steac/internal/obs"
)

// metric is one named, unit-carrying value; N is its sample count.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// endToEndUnits lists the metrics an untraced run reports, in order.
// They are the ones every workload has: BENCHMARK.json's end_to_end.
var endToEndUnits = [][2]string{
	{"setup_s", "s"},
	{"throughput_ops_per_s", "ops/s"},
	{"latency_ms_p50", "ms"},
	{"alloc_mb_per_op", "MB/op"},
	{"peak_rss_mb", "MB"},
}

// layerUnits lists the metrics a traced run reports, in order:
// BENCHMARK.json's per_layer.  A workload that never calls a layer
// reports 0 for it.  The first block holds the end-to-end figures only
// some workloads have; they are measured on the traced run's ops.
var layerUnits = [][2]string{
	{"latency_ms_p90", "ms"},
	{"ate_cycles_per_s", "cycles/s"},
	{"hit_latency_ms_p50", "ms"},
	{"miss_latency_ms_p50", "ms"},
	{"job_local_s_p50", "s"},
	{"job_fabric_s_p50", "s"},
	{"fault_units_per_s", "faults/s"},
	{"failed_ops_frac", "frac"},

	{"ate.apply_ms", "ms"},
	{"ate.ns_per_cycle", "ns/cycle"},
	{"ate.alloc_mb", "MB"},
	{"ate.cycles", "cycles"},
	{"ate.mismatches", "count"},
	{"insertion.insert_ms", "ms"},
	{"insertion.alloc_mb", "MB"},
	{"insertion.gates", "gates"},
	{"brains.compile_ms", "ms"},
	{"brains.groups", "count"},
	{"sched.search_ms", "ms"},
	{"sched.baselines_ms", "ms"},
	{"sched.sessions", "count"},
	{"stil.parse_ms", "ms"},
	{"pattern.translate_ms", "ms"},
	{"flow.wall_ms", "ms"},
	{"flow.unattributed_ms", "ms"},
	{"dsc.flow_ms", "ms"},
	{"dsc.ate_apply_ms", "ms"},
	{"dsc.ate_cycles", "cycles"},

	{"serve.rtt_ms.flow_miss", "ms"},
	{"serve.rtt_ms.flow_hit", "ms"},
	{"serve.rtt_ms.sched", "ms"},
	{"serve.rtt_ms.catalog_list", "ms"},
	{"serve.rtt_ms.catalog_compare", "ms"},
	{"serve.rtt_ms.recommend", "ms"},
	{"serve.handler_ms.flow_miss", "ms"},
	{"serve.handler_ms.flow_hit", "ms"},
	{"serve.handler_ms.sched", "ms"},
	{"serve.handler_ms.catalog_list", "ms"},
	{"serve.handler_ms.catalog_compare", "ms"},
	{"serve.handler_ms.recommend", "ms"},
	{"serve.transport_ms", "ms"},
	{"serve.wait_ms.flow_miss", "ms"},
	{"serve.cache_hit_ratio", "frac"},
	{"serve.cache_lookups", "count"},
	{"catalog.put_ms", "ms"},
	{"catalog.list_ms", "ms"},
	{"catalog.records", "count"},
	{"report.compare_ms", "ms"},
	{"recommend.ms", "ms"},

	{"serve.job_submit_ms", "ms"},
	{"campaign.run_mem_ms", "ms"},
	{"campaign.run_ckpt_ms", "ms"},
	{"campaign.journal_ms", "ms"},
	{"campaign.shards", "count"},
	{"campaign.steals", "count"},
	{"campaign.steal_ratio", "frac"},
	{"fabric.lease_ms", "ms"},
	{"fabric.complete_ms", "ms"},
	{"fabric.leases", "count"},
	{"fabric.discover_wait_ms", "ms"},
	{"fabric.watch_lag_ms", "ms"},
	{"fabric.overhead_frac", "frac"},
	{"fabric.expired_ratio", "frac"},
	{"fabric.stolen_ratio", "frac"},

	{"runtime.gc_cpu_frac", "frac"},
	{"trace.overhead_frac", "frac"},
}

// outcome is what a workload measured.  Clients record into it
// concurrently.
type outcome struct {
	clients int
	polls   map[string]string

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
	setup     []time.Duration
	ops       []float64 // untraced op latencies, ms
	tracedOps []float64 // traced op latencies, ms
	values    map[string]metric

	window     time.Duration
	windowOps  int
	allocBytes uint64
	peakRSS    float64 // MB, read when the window closes
	gcFrac     float64 // GC's share of the process's CPU time in the window
	counters   map[string]int64
}

func newOutcome(clients int) *outcome {
	return &outcome{clients: clients, values: map[string]metric{}}
}

// maxFailures bounds the failure messages kept for the report.
const maxFailures = 8

// op records one finished op: its latency when it succeeded, a failure
// otherwise.
func (o *outcome) op(traced bool, d time.Duration, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	if err != nil {
		o.failLocked(err.Error())
		return
	}
	if traced {
		o.tracedOps = append(o.tracedOps, ms(d))
	} else {
		o.ops = append(o.ops, ms(d))
	}
}

// check records a correctness check made outside the measured window:
// one attempted op, failed when err is not nil.
func (o *outcome) check(err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	if err != nil {
		o.failLocked(err.Error())
	}
}

// fail counts a failed check that is not tied to one op's latency, such
// as a counter that must stay zero.
func (o *outcome) fail(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.failLocked(fmt.Sprintf(format, args...))
}

func (o *outcome) failLocked(msg string) {
	o.failed++
	if len(o.failures) < maxFailures {
		o.failures = append(o.failures, msg)
	}
}

// set records a named figure or per-layer value.
func (o *outcome) set(name string, value float64, unit string, n int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.values[name] = metric{Name: name, Value: value, Unit: unit, N: n}
}

// setMedian records the median of samples under name (0 without samples).
func (o *outcome) setMedian(name string, samples []float64, unit string) {
	o.set(name, median(samples), unit, len(samples))
}

// repeatSetup runs a workload's set-up n times and keeps the last one:
// set-up time is the median of the n.  Earlier instances are released
// with release before the next one is built.
func repeatSetup[T any](o *outcome, n int, build func(rep int) (T, error), release func(T)) (T, error) {
	var last T
	for rep := 0; rep < n; rep++ {
		t0 := time.Now()
		v, err := build(rep)
		if err != nil {
			return last, err
		}
		o.setup = append(o.setup, time.Since(t0))
		if rep < n-1 && release != nil {
			release(v)
		}
		last = v
	}
	return last, nil
}

// windowMark is the state at the start of the measured window.
type windowMark struct {
	t0       time.Time
	alloc    uint64
	cpu      cpuSample
	ops      int
	counters map[string]int64
}

// startWindow marks the start of the measured window.
func (o *outcome) startWindow() windowMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	o.mu.Lock()
	defer o.mu.Unlock()
	return windowMark{t0: time.Now(), alloc: ms.TotalAlloc, cpu: readCPU(), ops: o.attempted, counters: counterSnapshot()}
}

// endWindow closes the window opened by startWindow: elapsed time,
// bytes allocated, ops finished and counter deltas.
func (o *outcome) endWindow(w windowMark) {
	elapsed := time.Since(w.t0)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	o.mu.Lock()
	defer o.mu.Unlock()
	o.window = elapsed
	o.allocBytes = ms.TotalAlloc - w.alloc
	o.gcFrac = readCPU().gcShareSince(w.cpu)
	o.peakRSS = peakRSSMB()
	o.windowOps = o.attempted - w.ops
	o.counters = counterDelta(w.counters, counterSnapshot())
}

// endToEnd builds the metrics of an untraced run.
func (o *outcome) endToEnd() []metric {
	o.mu.Lock()
	defer o.mu.Unlock()
	setup := make([]float64, len(o.setup))
	for i, d := range o.setup {
		setup[i] = d.Seconds()
	}
	perOp := 0.0
	if o.windowOps > 0 {
		perOp = float64(o.allocBytes) / 1e6 / float64(o.windowOps)
	}
	vals := map[string]metric{
		"setup_s":              {Value: median(setup), N: len(setup)},
		"throughput_ops_per_s": {Value: float64(len(o.ops)) / o.window.Seconds(), N: len(o.ops)},
		"latency_ms_p50":       {Value: median(o.ops), N: len(o.ops)},
		"alloc_mb_per_op":      {Value: perOp, N: o.windowOps},
		"peak_rss_mb":          {Value: o.peakRSS, N: 1},
	}
	out := make([]metric, 0, len(endToEndUnits))
	for _, nu := range endToEndUnits {
		m := vals[nu[0]]
		m.Name, m.Unit = nu[0], nu[1]
		out = append(out, m)
	}
	return out
}

// layerMetrics builds the metrics of a traced run.
func (o *outcome) layerMetrics() []metric {
	o.mu.Lock()
	if len(o.ops) > 0 && len(o.tracedOps) > 0 {
		o.values["trace.overhead_frac"] = metric{Value: median(o.tracedOps)/median(o.ops) - 1,
			N: len(o.tracedOps) + len(o.ops)}
	}
	o.values["runtime.gc_cpu_frac"] = metric{Value: o.gcFrac, N: 1}
	o.values["failed_ops_frac"] = metric{Value: float64(o.failed) / float64(max(o.attempted, 1)), N: o.attempted}
	o.mu.Unlock()

	out := make([]metric, 0, len(layerUnits))
	for _, nu := range layerUnits {
		m := o.values[nu[0]]
		m.Name, m.Unit = nu[0], nu[1]
		out = append(out, m)
	}
	return out
}

// figures lists everything measured, end-to-end metrics first, for the
// human-readable report.
func (o *outcome) figures() []metric {
	out := o.endToEnd()
	o.mu.Lock()
	o.values["failed_ops_frac"] = metric{Value: float64(o.failed) / float64(max(o.attempted, 1)), N: o.attempted}
	names := make([]string, 0, len(o.values))
	for name := range o.values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := o.values[name]
		m.Name = name
		out = append(out, m)
	}
	o.mu.Unlock()
	return out
}

// tailMinSamples is the sample count a p90 needs so that ten samples lie
// beyond it.
const tailMinSamples = 100

// setLatencyTail records latency_ms_p90 of the untraced ops when the run
// has enough of them.
func (o *outcome) setLatencyTail() {
	o.mu.Lock()
	ops := o.ops
	o.mu.Unlock()
	if len(ops) >= tailMinSamples {
		o.set("latency_ms_p90", quantile(ops, 0.9), "ms", len(ops))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// counterPrefixes are the obs counter families the workloads read.
var counterPrefixes = []string{"flow.", "serve.", "catalog.", "campaign.", "fabric."}

func counterSnapshot() map[string]int64 {
	out := map[string]int64{}
	for _, p := range counterPrefixes {
		for _, m := range obs.CountersPrefix(p) {
			out[m.Name] = m.Value
		}
	}
	return out
}

// counterDelta returns the counters that moved between two snapshots.
func counterDelta(before, after map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for name, v := range after {
		if d := v - before[name]; d != 0 {
			out[name] = d
		}
	}
	return out
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// checkZeroCounters counts, as failures, counters that a fault-free run
// must leave at zero.
func (o *outcome) checkZeroCounters(names ...string) {
	for _, name := range names {
		if v := o.counters[name]; v != 0 {
			o.fail("counter %s moved by %d in a fault-free run", name, v)
		}
	}
}

// cpuSample is the runtime's running estimate of the CPU time the
// process spent in GC and in all (non-idle) work.
type cpuSample struct{ gc, busy float64 }

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

func readCPU() cpuSample {
	s := append([]metrics.Sample(nil), cpuMetrics...)
	metrics.Read(s)
	return cpuSample{gc: s[0].Value.Float64(), busy: s[1].Value.Float64() - s[2].Value.Float64()}
}

// gcShareSince is GC's share of the CPU time the process used since
// earlier.
func (c cpuSample) gcShareSince(earlier cpuSample) float64 {
	busy := c.busy - earlier.busy
	if busy <= 0 {
		return 0
	}
	return (c.gc - earlier.gc) / busy
}

// resetPeakRSS returns freed heap to the OS and resets the peak resident
// set to the current one, so peakRSSMB covers only what follows.  Where
// the kernel does not allow it, the peak stays the process's.
func resetPeakRSS() {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintf(os.Stderr, "steacbench: peak RSS not reset: %v\n", err)
	}
}

// peakRSSMB is the process's peak resident set (VmHWM), in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.Sys) / 1e6
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}

// gitRevision is the revision the binary was built from; run.sh sets it
// with -ldflags "-X main.gitRevision=...".
var gitRevision = "unknown"

// fsType names the filesystem holding dir, since fsync cost depends on it.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
