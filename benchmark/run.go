package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// metricDef names a metric and its unit. The tables below and the
// end_to_end / per_layer lists in BENCHMARK.json must agree
// (TestMetricTablesMatchBenchmarkJSON).
type metricDef struct {
	name, unit string
}

// endToEnd are the gated metrics every workload reports with tracing
// off. Each is defined for every workload; what an "operation" is
// depends on the workload (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"live_heap_mb", "MB"},
}

// arenaStacks are the stacks testbed-arena runs. sdn is registered but
// left out: at this commit it fails formation on the paper testbeds for
// a large share of seeds (README.md, "Known failures"), and a workload
// must be one on which no operation fails.
var arenaStacks = []string{"digs", "orchestra", "whart", "adaptive"}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reads 0 there.
var perLayer = func() []metricDef {
	d := []metricDef{
		{"fail_ratio", "ratio"},
		{"trace.overhead", "ratio"},
		{"topology.gen_ms", "ms"},
		{"scenario.build_ms", "ms"},
		{"sim.form_slots", "count"},
		{"sim.form_ns_per_node_slot", "ns"},
		{"sim.window_ns_per_node_slot", "ns"},
		{"sim.shard_busy_s", "s"},
		{"sim.parallel_eff", "ratio"},
		{"sim.outside_shards_s", "s"},
		{"sim.mallocs_per_slot", "count"},
		{"sim.gc_cycles", "count"},
		{"mac.tx_per_delivered", "ratio"},
		{"mac.control_share", "ratio"},
		{"mac.duty_cycle", "ratio"},
	}
	for _, s := range arenaStacks {
		d = append(d, metricDef{"arena." + s + ".spec_ms", "ms"}, metricDef{"arena." + s + ".form_slots", "count"})
	}
	d = append(d,
		metricDef{"telemetry.events", "count"},
		metricDef{"chaos.faults", "count"},
		metricDef{"chaos.reconverged", "count"},
		metricDef{"invariant.violations", "count"},
		metricDef{"invariant.repairs", "count"},
	)
	for _, c := range []string{"cold", "warm"} {
		d = append(d,
			metricDef{"server." + c + ".queued_ms", "ms"},
			metricDef{"server." + c + ".run_ms", "ms"},
		)
	}
	for _, c := range []string{"cold", "warm", "hit"} {
		d = append(d, metricDef{"server." + c + ".overhead_ms", "ms"})
	}
	d = append(d,
		metricDef{"scenario.runspec_cold_ms", "ms"},
		metricDef{"store.write_ms", "ms"},
		metricDef{"snapshot.take_ms", "ms"},
		metricDef{"snapshot.encode_ms", "ms"},
		metricDef{"snapshot.decode_ms", "ms"},
		metricDef{"snapshot.restore_ms", "ms"},
		metricDef{"snapshot.bytes", "bytes"},
		metricDef{"server.warm_hit_ratio", "ratio"},
		metricDef{"server.cache_hit_ratio", "ratio"},
		metricDef{"gateway.hop_ms", "ms"},
		metricDef{"gateway.hedge_ratio", "ratio"},
		metricDef{"gateway.failovers", "count"},
		metricDef{"gateway.resubmits", "count"},
		metricDef{"gateway.repairs", "count"},
	)
	for _, p := range append(selfPackages, "other") {
		d = append(d, metricDef{selfMetric(p), "ratio"})
	}
	return d
}()

// selfMetric names a package's self-time share; metric names may not
// contain "/", so net/http reads self.net_http.
func selfMetric(pkg string) string {
	return "self." + strings.ReplaceAll(pkg, "/", "_")
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// run is one invocation of a workload: its inputs, its failure ledger,
// its measurements and its human-readable report.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	// tr is nil with tracing off.
	tr *tracer
	// dir is a scratch directory inside the checkout for this run.
	dir string

	mu        sync.Mutex
	attempted int64
	failed    int64
	failures  []string

	// Set by the workload; see endTimed for the rest.
	setup time.Duration
	// Totals over the timed phase.
	ops  int64
	wall time.Duration
	cpu  time.Duration
	// Per-window operations per second and CPU ms per operation.
	rates, cpuPerOp []float64
	// liveHeap is the heap still reachable when the timed phase ends, in
	// MiB.
	liveHeap float64
	layer    map[string]float64
	lines    []string
	digest   []string
}

// count records one attempted operation or check; a non-nil err marks
// it failed.
func (r *run) count(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 8 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

// check counts a named output check.
func (r *run) check(ok bool, format string, args ...any) {
	if ok {
		r.count(nil)
		return
	}
	r.count(fmt.Errorf("check failed: "+format, args...))
}

// failRatio is failed ÷ attempted; nothing attempted is no evidence of
// success and counts as all failed.
func failRatio(failed, attempted int64) float64 {
	if attempted == 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

// report adds a human-readable metric line; n is the sample count
// (0 for a single measurement).
func (r *run) report(name string, v float64, unit string, n int) {
	line := fmt.Sprintf("%-28s %14.6g %-6s", name, v, unit)
	if math.IsNaN(v) {
		line = fmt.Sprintf("%-28s %14s %-6s", name, "n/a", unit)
	}
	if n > 0 {
		line += fmt.Sprintf(" n=%d", n)
	}
	r.mu.Lock()
	r.lines = append(r.lines, line)
	r.mu.Unlock()
}

// reportLatency prints a class's median and p90 with its sample count;
// a percentile without minBeyond samples above it prints as n/a.
func (r *run) reportLatency(class string, l *latencies) summary {
	s := l.summary()
	r.report(class+"_p50_ms", s.P50, "ms", s.N)
	r.report(class+"_p90_ms", s.P90, "ms", s.N)
	return s
}

// setLayer records a per-layer metric (traced runs only).
func (r *run) setLayer(name string, v float64) {
	if r.tr == nil {
		return
	}
	if unitOf(perLayer, name) == "" {
		panic("undeclared per-layer metric " + name)
	}
	r.mu.Lock()
	r.layer[name] = v
	r.mu.Unlock()
}

// addDigest folds a deterministic fact into the run's digest. Only
// values that repeat exactly for a given seed and code belong here.
func (r *run) addDigest(format string, args ...any) {
	r.mu.Lock()
	r.digest = append(r.digest, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// digestHex hashes the recorded facts in sorted order: concurrent clients
// record theirs in whatever order they finish, and every fact is labelled.
func (r *run) digestHex() string {
	lines := append([]string(nil), r.digest...)
	sort.Strings(lines)
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:8])
}

// e2eMetrics derives the gated metrics from what the workload recorded.
func (r *run) e2eMetrics() map[string]float64 {
	m := map[string]float64{
		"setup_s":      r.setup.Seconds(),
		"live_heap_mb": r.liveHeap,
	}
	if len(r.rates) > 0 {
		m["ops_per_s"] = median(r.rates)
		m["cpu_ms_per_op"] = median(r.cpuPerOp)
	}
	return m
}

// endTimed closes the timed phase: its totals and per-window rates, and
// the heap the program still holds at its end. The heap is read after
// forced collections, so it counts live state, not garbage whose amount
// depends on when the collector last ran; the second collection empties
// what sync.Pools kept through the first.
func (r *run) endTimed(m *meter) {
	m.end()
	r.ops, r.wall, r.cpu = m.totals()
	r.rates, r.cpuPerOp = m.windows()
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	r.liveHeap = float64(mem.HeapAlloc) / (1 << 20)
	r.report("mean_ops_per_s", float64(r.ops)/r.wall.Seconds(), "1/s", int(r.ops))
	r.report("window_ops_per_s", median(r.rates), "1/s", len(r.rates))
	r.report("peak_rss_mb", peakRSSMB(), "MB", 0)
}

// writeLines prints the human-readable report.
func (r *run) writeLines(w io.Writer) {
	for _, l := range r.lines {
		fmt.Fprintln(w, "  "+l)
	}
	for _, f := range r.failures {
		fmt.Fprintln(w, "  FAIL "+f)
	}
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
