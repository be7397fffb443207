// Command digsbench is the repository's benchmark: three workloads that
// drive the simulator and the service around it through their public
// APIs, check the outputs, and print every metric by name and unit.
//
//	digsbench --workload plant-1k --seed 1 --seconds 30 --trace 0
//	digsbench steady --workload plant-1k --runs 10 --seed 1 --seconds 30
//
// The last line of a run's standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the workload runs once
// untraced (the overhead reference) and once traced, and the metrics are
// the per-layer ones. See README.md for what each workload exercises.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"time"
)

// workloads maps each workload name to the function that runs it. That
// function returns an error only when it cannot run at all; failed
// operations and checks go through run.count and run.check.
var workloads = map[string]func(*run) error{
	"plant-1k":      plantWorkload,
	"testbed-arena": arenaWorkload,
	"service-tier":  serviceWorkload,
}

// outDir holds everything a run writes, inside the checkout; traceDir
// keeps the traced runs' spans and CPU profiles.
const (
	outDir   = ".bench_build"
	traceDir = outDir + "/trace"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		if err := steadyMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "steady:", err)
			os.Exit(1)
		}
		return
	}
	if err := benchMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "digsbench:", err)
		os.Exit(1)
	}
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func benchMain(args []string) error {
	fs := flag.NewFlagSet("digsbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 30, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	env := stampStart()
	dir := filepath.Join(outDir, "runs", fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	newRun := func(sub string, tr *tracer) (*run, error) {
		d := filepath.Join(dir, sub)
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
		return &run{
			workload: *name, seed: *seed, dir: d, tr: tr,
			seconds: time.Duration(*seconds * float64(time.Second)),
			layer:   map[string]float64{},
		}, nil
	}

	var out result
	var runs []*run
	switch *trace {
	case 0:
		r, err := newRun("plain", nil)
		if err != nil {
			return err
		}
		if err := wl(r); err != nil {
			return err
		}
		runs = []*run{r}
		out.Metrics = pick(endToEnd, r.e2eMetrics(), r, false)
	case 1:
		ref, err := newRun("reference", nil)
		if err != nil {
			return err
		}
		if err := wl(ref); err != nil {
			return err
		}
		r, err := newRun("traced", newTracer())
		if err != nil {
			return err
		}
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return err
		}
		profPath := filepath.Join(traceDir, *name+"-"+strconv.FormatInt(*seed, 10)+".cpu.pprof")
		prof, err := os.Create(profPath)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(prof); err != nil {
			prof.Close()
			return err
		}
		err = wl(r)
		pprof.StopCPUProfile()
		if cerr := prof.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		runs = []*run{ref, r}
		if err := finishTrace(r, ref, profPath); err != nil {
			return err
		}
		out.Metrics = pick(perLayer, r.layer, r, true)
	default:
		return fmt.Errorf("--trace must be 0 or 1")
	}

	for _, r := range runs {
		out.Attempted += r.attempted
		out.Failed += r.failed
	}
	out.Correct = out.Failed == 0 && out.Attempted > 0
	if out.Attempted == 0 {
		out.Attempted = 1
		out.Failed = 1
	}
	env.LoadEnd = load1()

	last := runs[len(runs)-1]
	fmt.Printf("workload %s seed %d seconds %g trace %d\n", *name, *seed, *seconds, *trace)
	last.report("fail_ratio", failRatio(out.Failed, out.Attempted), "ratio", int(out.Attempted))
	last.writeLines(os.Stdout)
	envLine, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envLine)
	if env.LoadFlagged {
		fmt.Printf("warning: 1-minute load %.2f above nproc %d at start\n", env.LoadStart, env.NumCPU)
	}
	fmt.Printf("digest %s\n", last.digestHex())
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// pick builds the output metric map for the given definitions. With
// absentIsZero a metric the workload does not produce is a layer it does
// not exercise and reads 0; otherwise it is a failed check, reported as 0.
func pick(defs []metricDef, vals map[string]float64, r *run, absentIsZero bool) map[string]metric {
	m := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && absentIsZero {
			v, ok = 0, true
		}
		valid := ok && !math.IsNaN(v) && !math.IsInf(v, 0)
		r.check(valid, "metric %s not measured", d.name)
		if !valid {
			v = 0
		}
		m[d.name] = metric{Value: v, Unit: d.unit}
	}
	return m
}

// finishTrace derives the trace-only per-layer metrics: tracing
// overhead against the untraced reference run, CPU self time per
// package, and per-span self times (printed, and written with the spans).
func finishTrace(r, ref *run, profPath string) error {
	refM, trM := ref.e2eMetrics(), r.e2eMetrics()
	if a, b := refM["ops_per_s"], trM["ops_per_s"]; a > 0 && b > 0 {
		r.setLayer("trace.overhead", a/b-1)
	}
	r.report("reference_ops_per_s", refM["ops_per_s"], "1/s", int(ref.ops))
	r.report("traced_ops_per_s", trM["ops_per_s"], "1/s", int(r.ops))
	r.setLayer("fail_ratio", failRatio(r.failed+ref.failed, r.attempted+ref.attempted))

	shares, err := foldProfile(profPath)
	if err != nil {
		return err
	}
	for k, v := range shares {
		r.setLayer(selfMetric(k), v)
	}

	spans := r.tr.closed()
	st := selfTimes(spans)
	for _, k := range sortedKeys(st) {
		lt := st[k]
		r.lines = append(r.lines, fmt.Sprintf("span %-34s n=%-6d total=%10.3fms self=%10.3fms",
			k, lt.Count, ms(lt.Total), ms(lt.Self)))
	}
	path := filepath.Join(traceDir, r.workload+"-"+strconv.FormatInt(r.seed, 10)+".spans.json")
	if err := r.tr.write(path); err != nil {
		return err
	}
	r.lines = append(r.lines, fmt.Sprintf("spans written to %s (%d spans), CPU profile to %s", path, len(spans), profPath))
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
