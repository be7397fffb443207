package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkFile is the subset of BENCHMARK.json the steadiness check
// reads: the gated metrics and their bounds.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runOutput is what one child run printed.
type runOutput struct {
	seed   int64
	res    result
	digest string
}

// steadyMain runs one workload --runs times per set, each run a separate
// process with its own seed (seed, seed+1, ...), and prints for every
// end-to-end metric the median, quartiles and spread against the bound in
// BENCHMARK.json (read from the working directory, the checkout's root).
// Every metric's spread, setup_s included, must stay within its bound.
// With --sets 2 the same seeds run twice; the second set's medians are
// compared with the first's and every seed's digest must repeat.
func steadyMain(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	runs := fs.Int("runs", 10, "runs per set")
	sets := fs.Int("sets", 1, "sets of runs (2 compares the sets)")
	seed := fs.Int64("seed", 1, "first seed")
	seconds := fs.Float64("seconds", 0, "measured seconds per run (0 = run_seconds from BENCHMARK.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if *seconds == 0 {
		*seconds = float64(bf.RunSeconds)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}

	var all [][]runOutput
	ok := true
	for s := 0; s < *sets; s++ {
		var set []runOutput
		for i := 0; i < *runs; i++ {
			sd := *seed + int64(i)
			out, err := childRun(self, *name, sd, *seconds)
			if err != nil {
				return fmt.Errorf("set %d seed %d: %w", s+1, sd, err)
			}
			if !out.res.Correct {
				ok = false
				fmt.Printf("set %d seed %d: correct=false (%d/%d failed)\n", s+1, sd, out.res.Failed, out.res.Attempted)
			}
			fmt.Printf("set %d seed %-4d digest %s", s+1, sd, out.digest)
			for _, m := range bf.EndToEnd {
				fmt.Printf("  %s=%.6g", m.Name, out.res.Metrics[m.Name].Value)
			}
			fmt.Println()
			set = append(set, out)
		}
		all = append(all, set)
	}

	fmt.Printf("workload %s: %d set(s) of %d runs, %gs each\n", *name, *sets, *runs, *seconds)
	fmt.Printf("%-14s %4s %12s %12s %12s %8s %6s %6s\n", "metric", "set", "median", "q1", "q3", "spread", "bound", "/bound")
	medians := make([]map[string]float64, len(all))
	for si, set := range all {
		medians[si] = map[string]float64{}
		for _, m := range bf.EndToEnd {
			var vals []float64
			for _, o := range set {
				vals = append(vals, o.res.Metrics[m.Name].Value)
			}
			q1, q3 := quartiles(vals)
			med, sp := median(vals), spread(vals)
			medians[si][m.Name] = med
			verdict := ""
			switch {
			case sp > m.Bound:
				verdict, ok = "NOISY", false
			case sp > m.Bound/3:
				verdict = "above bound/3"
			}
			fmt.Printf("%-14s %4d %12.6g %12.6g %12.6g %8.4f %6.3f %6.2f %s\n",
				m.Name, si+1, med, q1, q3, sp, m.Bound, sp/m.Bound, verdict)
		}
	}
	if len(all) > 1 {
		fmt.Println("set 2 against set 1 (worse-by share; must stay within the bound):")
		for _, m := range bf.EndToEnd {
			a, b := medians[0][m.Name], medians[1][m.Name]
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = (a - b) / a
			}
			verdict := "ok"
			if worse > m.Bound || math.IsNaN(worse) {
				verdict, ok = "REGRESSED", false
			}
			fmt.Printf("  %-14s %12.6g -> %12.6g  worse by %+.4f (bound %.3f) %s\n", m.Name, a, b, worse, m.Bound, verdict)
		}
		for i := range all[0] {
			d1, d2 := all[0][i].digest, all[1][i].digest
			if d1 != d2 {
				ok = false
				fmt.Printf("  digest seed %d: %s vs %s DIFFERS\n", all[0][i].seed, d1, d2)
			}
		}
		fmt.Println("  digests compared per seed across sets")
	}
	if !ok {
		return fmt.Errorf("workload %s is not steady or not correct", *name)
	}
	fmt.Println("steady: ok")
	return nil
}

// childRun runs one benchmark invocation in a child process and parses
// its digest line and final JSON line.
func childRun(self, workload string, seed int64, seconds float64) (runOutput, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return runOutput{}, err
	}
	out := runOutput{seed: seed}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	for sc.Scan() {
		line := sc.Text()
		if d, ok := strings.CutPrefix(line, "digest "); ok {
			out.digest = d
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := json.Unmarshal([]byte(last), &out.res); err != nil {
		return runOutput{}, fmt.Errorf("parsing result line %q: %w", last, err)
	}
	return out, nil
}
