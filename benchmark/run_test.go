package main

import (
	"encoding/json"
	"errors"
	"os"
	"regexp"
	"testing"
)

func TestFailRatioCountsOperationsAndChecks(t *testing.T) {
	r := &run{layer: map[string]float64{}}
	if got := failRatio(r.failed, r.attempted); got != 1 {
		t.Errorf("fail ratio with nothing attempted = %g, want 1 (no evidence is not success)", got)
	}
	r.count(nil)
	r.count(errors.New("request failed"))
	r.check(true, "fine")
	r.check(false, "bytes differ for %s", "x")
	if r.attempted != 4 || r.failed != 2 {
		t.Fatalf("attempted=%d failed=%d, want 4 and 2", r.attempted, r.failed)
	}
	if got := failRatio(r.failed, r.attempted); got != 0.5 {
		t.Errorf("fail ratio = %g, want 0.5", got)
	}
	if len(r.failures) != 2 || r.failures[1] != "check failed: bytes differ for x" {
		t.Errorf("failures = %q", r.failures)
	}
}

func TestPickCountsMissingMetricsAsFailures(t *testing.T) {
	r := &run{layer: map[string]float64{}}
	m := pick(endToEnd, map[string]float64{"setup_s": 0.5, "ops_per_s": 10}, r, false)
	if len(m) != len(endToEnd) {
		t.Fatalf("pick returned %d metrics, want %d", len(m), len(endToEnd))
	}
	if r.failed != int64(len(endToEnd)-2) {
		t.Errorf("failed = %d, want %d (each missing end-to-end metric)", r.failed, len(endToEnd)-2)
	}
	if m["ops_per_s"].Unit != "1/s" || m["ops_per_s"].Value != 10 {
		t.Errorf("ops_per_s = %+v", m["ops_per_s"])
	}

	r = &run{layer: map[string]float64{}}
	m = pick(perLayer, map[string]float64{"sim.form_slots": 36003}, r, true)
	if r.failed != 0 || m["gateway.hop_ms"].Value != 0 || m["sim.form_slots"].Value != 36003 {
		t.Errorf("per-layer pick: failed=%d hop=%+v form=%+v", r.failed, m["gateway.hop_ms"], m["sim.form_slots"])
	}
}

func TestE2EMetricsDerivation(t *testing.T) {
	r := &run{setup: 250_000_000, rates: []float64{40, 50, 90}, cpuPerOp: []float64{30, 20, 35}}
	m := r.e2eMetrics()
	if m["setup_s"] != 0.25 || m["ops_per_s"] != 50 || m["cpu_ms_per_op"] != 30 {
		t.Errorf("e2e metrics = %v", m)
	}
	if m := (&run{}).e2eMetrics(); len(m) != 2 {
		t.Errorf("rates derived without any window: %v", m)
	}
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var bf struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Work     []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: code declares %d metrics, BENCHMARK.json %d", kind, len(defs), len(got))
		}
		for i := range got {
			if i < len(defs) && (defs[i].name != got[i].Name || defs[i].unit != got[i].Unit) {
				t.Errorf("%s[%d]: code %s (%s), BENCHMARK.json %s (%s)", kind, i, defs[i].name, defs[i].unit, got[i].Name, got[i].Unit)
			}
		}
	}
	compare("end_to_end", endToEnd, bf.EndToEnd)
	compare("per_layer", perLayer, bf.PerLayer)
	for _, w := range bf.Work {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	if len(bf.Work) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, code %d", len(bf.Work), len(workloads))
	}
}

// Metric names are limited to letters, digits, "_", "." and "-", at most
// 64 long and starting with a letter or digit; units to 16 characters of
// letters, digits, "_", "/", "%", "." and "-".
func TestMetricNamesAndUnitsAreWellFormed(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.name) || !unit.MatchString(d.unit) {
			t.Errorf("malformed metric %q (%q)", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %q declared twice", d.name)
		}
		seen[d.name] = true
	}
}

func TestDigestIgnoresRecordingOrder(t *testing.T) {
	a, b, c := &run{}, &run{}, &run{}
	a.addDigest("client %d cold result=%s", 0, "x")
	a.addDigest("client %d cold result=%s", 1, "y")
	b.addDigest("client %d cold result=%s", 1, "y")
	b.addDigest("client %d cold result=%s", 0, "x")
	c.addDigest("client %d cold result=%s", 0, "y")
	c.addDigest("client %d cold result=%s", 1, "x")
	if a.digestHex() != b.digestHex() {
		t.Error("digest depends on the order concurrent clients record in")
	}
	if a.digestHex() == c.digestHex() {
		t.Error("digest does not tell which client saw which result")
	}
}
