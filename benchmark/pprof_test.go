package main

import (
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"
)

func TestPackageLabel(t *testing.T) {
	cases := map[string]string{
		"github.com/digs-net/digs/internal/sim.(*Network).Step":               "sim",
		"github.com/digs-net/digs/internal/core.(*scheduler).NextActive":      "core",
		"github.com/digs-net/digs/internal/gateway/faultproxy.(*Proxy).serve": "gateway",
		"github.com/digs-net/digs/internal/flows.Schedule":                    "other",
		"net/http.(*conn).serve":                                              "net/http",
		"encoding/json.Marshal":                                               "encoding/json",
		"runtime.mapiternext":                                                 "runtime",
		"internal/runtime/maps.(*Iter).Next":                                  "runtime",
		"runtime/internal/syscall.Syscall6":                                   "runtime",
		"crypto/sha256.block":                                                 "other",
		"main.plantWorkload.func3":                                            "other",
	}
	for fn, want := range cases {
		if got := packageLabel(fn); got != want {
			t.Errorf("packageLabel(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestFoldTopChargesFlatTimeToPackages(t *testing.T) {
	top := []byte(`File: digsbench
Type: cpu
Duration: 1s, Total samples = 100000000ns (10.00%)
Showing nodes accounting for 100000000ns, 100% of 100000000ns total
      flat  flat%   sum%        cum   cum%
30000000ns 30.00% 30.00% 40000000ns 40.00%  github.com/digs-net/digs/internal/sim.(*Network).Step
10000000ns 10.00% 40.00% 10000000ns 10.00%  internal/runtime/maps.(*Iter).Next (inline)
60000000ns 60.00%   100% 60000000ns 60.00%  net/http.(*conn).serve
         0     0%   100% 100000000ns   100%  main.main
`)
	got, err := foldTop(top)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"sim": 0.3, "runtime": 0.1, "net/http": 0.6}
	var sum float64
	for k, v := range got {
		sum += v
		if math.Abs(v-want[k]) > 1e-12 {
			t.Errorf("self.%s = %g, want %g", k, v, want[k])
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %g, want 1", sum)
	}
	if _, err := foldTop([]byte("no table here\n")); err == nil {
		t.Error("a listing without a table folded without error")
	}
}

func spin(d time.Duration) int {
	x := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	return x
}

func TestFoldRealProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := foldProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(selfPackages)+1 {
		t.Fatalf("got %d labels, want %d", len(got), len(selfPackages)+1)
	}
	var sum float64
	for _, v := range got {
		sum += v
	}
	if sum != 0 && math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %g, want 1 (or 0 without samples)", sum)
	}
}
