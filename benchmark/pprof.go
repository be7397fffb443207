package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// selfPackages are the packages whose share of CPU self time the traced
// run reports as self.<pkg>; everything else folds into self.other.
var selfPackages = []string{
	"sim", "core", "mac", "phy", "link", "orchestra", "rpl", "trickle", "whart",
	"controller", "telemetry", "invariant", "chaos", "snapshot", "store",
	"server", "gateway", "net/http", "encoding/json", "runtime",
}

const modulePrefix = "github.com/digs-net/digs/internal/"

// packageLabel maps a fully qualified function name from a profile to
// the label its self time is reported under.
func packageLabel(fn string) string {
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, modulePrefix):
		pkg = strings.TrimPrefix(pkg, modulePrefix)
		if i := strings.IndexByte(pkg, '/'); i >= 0 {
			pkg = pkg[:i]
		}
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		pkg = "runtime"
	}
	for _, p := range selfPackages {
		if p == pkg {
			return p
		}
	}
	return "other"
}

// foldProfile returns each package label's share of the CPU self time in
// the runtime/pprof profile at path, from the flat column of
// `go tool pprof -top` over every function.
func foldProfile(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=0", "-nodefraction=0",
		"-unit=ns", "-symbolize=none", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, stderr.Bytes())
	}
	return foldTop(out)
}

// foldTop folds the rows of a `pprof -top -unit=ns` listing (flat,
// flat%, sum%, cum, cum%, function) into shares per package label.
func foldTop(top []byte) (map[string]float64, error) {
	byPkg := make(map[string]float64)
	var total float64
	rows := false
	sc := bufio.NewScanner(bytes.NewReader(top))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !rows {
			rows = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			continue
		}
		flat, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ns"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %w", sc.Text(), err)
		}
		total += flat
		byPkg[packageLabel(f[5])] += flat
	}
	if !rows {
		return nil, errors.New("pprof listing has no table")
	}
	out := make(map[string]float64, len(selfPackages)+1)
	for _, k := range append(selfPackages, "other") {
		if total > 0 {
			out[k] = byPkg[k] / total
		} else {
			out[k] = 0
		}
	}
	return out, nil
}
