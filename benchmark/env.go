package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// envStamp records what the numbers were measured on. Load above nproc
// at start means other work was competing for the cores.
type envStamp struct {
	NumCPU      int     `json:"nproc"`
	GoMaxProcs  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	Commit      string  `json:"commit"`
	LoadStart   float64 `json:"load1_start"`
	LoadEnd     float64 `json:"load1_end"`
	LoadFlagged bool    `json:"load_above_nproc_at_start"`
}

func stampStart() envStamp {
	e := envStamp{
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit("."),
		LoadStart:  load1(),
	}
	e.LoadFlagged = e.LoadStart > float64(e.NumCPU)
	return e
}

// load1 is the 1-minute load average (-1 where /proc is unavailable).
func load1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return -1
	}
	return v
}

// gitCommit reads HEAD from the .git directory under root without
// running git; a checkout exported without .git reports "unknown".
func gitCommit(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	f, err := os.Open(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if hash, name, ok := strings.Cut(sc.Text(), " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return -1
			}
			return kb / 1024
		}
	}
	return -1
}

// cpuTime is the CPU time (user + system) the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
