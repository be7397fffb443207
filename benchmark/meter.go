package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// meterWindow is the sampling window of the time-bounded workloads.
const meterWindow = 2 * time.Second

// meter counts a timed phase's completed operations and samples the count
// and the process CPU time at the end of every window. The end-to-end
// rates are medians over the windows: host contention on this kind of
// machine comes in bursts of a second or two, and a burst that slows one
// window moves a mean over the run but not the median. Windows are long
// enough that anything the program does periodically within a couple of
// seconds (collections, probes) lands in every window alike.
type meter struct {
	ops    atomic.Int64
	window time.Duration

	mu      sync.Mutex
	samples []meterSample

	stopTick chan struct{}
	ticking  sync.WaitGroup
}

type meterSample struct {
	at  time.Time
	ops int64
	cpu time.Duration
}

// startMeter opens the timed phase. With window > 0 a goroutine samples
// every window until end; with 0 there is one window, over the whole
// phase.
func startMeter(window time.Duration) *meter {
	m := &meter{window: window, stopTick: make(chan struct{})}
	m.mark()
	if window > 0 {
		m.ticking.Add(1)
		go func() {
			defer m.ticking.Done()
			t := time.NewTicker(window)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					m.mark()
				case <-m.stopTick:
					return
				}
			}
		}()
	}
	return m
}

func (m *meter) add(n int64) { m.ops.Add(n) }

// mark closes a window now.
func (m *meter) mark() {
	s := meterSample{at: time.Now(), ops: m.ops.Load(), cpu: cpuTime()}
	m.mu.Lock()
	m.samples = append(m.samples, s)
	m.mu.Unlock()
}

// end closes the timed phase and stops the sampler.
func (m *meter) end() {
	close(m.stopTick)
	m.ticking.Wait()
	m.mark()
}

// totals are the whole phase's operations, wall time and CPU time.
func (m *meter) totals() (ops int64, wall, cpu time.Duration) {
	first, last := m.samples[0], m.samples[len(m.samples)-1]
	return last.ops - first.ops, last.at.Sub(first.at), last.cpu - first.cpu
}

// windows returns each window's operations per second and CPU
// milliseconds per operation. A trailing window shorter than half the
// nominal one (the stub between the last tick and end) is left out.
func (m *meter) windows() (rate, cpuPerOp []float64) {
	for i := 1; i < len(m.samples); i++ {
		a, b := m.samples[i-1], m.samples[i]
		d, n := b.at.Sub(a.at), b.ops-a.ops
		if n <= 0 || d <= 0 || (m.window > 0 && d < m.window/2) {
			continue
		}
		rate = append(rate, float64(n)/d.Seconds())
		cpuPerOp = append(cpuPerOp, ms(b.cpu-a.cpu)/float64(n))
	}
	return rate, cpuPerOp
}
