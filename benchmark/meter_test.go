package main

import (
	"testing"
	"time"
)

func TestMeterWindowsDropShortTrailingStub(t *testing.T) {
	t0 := time.Unix(0, 0)
	m := &meter{window: 2 * time.Second, samples: []meterSample{
		{at: t0, ops: 0, cpu: 0},
		{at: t0.Add(2 * time.Second), ops: 200, cpu: 400 * time.Millisecond},
		{at: t0.Add(4 * time.Second), ops: 300, cpu: 900 * time.Millisecond},
		{at: t0.Add(4500 * time.Millisecond), ops: 310, cpu: 950 * time.Millisecond}, // stub
	}}
	rate, cpu := m.windows()
	if len(rate) != 2 || rate[0] != 100 || rate[1] != 50 {
		t.Errorf("rates = %v, want [100 50]", rate)
	}
	if len(cpu) != 2 || cpu[0] != 2 || cpu[1] != 5 {
		t.Errorf("cpu ms/op = %v, want [2 5]", cpu)
	}
	ops, wall, used := m.totals()
	if ops != 310 || wall != 4500*time.Millisecond || used != 950*time.Millisecond {
		t.Errorf("totals = %d, %v, %v", ops, wall, used)
	}
}

func TestMeterTicksAndStops(t *testing.T) {
	m := startMeter(10 * time.Millisecond)
	m.add(5)
	time.Sleep(35 * time.Millisecond)
	m.end()
	if len(m.samples) < 3 {
		t.Errorf("got %d samples after 35ms of 10ms ticks, want at least 3", len(m.samples))
	}
	if ops, _, _ := m.totals(); ops != 5 {
		t.Errorf("total ops = %d, want 5", ops)
	}
}
