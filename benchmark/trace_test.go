package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "child", Start: 50, End: 60},
		{ID: 4, Parent: 2, Name: "leaf", Start: 15, End: 20},
	}
	st := selfTimes(spans)
	want := map[string]layerTime{
		"root":  {Count: 1, Total: 100, Self: 70},
		"child": {Count: 2, Total: 30, Self: 25},
		"leaf":  {Count: 1, Total: 5, Self: 5},
	}
	for name, w := range want {
		if got := st[name]; got != w {
			t.Errorf("%s: got %+v, want %+v", name, got, w)
		}
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	// Two concurrent requests under one parent, one running past it.
	spans := []span{
		{ID: 1, Name: "phase", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "req", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "req", Start: 40, End: 70},
		{ID: 4, Parent: 1, Name: "req", Start: 90, End: 120},
	}
	// Covered: [10,70] + [90,100] = 70.
	if got := selfTimes(spans)["phase"].Self; got != 30 {
		t.Errorf("phase self = %d, want 30", got)
	}
}

func TestCoveredWithin(t *testing.T) {
	cases := []struct {
		iv     [][2]int64
		lo, hi int64
		want   int64
	}{
		{nil, 0, 10, 0},
		{[][2]int64{{0, 5}, {5, 10}}, 0, 10, 10},
		{[][2]int64{{2, 4}, {3, 8}, {1, 2}}, 0, 10, 7},
		{[][2]int64{{-5, 3}, {8, 20}}, 0, 10, 5},
		{[][2]int64{{11, 20}}, 0, 10, 0},
	}
	for _, c := range cases {
		if got := coveredWithin(c.iv, c.lo, c.hi); got != c.want {
			t.Errorf("coveredWithin(%v, %d, %d) = %d, want %d", c.iv, c.lo, c.hi, got, c.want)
		}
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *tracer
	ran := false
	tr.do("x", "op", 0, func(id int) {
		ran = true
		if id != 0 {
			t.Errorf("nil tracer handed out span id %d", id)
		}
	})
	if !ran || tr.closed() != nil {
		t.Fatal("nil tracer must run the body and record nothing")
	}
}

func TestTracerRecordsParentAndOp(t *testing.T) {
	tr := newTracer()
	tr.do("outer", "op-1", 0, func(outer int) {
		tr.do("inner", "op-1", outer, func(int) { time.Sleep(time.Millisecond) })
	})
	open := tr.begin("unfinished", "op-2", 0)
	_ = open
	spans := tr.closed()
	if len(spans) != 2 {
		t.Fatalf("got %d closed spans, want 2 (unfinished spans are dropped)", len(spans))
	}
	if spans[1].Parent != spans[0].ID || spans[1].Op != "op-1" || spans[1].End < spans[1].Start {
		t.Errorf("inner span %+v does not point at outer %+v", spans[1], spans[0])
	}
	if st := selfTimes(spans); st["outer"].Self > st["outer"].Total-st["inner"].Total {
		t.Errorf("outer self %v exceeds total minus child", st["outer"].Self)
	}
}
