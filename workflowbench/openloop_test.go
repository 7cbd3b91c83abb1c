package main

import (
	"testing"
	"time"
)

// fakeClock advances only when told to; sleeping jumps to the target.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time { return c.t }
func (c *fakeClock) sleepUntil(t time.Time) {
	if t.After(c.t) {
		c.t = t
	}
}

func TestOpenLoopChargesStallsFromDueTime(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{t: start}
	s := newSchedule(start, 100, time.Second) // one request per 10ms
	if s.due() != 100 {
		t.Fatalf("due() = %d, want 100", s.due())
	}
	var got []obs
	sent := runOpenLoop(s, 1, clk, s.end.Add(time.Second), func(_ int, i int64, due time.Time) {
		o := obs{due: due, sent: clk.now()}
		cost := time.Millisecond
		if i == 10 {
			cost = 205 * time.Millisecond // a stall
		}
		clk.t = clk.t.Add(cost)
		o.done = clk.now()
		got = append(got, o)
	})
	if sent != 100 || len(got) != 100 {
		t.Fatalf("sent %d, recorded %d, want 100", sent, len(got))
	}
	if l := got[10].latency(); l != 205*time.Millisecond {
		t.Errorf("stalled request latency = %v", l)
	}
	// Request 11 was due 10ms after request 10 but could only go out when
	// the stall ended: 195ms late, and its latency counts that wait.
	if late := got[11].lateness(); late != 195*time.Millisecond {
		t.Errorf("request 11 lateness = %v, want 195ms", late)
	}
	if l := got[11].latency(); l != 196*time.Millisecond {
		t.Errorf("request 11 latency = %v, want 196ms", l)
	}
	// The backlog drains at 1ms per request against 10ms arrivals; request
	// 40 is on time again.
	if late := got[40].lateness(); late != 0 {
		t.Errorf("request 40 lateness = %v, want 0", late)
	}
}

func TestOpenLoopGivesUpWhenFarBehind(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{t: start}
	s := newSchedule(start, 100, time.Second)
	sent := runOpenLoop(s, 1, clk, s.end.Add(time.Second), func(_ int, i int64, due time.Time) {
		clk.t = clk.t.Add(100 * time.Millisecond) // ten times too slow
	})
	if sent >= s.due() || sent < 19 || sent > 21 {
		t.Errorf("sent %d of %d; want the loop to stop near the 2s give-up", sent, s.due())
	}
}

func TestThinkGapsLeaveOutDeliberatePauses(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	m := &meter{obs: []obs{
		{sent: at(0), done: at(10)},
		{sent: at(12), done: at(20)},                                  // 2ms of client work
		{sent: at(125), done: at(130), pause: 100 * time.Millisecond}, // think time, then 5ms late
	}}
	got := thinkGaps(&phase{meters: []*meter{m}})
	if len(got) != 2 || got[0] != 2 || got[1] != 5 {
		t.Errorf("thinkGaps = %v, want [2 5]", got)
	}
}
