package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// schedule hands out the due times of an open loop: request i is due at
// start + i/rate, whether or not earlier requests have finished.
type schedule struct {
	start    time.Time
	interval time.Duration
	end      time.Time
	next     atomic.Int64
}

func newSchedule(start time.Time, rate float64, length time.Duration) *schedule {
	return &schedule{start: start, interval: time.Duration(float64(time.Second) / rate), end: start.Add(length)}
}

// due is the number of requests the schedule holds.
func (s *schedule) due() int64 {
	n := int64(s.end.Sub(s.start) / s.interval)
	if s.start.Add(time.Duration(n) * s.interval).Before(s.end) {
		n++
	}
	return n
}

// take returns the next request's index and due time; ok is false once the
// due time falls past the end of the run.
func (s *schedule) take() (i int64, due time.Time, ok bool) {
	i = s.next.Add(1) - 1
	due = s.start.Add(time.Duration(i) * s.interval)
	return i, due, due.Before(s.end)
}

// clock lets tests drive the loop without real sleeps.
type clock interface {
	now() time.Time
	sleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) now() time.Time { return time.Now() }
func (realClock) sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// runOpenLoop serves the schedule with a fixed set of workers. Each worker
// takes the next due request, waits until it is due (or sends at once when
// already late) and calls send with the index and due time. Once the clock
// passes giveUp, requests not yet sent are dropped: an overloaded system
// cannot stretch the run without bound. It returns the number sent, after
// every sent request has finished.
func runOpenLoop(s *schedule, workers int, clk clock, giveUp time.Time, send func(worker int, i int64, due time.Time)) int64 {
	var wg sync.WaitGroup
	var sent atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				if clk.now().After(giveUp) {
					return
				}
				i, due, ok := s.take()
				if !ok {
					return
				}
				if clk.now().Before(due) {
					clk.sleepUntil(due)
				}
				sent.Add(1)
				send(w, i, due)
			}
		}(w)
	}
	wg.Wait()
	return sent.Load()
}
