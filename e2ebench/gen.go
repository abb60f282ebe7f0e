package main

import (
	"sync"
	"time"
)

// sample is one submission as the generator saw it.
type sample struct {
	// due is when the arrival was due; call and ret bracket the submit
	// call. Every latency is timed from due, so a stalled submitter
	// shows up in the samples behind the stall.
	due, call, ret time.Time
	err            error
}

// generate drives the arrivals open-loop from start: one submitter per
// coordinator, each working through its own arrivals in order, sleeping
// until each is due and never waiting for a decision. It returns once
// every arrival has been submitted, with samples indexed like arrivals.
func generate(start time.Time, arrivals []arrival, submit func(arrival) error) []sample {
	samples := make([]sample, len(arrivals))
	var wg sync.WaitGroup
	for c := 1; c <= coordinators; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, a := range arrivals {
				if a.master != c {
					continue
				}
				due := start.Add(a.due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				s := sample{due: due, call: time.Now()}
				s.err = submit(a)
				s.ret = time.Now()
				samples[i] = s
			}
		}()
	}
	wg.Wait()
	return samples
}

// sinceDue is the time from an arrival's due instant to a decision
// instant, in microseconds.
func sinceDue(s sample, decidedAtMicro int64) float64 {
	return float64(decidedAtMicro - s.due.UnixMicro())
}
