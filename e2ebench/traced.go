package main

import (
	"sort"

	"termproto/internal/trace"
)

// criticalPath is the message sequence a commit decision waits for at
// its coordinator: the transaction out, the votes back, the prepare out
// and the acknowledgements back.
var criticalPath = []string{"xact", "yes", "prepare", "ack"}

// handledKinds are the messages whose handling time is reported.
var handledKinds = []string{"xact", "yes", "prepare", "ack", "commit"}

type wireKey struct {
	tid      uint64
	from, to int
	kind     string
}

type siteTxn struct {
	site int
	tid  uint64
}

// traceStages splits a merged trace into per-message stage samples, in
// µs: hops from each Send to its Deliver, paired first-in first-out by
// (TID, from, to, kind), by message kind; and handling times from a
// site receiving a message to that site's next Send or Decide for the
// same transaction, by the kind of the message that triggered it. A
// delivery followed by another delivery before any reaction (the first
// of two votes) is not the trigger and is not counted.
func traceStages(events []trace.Event) (hops, handle map[string]dist) {
	evs := append([]trace.Event(nil), events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	hops = make(map[string]dist)
	handle = make(map[string]dist)
	inFlight := make(map[wireKey][]int64)
	pending := make(map[siteTxn]trace.Event)
	react := func(st siteTxn, at int64) {
		if p, ok := pending[st]; ok {
			handle[p.MsgKind] = append(handle[p.MsgKind], float64(at-int64(p.At)))
			delete(pending, st)
		}
	}
	for _, e := range evs {
		st := siteTxn{e.Site, e.TID}
		k := wireKey{e.TID, e.From, e.To, e.MsgKind}
		switch e.Kind {
		case trace.Send:
			inFlight[k] = append(inFlight[k], int64(e.At))
			react(st, int64(e.At))
		case trace.Deliver:
			if q := inFlight[k]; len(q) > 0 {
				hops[e.MsgKind] = append(hops[e.MsgKind], float64(int64(e.At)-q[0]))
				inFlight[k] = q[1:]
			}
			pending[st] = e
		case trace.Decide:
			react(st, int64(e.At))
		}
	}
	return hops, handle
}

// traceLayers reports the trace.* figures of a traced run. tracedSubmit
// and tracedCommit are that run's client submit and commit medians;
// untracedCommit is the commit median of the untraced run before it.
func traceLayers(events []trace.Event, tracedSubmit, tracedCommit, untracedCommit float64, r *report) {
	hops, handle := traceStages(events)
	var all dist
	for _, h := range hops {
		all = append(all, h...)
	}
	r.pct("trace.hop_p50_us", all, 0.50, unitUS)
	r.pct("trace.hop_p99_us", all, 0.99, unitUS)
	for _, k := range handledKinds {
		r.pct("trace.handle."+k+"_p50_us", handle[k], 0.50, unitUS)
		r.pct("trace.handle."+k+"_p99_us", handle[k], 0.99, unitUS)
	}
	r.set("trace.overhead_pct", 100*(tracedCommit-untracedCommit)/untracedCommit, unitPct)
	sum := tracedSubmit
	for _, k := range criticalPath {
		h, err := hops[k].percentile(0.50)
		if err != nil {
			r.refused["trace.reconcile_ratio"] = err
			return
		}
		m, err := r.get("trace.handle." + k + "_p50_us")
		if err != nil {
			r.refused["trace.reconcile_ratio"] = err
			return
		}
		sum += h + m.Value
	}
	r.set("trace.reconcile_ratio", sum/tracedCommit, unitRatio)
}
