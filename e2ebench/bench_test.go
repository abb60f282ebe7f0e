package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"termproto/internal/netnode"
	"termproto/internal/sim"
	"termproto/internal/trace"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	mk := func(n int) dist {
		d := make(dist, n)
		for i := range d {
			d[i] = float64(n - i) // descending: percentile must sort
		}
		return d
	}
	if _, err := mk(999).percentile(0.99); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it and must be refused")
	}
	v, err := mk(1000).percentile(0.99)
	if err != nil {
		t.Fatalf("p99 of 1000 samples: %v", err)
	}
	if v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, want 990", v)
	}
	if v, err := mk(1000).percentile(0.5); err != nil || v != 500 {
		t.Fatalf("p50 of 1..1000 = %v, %v; want 500", v, err)
	}
}

func TestLatencyTimedFromDue(t *testing.T) {
	const gap = 10 * time.Millisecond
	const stall = 200 * time.Millisecond
	var arrivals []arrival
	for k := 0; k < 10; k++ {
		arrivals = append(arrivals, arrival{tid: uint64(k + 1), master: 1, due: time.Duration(k) * gap})
	}
	start := time.Now()
	samples := generate(start, arrivals, func(a arrival) error {
		if a.tid == 1 {
			time.Sleep(stall)
		}
		return nil
	})
	// Decide each transaction the instant its submit returns: the only
	// delay left is the generator's own.
	for i, s := range samples {
		lat := time.Duration(sinceDue(s, s.ret.UnixMicro())) * time.Microsecond
		if i == 0 {
			continue
		}
		if want := stall - arrivals[i].due - 5*time.Millisecond; lat < want {
			t.Errorf("txn %d: latency %v from due, want at least %v behind the stall", arrivals[i].tid, lat, want)
		}
		if s.call.Sub(s.due) < stall-arrivals[i].due-5*time.Millisecond {
			t.Errorf("txn %d: called %v late, want the stall to show", arrivals[i].tid, s.call.Sub(s.due))
		}
	}
}

func TestPlanDeterministic(t *testing.T) {
	for _, w := range workloads {
		a := plan(w, 7, 2*time.Second)
		b := plan(w, 7, 2*time.Second)
		c := plan(w, 8, 2*time.Second)
		if len(a) != int(2*w.rate) || len(a) != len(b) {
			t.Fatalf("%s: %d and %d arrivals, want %d", w.name, len(a), len(b), int(2*w.rate))
		}
		same := true
		for i := range a {
			if !bytes.Equal(a[i].payload, b[i].payload) || a[i].due != b[i].due || a[i].master != b[i].master {
				t.Fatalf("%s: arrival %d differs between two plans of one seed", w.name, i)
			}
			same = same && bytes.Equal(a[i].payload, c[i].payload)
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 gave the same payload stream", w.name)
		}
	}
}

func TestGateRejectsSplitDecision(t *testing.T) {
	spec := workloadSpec{name: "steady", rate: 100}
	arrivals := plan(spec, 1, 20*time.Millisecond) // tids 1 and 2
	view := func(site int, outcome1 string) siteView {
		return siteView{site: site, txns: map[uint64]netnode.TxnDTO{
			1: {TID: 1, Outcome: outcome1, Started: true},
			2: {TID: 2, Outcome: "abort", Started: true},
		}}
	}
	in := gateInput{
		spec:      spec,
		arrivals:  arrivals,
		submitted: []bool{true, true},
		views:     []siteView{view(1, "commit"), view(2, "commit"), view(3, "commit")},
		snapshots: map[int]map[string][]byte{},
		unstable:  map[int]map[string]bool{},
	}
	for _, s := range sites() {
		in.snapshots[s] = map[string][]byte{arrivals[0].key: arrivals[0].value}
	}
	if v := gate(in); len(v) != 0 {
		t.Fatalf("consistent run rejected: %v", v)
	}
	in.views[2] = view(3, "abort")
	v := gate(in)
	if len(v) != 1 || !strings.Contains(v[0], "split decision") || !strings.Contains(v[0], "txn 1") {
		t.Fatalf("split decision not reported: %v", v)
	}
	in.views[2] = view(3, "commit")
	in.snapshots[3] = map[string][]byte{arrivals[0].key: arrivals[0].value, "stray": []byte("x")}
	v = gate(in)
	if len(v) != 1 || !strings.Contains(v[0], "replicas differ") || !strings.Contains(v[0], `"stray"`) {
		t.Fatalf("diverged replica not reported: %v", v)
	}
}

func TestTraceStages(t *testing.T) {
	ev := func(at int64, kind trace.EventKind, site, from, to int, msg string) trace.Event {
		return trace.Event{At: sim.Time(at), Kind: kind, Site: site, From: from, To: to, MsgKind: msg, TID: 9}
	}
	events := []trace.Event{
		ev(0, trace.Send, 1, 1, 2, "xact"),
		ev(0, trace.Send, 1, 1, 3, "xact"),
		ev(20, trace.Deliver, 2, 1, 2, "xact"),
		ev(15, trace.Deliver, 3, 1, 3, "xact"),
		ev(25, trace.Send, 2, 2, 1, "yes"),
		ev(17, trace.Send, 3, 3, 1, "yes"),
		ev(30, trace.Deliver, 1, 3, 1, "yes"),
		ev(40, trace.Deliver, 1, 2, 1, "yes"),
		ev(41, trace.Send, 1, 1, 2, "prepare"),
	}
	hops, handle := traceStages(events)
	if got := hops["xact"]; len(got) != 2 || got[0]+got[1] != 35 {
		t.Errorf("xact hops %v, want 15 and 20", got)
	}
	if got := handle["xact"]; len(got) != 2 || got[0]+got[1] != 7 {
		t.Errorf("xact handling %v, want 2 and 5", got)
	}
	// Only the second vote triggers the prepare.
	if got := handle["yes"]; len(got) != 1 || got[0] != 1 {
		t.Errorf("yes handling %v, want [1]", got)
	}
}
