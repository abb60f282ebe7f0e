package main

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"termproto/internal/check"
	"termproto/internal/db/engine"
	"termproto/internal/netnode"
)

// siteView is one site process's view of the transactions it knows, by
// TID. A site restarted mid-run contributes one view per process.
type siteView struct {
	site int
	txns map[uint64]netnode.TxnDTO
}

func decided(t netnode.TxnDTO) bool { return t.Outcome == "commit" || t.Outcome == "abort" }

// gateInput is everything the correctness gate inspects once the
// localnet is quiescent.
type gateInput struct {
	spec      workloadSpec
	arrivals  []arrival
	submitted []bool
	views     []siteView
	// snapshots and unstable are each live site's committed state and
	// the keys still held by undecided transactions.
	snapshots map[int]map[string][]byte
	unstable  map[int]map[string]bool
}

// maxViolations caps how many violations of one kind are listed.
const maxViolations = 5

// gate checks a finished run and returns its violations; a run with any
// reports "correct": false.
func gate(in gateInput) []string {
	var out []string
	add := func(kind string, list []string) {
		if len(list) == 0 {
			return
		}
		sort.Strings(list)
		more := ""
		if len(list) > maxViolations {
			more = fmt.Sprintf(" (and %d more)", len(list)-maxViolations)
			list = list[:maxViolations]
		}
		out = append(out, fmt.Sprintf("%s: %s%s", kind, strings.Join(list, "; "), more))
	}

	// Every submitted transaction is decided at its coordinator, and
	// every participant that started a transaction decided it.
	var undecided []string
	bySite := make(map[int]map[uint64]netnode.TxnDTO)
	for _, v := range in.views {
		if bySite[v.site] == nil {
			bySite[v.site] = make(map[uint64]netnode.TxnDTO)
		}
		for tid, t := range v.txns {
			bySite[v.site][tid] = t
			if t.Started && !decided(t) {
				undecided = append(undecided, fmt.Sprintf("txn %d started at site %d but is %q", tid, v.site, t.Outcome))
			}
		}
	}
	for i, a := range in.arrivals {
		if in.submitted[i] {
			if _, ok := bySite[a.master][a.tid]; !ok {
				undecided = append(undecided, fmt.Sprintf("txn %d unknown at its coordinator %d", a.tid, a.master))
			}
		}
	}
	add("undecided", undecided)

	// No transaction is committed at one site and aborted at another.
	var split []string
	outcomes := make(map[uint64]map[string][]int)
	for _, v := range in.views {
		for tid, t := range v.txns {
			if !decided(t) {
				continue
			}
			if outcomes[tid] == nil {
				outcomes[tid] = make(map[string][]int)
			}
			outcomes[tid][t.Outcome] = append(outcomes[tid][t.Outcome], v.site)
		}
	}
	for tid, by := range outcomes {
		if len(by["commit"]) > 0 && len(by["abort"]) > 0 {
			split = append(split, fmt.Sprintf("txn %d committed at %v, aborted at %v", tid, by["commit"], by["abort"]))
		}
	}
	add("split decision", split)

	// Every live site holds the same committed state, with no key still
	// locked.
	sites := make([]int, 0, len(in.snapshots))
	for s := range in.snapshots {
		sites = append(sites, s)
	}
	sort.Ints(sites)
	var diverged []string
	for _, s := range sites {
		if n := len(in.unstable[s]); n > 0 {
			diverged = append(diverged, fmt.Sprintf("site %d still holds %d locked keys", s, n))
		}
	}
	for _, v := range check.Check(check.Input{Snapshots: in.snapshots, Unstable: in.unstable, SkipBounds: true}) {
		diverged = append(diverged, v.String())
	}
	add("replicas differ", diverged)

	if in.spec.accounts > 0 {
		add("balance not conserved", conservation(in.spec.accounts, sites, in.snapshots))
	} else {
		add("wrong key state", putEffects(in, bySite, sites))
	}
	return out
}

// putEffects checks that every committed put is present with its value
// and every other put absent, at every live site.
func putEffects(in gateInput, bySite map[int]map[uint64]netnode.TxnDTO, sites []int) []string {
	var out []string
	for i, a := range in.arrivals {
		committed := in.submitted[i] && bySite[a.master][a.tid].Outcome == "commit"
		for _, s := range sites {
			v, ok := in.snapshots[s][a.key]
			switch {
			case committed && !ok:
				out = append(out, fmt.Sprintf("committed key %s missing at site %d", a.key, s))
			case committed && !bytes.Equal(v, a.value):
				out = append(out, fmt.Sprintf("committed key %s has the wrong value at site %d", a.key, s))
			case !committed && ok:
				out = append(out, fmt.Sprintf("uncommitted key %s present at site %d", a.key, s))
			}
		}
	}
	return out
}

// conservation checks that transfers moved balances without creating or
// destroying any, at every live site.
func conservation(accounts int, sites []int, snaps map[int]map[string][]byte) []string {
	want := int64(accounts) * initialBalance
	var out []string
	for _, s := range sites {
		var total int64
		n := 0
		for i := 0; i < accounts; i++ {
			if v, ok := snaps[s][accountKey(i)]; ok {
				total += engine.DecodeInt(v)
				n++
			}
		}
		if total != want || n != accounts {
			out = append(out, fmt.Sprintf("site %d holds %d accounts totalling %d, want %d totalling %d", s, n, total, accounts, want))
		}
	}
	return out
}
