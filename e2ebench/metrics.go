package main

import (
	"math"

	"termproto/internal/netnode"
	"termproto/internal/obs"
)

// Units of the reported figures.
const (
	unitUS    = "us"
	unitMS    = "ms"
	unitS     = "s"
	unitRate  = "txn/s"
	unitRatio = "ratio"
	unitCount = "count"
	unitPct   = "%"
)

// outcomes summarizes one run's transactions as the sites decided them.
type outcomes struct {
	attempted, failed, commits int
	// commit, abort and settle are latencies from due time in µs:
	// to the coordinator's commit, to its abort, and to the last
	// decision among the live participants that started a committed
	// transaction.
	commit, abort, settle dist
	// partitionSettle holds the settle times of the transactions in
	// flight at partition onset.
	partitionSettle dist
	// lastCommit is the latest commit decision instant (Unix µs).
	lastCommit int64
}

// tally reads every arrival's fate from the sites' views. A transaction
// whose submit failed or that its coordinator never decided counts as
// failed.
func tally(d *runData) outcomes {
	var o outcomes
	o.attempted = len(d.arrivals)
	bySite := make(map[int]map[uint64]netnode.TxnDTO)
	for _, v := range d.views {
		if bySite[v.site] == nil {
			bySite[v.site] = v.txns
		}
	}
	onset := int64(math.MaxInt64)
	if d.faults != nil {
		onset = d.faults.partitionAt.UnixMicro()
	}
	for i, a := range d.arrivals {
		s := d.samples[i]
		t, ok := bySite[a.master][a.tid]
		if s.err != nil || !ok || !decided(t) {
			o.failed++
			continue
		}
		last := t.DecidedAtMicro
		for _, v := range d.views {
			if p, ok := v.txns[a.tid]; ok && p.Started && decided(p) && p.DecidedAtMicro > last {
				last = p.DecidedAtMicro
			}
		}
		if s.due.UnixMicro() < onset && last > onset {
			o.partitionSettle = append(o.partitionSettle, sinceDue(s, last))
		}
		if t.Outcome == "abort" {
			o.abort = append(o.abort, sinceDue(s, t.DecidedAtMicro))
			continue
		}
		o.commits++
		o.commit = append(o.commit, sinceDue(s, t.DecidedAtMicro))
		o.settle = append(o.settle, sinceDue(s, last))
		o.lastCommit = max(o.lastCommit, t.DecidedAtMicro)
	}
	return o
}

// endToEnd derives the figures a user of the cluster sees. The first
// group is bounded on every workload; abort latency, partition settle
// and recovery time exist only where the workload produces them.
func endToEnd(d *runData, o outcomes, r *report) {
	r.set("setup_s", median(d.setupS), unitS)
	r.pct("commit_p50_us", o.commit, 0.50, unitUS)
	r.pct("commit_p99_us", o.commit, 0.99, unitUS)
	r.pct("settle_p99_us", o.settle, 0.99, unitUS)
	if span := float64(o.lastCommit-d.start.UnixMicro()) / 1e6; o.commits > 0 && span > 0 {
		r.set("committed_per_s", float64(o.commits)/span, unitRate)
	}
	r.set("commit_frac", float64(o.commits)/float64(o.attempted), unitRatio)

	// These read 0 where the workload produces no partition, no crash or
	// too few aborts for a median.
	r.set("abort_p50_us", 0, unitUS)
	if _, err := o.abort.percentile(0.50); err == nil {
		r.pct("abort_p50_us", o.abort, 0.50, unitUS)
	}
	r.set("partition_settle_max_us", 0, unitUS)
	if len(o.partitionSettle) > 0 {
		r.set("partition_settle_max_us", o.partitionSettle.max(), unitUS)
	}
	r.set("recover_ms", 0, unitMS)
	if d.faults != nil {
		r.set("recover_ms", float64(d.faults.recover.Microseconds())/1e3, unitMS)
	}
}

// layers derives the per-layer figures a run's own timings and the
// daemons' counter deltas give.
func layers(d *runData, o outcomes, r *report) {
	var submit, late dist
	for _, s := range d.samples {
		submit = append(submit, float64(s.ret.Sub(s.call).Microseconds()))
		late = append(late, float64(s.call.Sub(s.due).Microseconds()))
	}
	r.pct("client.submit_p50_us", submit, 0.50, unitUS)
	r.pct("client.submit_p99_us", submit, 0.99, unitUS)
	r.pct("client.late_p99_us", late, 0.99, unitUS)

	r.set("harness.boot_ms", median(d.bootMS), unitMS)
	r.set("harness.fixture_ms", median(d.fixtureMS), unitMS)

	c := d.counters
	txns := float64(o.attempted)
	phase := func(p string) obs.Label { return obs.L("phase", p) }
	r.set("netnode.msgs_per_txn", float64(c.sent)/txns, "msgs/txn")
	r.set("netnode.bytes_per_txn", float64(c.metrics.Value(obs.MNetBytes, obs.L("dir", "sent")))/txns, "B/txn")
	r.set("netnode.bounced", float64(c.bounced), unitCount)
	r.set("netnode.dropped", float64(c.dropped), unitCount)
	r.set("netnode.prepared_p50_us", c.metrics.Quantile(obs.MRoundLatency, 0.50, phase("prepared")), unitUS)
	r.set("netnode.decided_p50_us", c.metrics.Quantile(obs.MRoundLatency, 0.50, phase("decided")), unitUS)
	r.set("netnode.decided_p99_us", c.metrics.Quantile(obs.MRoundLatency, 0.99, phase("decided")), unitUS)

	r.set("wal.fsyncs_per_txn_site", float64(c.walSyncs)/(txns*numSites), "fsyncs/txn/site")
	r.set("wal.records_per_sync", ratio(c.walRecords, c.walSyncs), "records/sync")
	r.set("wal.fsync_p50_us", c.metrics.Quantile(obs.MWalFsyncLatency, 0.50), unitUS)
	r.set("wal.fsync_p99_us", c.metrics.Quantile(obs.MWalFsyncLatency, 0.99), unitUS)

	r.set("engine.vote_no_frac", ratio(c.voteNo, c.voteYes+c.voteNo), unitRatio)

	var rec netnode.RecoveryDTO
	if d.faults != nil {
		rec = d.faults.recovery
	}
	r.set("recovery.replayed", float64(rec.Replayed), unitCount)
	r.set("recovery.indoubt", float64(rec.InDoubt), unitCount)
	r.set("recovery.resolved", float64(rec.ResolvedCommit+rec.ResolvedAbort), unitCount)
	r.set("recovery.caught_up_keys", float64(rec.CaughtUpKeys), unitCount)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
