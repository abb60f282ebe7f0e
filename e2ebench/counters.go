package main

import (
	"fmt"
	"strings"

	"termproto/internal/netnode"
	"termproto/internal/obs"
)

// scrape is one daemon's counters at one instant: GET /stats and GET
// /metricsjson.
type scrape struct {
	stats   netnode.StatsDTO
	metrics obs.Snapshot
}

func scrapeSite(c *netnode.Client) (scrape, error) {
	st, err := c.Stats()
	if err != nil {
		return scrape{}, fmt.Errorf("scrape /stats: %w", err)
	}
	m, err := c.Metrics()
	if err != nil {
		return scrape{}, fmt.Errorf("scrape /metricsjson: %w", err)
	}
	return scrape{stats: st, metrics: m}, nil
}

// counters is the growth of the daemons' counters over the timed window,
// summed over sites.
type counters struct {
	sent, bounced, dropped uint64
	voteYes, voteNo        uint64
	walRecords, walSyncs   uint64
	metrics                obs.Snapshot
}

// addDelta adds one process's growth from before to after. A site that
// was killed mid-window contributes two deltas: its old process up to
// the last scrape before the kill, and its new process from zero.
func (c *counters) addDelta(after, before scrape) {
	a, b := after.stats, before.stats
	c.sent += a.Sent - b.Sent
	c.bounced += a.Bounced - b.Bounced
	c.dropped += a.Dropped - b.Dropped
	c.voteYes += a.VoteYes - b.VoteYes
	c.voteNo += a.VoteNo - b.VoteNo
	c.walRecords += a.WalRecords - b.WalRecords
	c.walSyncs += a.WalSyncs - b.WalSyncs
	c.metrics.Merge(subtract(after.metrics, before.metrics))
}

// subtract returns after − before, series by series: counter values and
// histogram buckets, counts and sums.
func subtract(after, before obs.Snapshot) obs.Snapshot {
	out := obs.Snapshot{Families: make([]obs.FamilySnap, 0, len(after.Families))}
	for _, af := range after.Families {
		bf := before.Family(af.Name)
		fam := af
		fam.Series = make([]obs.SeriesSnap, len(af.Series))
		for i, as := range af.Series {
			s := as
			s.Buckets = append([]uint64(nil), as.Buckets...)
			if bs := findSeries(bf, as.Labels); bs != nil {
				s.Value -= bs.Value
				s.Count -= bs.Count
				s.Sum -= bs.Sum
				for j := range s.Buckets {
					if j < len(bs.Buckets) {
						s.Buckets[j] -= bs.Buckets[j]
					}
				}
			}
			fam.Series[i] = s
		}
		out.Families = append(out.Families, fam)
	}
	return out
}

func findSeries(f *obs.FamilySnap, labels []obs.Label) *obs.SeriesSnap {
	if f == nil {
		return nil
	}
	want := labelString(labels)
	for i := range f.Series {
		if labelString(f.Series[i].Labels) == want {
			return &f.Series[i]
		}
	}
	return nil
}

func labelString(labels []obs.Label) string {
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Key + "=" + l.Value
	}
	return strings.Join(parts, ",")
}
