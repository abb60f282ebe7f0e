package fourpc_test

import (
	"testing"

	"termproto/internal/cluster"
	"termproto/internal/proto"
	"termproto/internal/protocol/fourpc"
	"termproto/internal/sim"
	"termproto/internal/simnet"
	"termproto/internal/trace"
)

const T = sim.DefaultT

// result is one finished single-transaction run.
type result struct {
	*cluster.TxnResult
	Trace *trace.Recorder
}

// run submits one transaction mastered at site 1 at tick 0 on the
// deterministic cluster simulator and runs it to quiescence, recording
// the trace.
func run(t *testing.T, cfg cluster.Config, opts cluster.SimOptions) *result {
	t.Helper()
	opts.RecordTrace = true
	b := cluster.NewSimBackend(opts)
	cfg.Backend = b
	c, err := cluster.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r, err := c.Submit(cluster.Txn{Master: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	return &result{TxnResult: r, Trace: b.Trace()}
}

func TestFourPCFailureFree(t *testing.T) {
	for _, n := range []int{2, 3, 6} {
		r := run(t, cluster.Config{Sites: n, Protocol: fourpc.Protocol{}}, cluster.SimOptions{})
		for id, s := range r.Sites {
			if s.Outcome != proto.Commit {
				t.Fatalf("n=%d site %d = %v, want commit", n, id, s.Outcome)
			}
		}
	}
}

func TestFourPCAborts(t *testing.T) {
	for _, v := range []proto.Voter{proto.NoAt(2), proto.NoAt(1), proto.NoAt(3, 4)} {
		r := run(t, cluster.Config{Sites: 4, Protocol: fourpc.Protocol{}, Votes: v}, cluster.SimOptions{})
		if !r.Consistent() {
			t.Fatal("inconsistent on no-vote")
		}
		if r.Sites[1].Outcome != proto.Abort {
			t.Fatalf("master = %v, want abort", r.Sites[1].Outcome)
		}
	}
}

// Theorem 10: the termination construction generalized to four phases is
// resilient to permanent simple partitioning — same sweep as Theorem 9.
func TestFourPCPermanentPartitionSweep(t *testing.T) {
	splits := [][]proto.SiteID{{2}, {4}, {2, 3}, {3, 4}, {2, 3, 4}}
	for _, split := range splits {
		for at := sim.Time(0); at <= 10*sim.Time(T); at += sim.Time(T) / 4 {
			r := run(t, cluster.Config{
				Sites: 4, Protocol: fourpc.Protocol{},
				Schedule: cluster.Schedule{cluster.PartitionAt(at, split...)},
			}, cluster.SimOptions{})
			if !r.Consistent() {
				t.Fatalf("split %v onset %d: INCONSISTENT\n%s", split, at, r.Trace.Dump())
			}
			if len(r.Blocked()) != 0 {
				t.Fatalf("split %v onset %d: blocked %v\n%s", split, at, r.Blocked(), r.Trace.Dump())
			}
		}
	}
}

// The G2-commit law holds for the generalized protocol too: G2 commits iff
// a prepare (the committable-transition message) crossed B.
func TestFourPCG2CommitLaw(t *testing.T) {
	for at := sim.Time(0); at <= 10*sim.Time(T); at += sim.Time(T) / 8 {
		r := run(t, cluster.Config{
			Sites: 4, Protocol: fourpc.Protocol{},
			Schedule: cluster.Schedule{cluster.PartitionAt(at, 3, 4)},
		}, cluster.SimOptions{})
		if !r.Consistent() || len(r.Blocked()) != 0 {
			t.Fatalf("onset %d: consistent=%v blocked=%v\n%s",
				at, r.Consistent(), r.Blocked(), r.Trace.Dump())
		}
		prepCrossed := r.Trace.CrossDelivered("prepare") > 0
		if g2Commit := r.Sites[3].Outcome == proto.Commit; g2Commit != prepCrossed {
			t.Fatalf("onset %d: prepare crossed=%v, G2 commit=%v\n%s",
				at, prepCrossed, g2Commit, r.Trace.Dump())
		}
	}
}

// Randomized sweep with mixed latencies and votes.
func TestFourPCRandomized(t *testing.T) {
	rng := sim.NewRand(14)
	runs := 200
	if testing.Short() {
		runs = 40
	}
	for i := 0; i < runs; i++ {
		n := 3 + rng.Intn(4)
		var split []proto.SiteID
		for s := 2; s <= n; s++ {
			if rng.Bool() {
				split = append(split, proto.SiteID(s))
			}
		}
		if len(split) == 0 {
			split = []proto.SiteID{proto.SiteID(n)}
		}
		cfg := cluster.Config{
			Sites: n, Protocol: fourpc.Protocol{TransientFix: rng.Bool()},
			Schedule: cluster.Schedule{cluster.PartitionAt(sim.Time(rng.Int63n(int64(11*T))), split...)},
		}
		r := run(t, cfg, cluster.SimOptions{
			Latency: simnet.Uniform{Lo: sim.Duration(T) / 4, Hi: T},
			Seed:    rng.Uint64(),
		})
		if !r.Consistent() {
			t.Fatalf("run %d: INCONSISTENT\n%s", i, r.Trace.Dump())
		}
		if len(r.Blocked()) != 0 {
			t.Fatalf("run %d: blocked %v\n%s", i, r.Blocked(), r.Trace.Dump())
		}
	}
}

// Transient partitions with the §6 fix generalized.
func TestFourPCTransient(t *testing.T) {
	for onset := sim.Time(0); onset <= 8*sim.Time(T); onset += sim.Time(T) {
		for _, healDelta := range []sim.Time{1, 2 * sim.Time(T), 5 * sim.Time(T)} {
			r := run(t, cluster.Config{
				Sites: 4, Protocol: fourpc.Protocol{TransientFix: true},
				Schedule: cluster.Schedule{cluster.TransientPartitionAt(onset, onset+healDelta, 3, 4)},
			}, cluster.SimOptions{})
			if !r.Consistent() {
				t.Fatalf("onset %d heal +%d: INCONSISTENT\n%s", onset, healDelta, r.Trace.Dump())
			}
			if len(r.Blocked()) != 0 {
				t.Fatalf("onset %d heal +%d: blocked %v\n%s",
					onset, healDelta, r.Blocked(), r.Trace.Dump())
			}
		}
	}
}
