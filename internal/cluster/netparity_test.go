package cluster

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"termproto/internal/core"
	"termproto/internal/db/engine"
	"termproto/internal/db/wal"
	"termproto/internal/placement"
	"termproto/internal/proto"
	"termproto/internal/sim"
)

// netT is the wall value of T for the multi-process backend in tests:
// wide enough that process spawn and HTTP polling stay well inside
// protocol timing.
const netT = 100 * time.Millisecond

func netBackend(t *testing.T) *NetBackend {
	t.Helper()
	return NewNetBackend(NetOptions{
		T: netT, ProtoName: "termination+transient", Workdir: t.TempDir(), Seed: 11,
	})
}

func parityBatch() []Txn {
	mk := func(key string) []byte {
		return engine.EncodeOps([]engine.Op{{Kind: engine.OpPut, Key: key, Value: []byte("v")}})
	}
	return []Txn{
		{Payload: mk("a")},
		{At: sim.Time(sim.DefaultT / 2), Payload: mk("b")},
		{At: sim.Time(sim.DefaultT), Payload: mk("c"), Votes: NoAt(2)},
		{At: sim.Time(3 * sim.DefaultT / 2), Payload: mk("d")},
	}
}

func runBatch(t *testing.T, backend Backend, batch []Txn) (*Cluster, []*TxnResult) {
	t.Helper()
	c, err := Open(Config{
		Sites: 3, Protocol: core.Protocol{TransientFix: true},
		Backend: backend,
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	rs, err := c.SubmitBatch(batch)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := c.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	return c, rs
}

// TestNetParityOutcomes runs the same fault-free batch through the
// simulator and through real termnode processes: per-transaction
// outcomes must agree — including the scripted no-vote abort, whose
// verdict crosses the process boundary in the submission envelope — and
// both runs must satisfy the termination property.
func TestNetParityOutcomes(t *testing.T) {
	batch := parityBatch()
	simC, simRS := runBatch(t, NewSimBackend(SimOptions{Seed: 11}), batch)
	nb := netBackend(t)
	netC, netRS := runBatch(t, nb, batch)

	for i := range simRS {
		so, no := simRS[i].Outcome(), netRS[i].Outcome()
		if so != no {
			t.Errorf("txn %d: sim=%s net=%s", simRS[i].TID, so, no)
		}
	}
	if err := simC.Termination(); err != nil {
		t.Errorf("sim termination: %v", err)
	}
	if err := netC.Termination(); err != nil {
		t.Errorf("net termination: %v", err)
	}
	// The daemons' engines must have converged on the committed keys —
	// the replica check Termination can't do from outside the processes.
	snaps := nb.Snapshots()
	if len(snaps) != 3 {
		t.Fatalf("snapshots from %d/3 nodes", len(snaps))
	}
	for id, snap := range snaps {
		for _, key := range []string{"a", "b", "d"} {
			if string(snap[key]) != "v" {
				t.Errorf("site %d: key %q = %q, want \"v\"", id, key, snap[key])
			}
		}
		if _, ok := snap["c"]; ok {
			t.Errorf("site %d holds key of aborted txn", id)
		}
	}
}

// TestNetParityTransientPartition scripts the paper's transient-partition
// scenario on both backends: a minority cut at 2.5T healing at 7T. The
// exact outcomes are timing-dependent, but the safety aggregate is not:
// every transaction decided everywhere, no site disagrees, nothing
// blocks.
func TestNetParityTransientPartition(t *testing.T) {
	sched := Schedule{PartitionAt(sim.Time(5*sim.DefaultT/2), 3), HealAt(sim.Time(7 * sim.DefaultT))}
	batch := parityBatch()
	for _, backend := range []Backend{
		NewSimBackend(SimOptions{Seed: 11}),
		netBackend(t),
	} {
		c, err := Open(Config{
			Sites: 3, Protocol: core.Protocol{TransientFix: true},
			Backend: backend, Schedule: sched,
		})
		if err != nil {
			t.Fatalf("open %s: %v", backend.Name(), err)
		}
		if _, err := c.SubmitBatch(batch); err != nil {
			t.Fatalf("submit %s: %v", backend.Name(), err)
		}
		if err := c.Wait(); err != nil {
			t.Fatalf("wait %s: %v", backend.Name(), err)
		}
		if err := c.Termination(); err != nil {
			t.Errorf("%s termination: %v", backend.Name(), err)
		}
		st := c.Stats()
		if st.Committed+st.Aborted != st.Submitted || st.Blocked != 0 || st.Inconsistent != 0 {
			t.Errorf("%s stats not conserved: %s", backend.Name(), st)
		}
		c.Close()
	}
}

// TestNetCrashAfterPrepared scripts the coordinator crash through the
// cluster API against real processes: SIGKILL at 0.8T — after the slaves
// hold the transaction but before the decision propagates — then a
// scheduled recovery. The restarted daemon must resolve the in-doubt
// transaction over a real MsgInquire round trip, and every site must end
// agreeing with the slaves' unilateral termination decision.
func TestNetCrashAfterPrepared(t *testing.T) {
	nb := netBackend(t)
	c, err := Open(Config{
		Sites: 3, Protocol: core.Protocol{TransientFix: true},
		Backend: nb,
		Schedule: Schedule{
			CrashAt(sim.Time(8*sim.DefaultT/10), 1),
			RecoverAt(sim.Time(8*sim.DefaultT), 1),
		},
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer c.Close()
	ops := engine.EncodeOps([]engine.Op{{Kind: engine.OpPut, Key: "crash", Value: []byte("v")}})
	r, err := c.Submit(Txn{Master: 1, Payload: ops})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := c.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}

	recs := c.Recoveries()
	if len(recs) != 1 || recs[0].Site != 1 {
		t.Fatalf("recoveries = %v, want one for site 1", recs)
	}
	if recs[0].Err != nil || recs[0].Stats.Unresolved != 0 {
		t.Fatalf("recovery did not fully resolve: %+v", recs[0])
	}
	if !r.Consistent() {
		t.Fatalf("atomicity violated: %+v", r.Sites)
	}
	if b := r.Blocked(); len(b) != 0 {
		t.Fatalf("blocked sites %v", b)
	}
	// Whatever the race decided, the recovered coordinator must agree
	// with the slaves, and the committed state must be replicated (or
	// absent) identically everywhere.
	outcome := r.Outcome()
	if outcome == proto.None {
		t.Fatal("no site decided")
	}
	if recs[0].Stats.InDoubt > 0 &&
		recs[0].Stats.ResolvedCommit+recs[0].Stats.ResolvedAbort != recs[0].Stats.InDoubt {
		t.Fatalf("in-doubt not resolved by inquiry: %+v", recs[0].Stats)
	}
	for id, snap := range nb.Snapshots() {
		got := string(snap["crash"])
		if outcome == proto.Commit && got != "v" {
			t.Errorf("site %d: crash = %q after commit", id, got)
		}
		if outcome == proto.Abort && got != "" {
			t.Errorf("site %d: crash = %q after abort", id, got)
		}
	}
}

// TestNetOpenRejectsUnsupportedConfigs pins the net backend's loud
// rejections: in-process participants, a directory past epoch 0,
// single-replica placement and membership events all stay simulator-only,
// and Open must refuse each one before any termnode process starts. The
// binary path points nowhere, so a row that slipped past the checks
// could not spawn a daemon either; the empty workspace proves none did.
func TestNetOpenRejectsUnsupportedConfigs(t *testing.T) {
	epoch0 := func() *placement.Directory {
		return placement.NewDirectory(mustAssignment(t, 4, 2, 1, 2, 3))
	}
	bumped := func() *placement.Directory {
		asg, err := placement.ArithmeticOver(4, 2, []proto.SiteID{1, 2})
		if err != nil {
			t.Fatal(err)
		}
		next, err := asg.WithJoin(3)
		if err != nil {
			t.Fatal(err)
		}
		d := placement.NewDirectory(asg)
		if err := d.SetPending(next); err != nil {
			t.Fatal(err)
		}
		d.CommitPending()
		return d
	}
	rf1, err := NewShardMap(4, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"participants", Config{Participants: map[proto.SiteID]Participant{
			1: engine.New("site-1", &wal.MemStore{}),
		}}, "participants"},
		{"epoch past 0", Config{Directory: bumped()}, "epoch 0"},
		{"rf 1", Config{ShardMap: rf1}, "rf >= 2"},
		{"join", Config{Directory: epoch0(), Schedule: Schedule{JoinAt(1000, 3)}}, "membership"},
		{"leave", Config{Directory: epoch0(), Schedule: Schedule{LeaveAt(1000, 3)}}, "membership"},
		{"move", Config{Directory: epoch0(), Schedule: Schedule{MoveShardAt(1000, 0, 1, 3)}}, "membership"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			nb := NewNetBackend(NetOptions{
				T: netT, Workdir: dir, BinPath: filepath.Join(dir, "no-termnode"),
			})
			tc.cfg.Sites = 3
			tc.cfg.Protocol = core.Protocol{TransientFix: true}
			tc.cfg.Backend = nb
			if _, err := Open(tc.cfg); err == nil || !strings.Contains(err.Error(), "net backend") ||
				!strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Open error = %v, want a net backend rejection mentioning %q", err, tc.want)
			}
			if nb.net != nil {
				t.Fatal("a localnet was started")
			}
			if ents, _ := os.ReadDir(dir); len(ents) != 0 {
				t.Fatalf("workspace not empty: %d entries", len(ents))
			}
		})
	}
}
