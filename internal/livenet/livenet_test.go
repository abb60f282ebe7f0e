package livenet

import (
	"fmt"
	"testing"
	"time"

	"termproto/internal/core"
	"termproto/internal/db/engine"
	"termproto/internal/db/wal"
	"termproto/internal/proto"
	"termproto/internal/protocol/twopc"
)

const liveT = 5 * time.Millisecond

// submitOne starts c's site loops and submits transaction 1, mastered at
// site 1 over every site.
func submitOne(t *testing.T, c *Cluster, votes func(proto.SiteID, []byte) bool) {
	t.Helper()
	c.StartSites()
	if err := c.Submit(TxnSpec{TID: 1, Master: 1, Votes: votes}); err != nil {
		t.Fatal(err)
	}
}

// finishOne waits up to timeout for transaction 1 to decide at every
// site, stops the cluster, and returns the transaction's final view.
func finishOne(c *Cluster, timeout time.Duration) TxnStatus {
	c.WaitTxn(1, timeout)
	c.Stop()
	return c.Status(1)
}

// consistent reports whether no two decided outcomes differ.
func consistent(outs []Outcome) bool {
	seen := proto.None
	for _, o := range outs {
		if o.Outcome == proto.None {
			continue
		}
		if seen == proto.None {
			seen = o.Outcome
		} else if seen != o.Outcome {
			return false
		}
	}
	return true
}

func TestLiveFailureFreeCommit(t *testing.T) {
	c := New(Config{N: 4, Protocol: core.Protocol{}, T: liveT})
	submitOne(t, c, nil)
	st := finishOne(c, 100*liveT)
	if !st.Decided {
		t.Fatalf("not all sites decided: %v", st.Sites)
	}
	for _, o := range st.Sites {
		if o.Outcome != proto.Commit {
			t.Fatalf("site %d = %v, want commit", o.Site, o.Outcome)
		}
	}
}

func TestLiveNoVoteAborts(t *testing.T) {
	c := New(Config{N: 3, Protocol: core.Protocol{}, T: liveT})
	submitOne(t, c, func(site proto.SiteID, _ []byte) bool { return site != 3 })
	st := finishOne(c, 100*liveT)
	if !st.Decided {
		t.Fatalf("not all sites decided: %v", st.Sites)
	}
	for _, o := range st.Sites {
		if o.Outcome != proto.Abort {
			t.Fatalf("site %d = %v, want abort", o.Site, o.Outcome)
		}
	}
}

func TestLivePartitionTerminatesConsistently(t *testing.T) {
	// Partition two slaves away mid-protocol; the termination protocol
	// must still decide at every site, consistently.
	for _, delay := range []time.Duration{0, liveT, 3 * liveT} {
		delay := delay
		c := New(Config{N: 5, Protocol: core.Protocol{TransientFix: true}, T: liveT})
		submitOne(t, c, nil)
		time.AfterFunc(delay, func() { c.Partition(4, 5) })
		st := finishOne(c, 200*liveT)
		if !st.Decided {
			t.Fatalf("delay %v: undecided sites: %v", delay, st.Sites)
		}
		if !consistent(st.Sites) {
			t.Fatalf("delay %v: INCONSISTENT outcomes: %v", delay, st.Sites)
		}
	}
}

func TestLiveTransientPartitionHeals(t *testing.T) {
	c := New(Config{N: 4, Protocol: core.Protocol{TransientFix: true}, T: liveT})
	submitOne(t, c, nil)
	// Let the xact round land before partitioning, so sites 3 and 4 are
	// participants when the boundary rises.
	time.AfterFunc(2*liveT, func() { c.Partition(3, 4) })
	time.AfterFunc(12*liveT, c.Heal)
	st := finishOne(c, 300*liveT)
	if !st.Decided {
		t.Fatalf("undecided after heal: %v", st.Sites)
	}
	if !consistent(st.Sites) {
		t.Fatalf("inconsistent after heal: %v", st.Sites)
	}
}

func TestLiveTwoPCBlocksUnderPartition(t *testing.T) {
	// The motivating contrast, live: pure 2PC leaves sites undecided.
	c := New(Config{N: 3, Protocol: twopc.Protocol{}, T: liveT})
	submitOne(t, c, nil)
	c.Partition(3)
	st := finishOne(c, 50*liveT)
	if st.Decided {
		t.Fatalf("2PC decided everywhere under a partition: %v", st.Sites)
	}
	if !consistent(st.Sites) {
		t.Fatalf("2PC inconsistent: %v", st.Sites)
	}
}

// Inquire is the recovery inquiry round over real messages: after a
// decision, any site answers with its durable (database) outcome; across
// a partition the inquiry bounces (unreachable); an undecided or
// database-less transaction is silence.
func TestLiveInquire(t *testing.T) {
	parts := make(map[proto.SiteID]Participant, 4)
	for i := 1; i <= 4; i++ {
		e := engine.New(fmt.Sprintf("s%d", i), &wal.MemStore{})
		e.PutInt("k", 100)
		parts[proto.SiteID(i)] = e
	}
	c := New(Config{
		N: 4, Protocol: core.Protocol{TransientFix: true}, T: liveT,
		Participants: parts,
	})
	c.StartSites()
	defer c.Stop()
	payload := engine.EncodeOps([]engine.Op{{Kind: engine.OpAdd, Key: "k", Delta: -1}})
	if err := c.Submit(TxnSpec{TID: 1, Master: 1, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	if !c.WaitTxn(1, 100*liveT) {
		t.Fatal("txn 1 undecided")
	}
	if o, ok := c.Inquire(4, 2, 1, 10*liveT); !ok || o != proto.Commit {
		t.Fatalf("Inquire(4->2, 1) = %v/%v, want commit", o, ok)
	}
	// An unknown transaction has no durable outcome anywhere: silence.
	if _, ok := c.Inquire(4, 2, 99, 4*liveT); ok {
		t.Fatal("inquiry about an unknown txn answered")
	}
	// Across a partition the inquiry itself bounces: unreachable.
	c.Partition(4)
	if _, ok := c.Inquire(4, 2, 1, 10*liveT); ok {
		t.Fatal("inquiry crossed an active partition boundary")
	}
	c.Heal()
	if o, ok := c.Inquire(4, 2, 1, 10*liveT); !ok || o != proto.Commit {
		t.Fatalf("post-heal Inquire = %v/%v, want commit", o, ok)
	}
}

// A site without a database has no durable decision to offer: inquiries
// get silence, never volatile automaton bookkeeping — the same answer the
// deterministic backend gives.
func TestLiveInquireNeedsDurableState(t *testing.T) {
	c := New(Config{N: 3, Protocol: core.Protocol{TransientFix: true}, T: liveT})
	c.StartSites()
	defer c.Stop()
	if err := c.Submit(TxnSpec{TID: 1, Master: 1}); err != nil {
		t.Fatal(err)
	}
	if !c.WaitTxn(1, 100*liveT) {
		t.Fatal("txn 1 undecided")
	}
	if _, ok := c.Inquire(3, 2, 1, 4*liveT); ok {
		t.Fatal("engine-less site answered an inquiry from volatile state")
	}
}

func TestLiveReachable(t *testing.T) {
	c := New(Config{N: 4, Protocol: core.Protocol{}, T: liveT})
	c.StartSites()
	defer c.Stop()
	if !c.Reachable(1, 4) {
		t.Fatal("healthy pair unreachable")
	}
	c.Partition(3, 4)
	if c.Reachable(1, 4) || !c.Reachable(3, 4) || !c.Reachable(1, 2) {
		t.Fatal("partition reachability wrong")
	}
	c.Heal()
	c.Crash(2)
	if c.Reachable(1, 2) {
		t.Fatal("crashed site reachable")
	}
	c.Recover(2)
	if !c.Reachable(1, 2) {
		t.Fatal("recovered site unreachable")
	}
}

func TestLiveAutomataSpawned(t *testing.T) {
	c := New(Config{N: 4, Protocol: core.Protocol{TransientFix: true}, T: liveT})
	c.StartSites()
	defer c.Stop()
	if err := c.Submit(TxnSpec{TID: 1, Master: 1, Sites: []proto.SiteID{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(TxnSpec{TID: 2, Master: 2, Sites: []proto.SiteID{2, 3, 4}}); err != nil {
		t.Fatal(err)
	}
	if !c.WaitAll(200 * liveT) {
		t.Fatal("undecided")
	}
	want := map[proto.SiteID]int{1: 1, 2: 2, 3: 2, 4: 1}
	got := c.AutomataSpawned()
	for id, n := range want {
		if got[id] != n {
			t.Fatalf("spawned = %v, want %v", got, want)
		}
	}
}

func TestLiveStopIdempotent(t *testing.T) {
	c := New(Config{N: 2, Protocol: core.Protocol{}, T: liveT})
	submitOne(t, c, nil)
	finishOne(c, 100*liveT)
	c.Stop()
	c.Stop()
}

func TestLiveNewPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"n<2":   func() { New(Config{N: 1, Protocol: core.Protocol{}}) },
		"nilPr": func() { New(Config{N: 3}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
