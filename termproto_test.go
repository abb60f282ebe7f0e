package termproto_test

import (
	"fmt"
	"testing"

	"termproto"
)

// The facade is the supported public surface; these tests exercise it the
// way the examples and a downstream user would.

// runOne runs one transaction the way the paper states its scenarios:
// submitted at tick 0, mastered at site 1 over every site, run to
// quiescence on cfg's backend (the simulator when unset).
func runOne(tb testing.TB, cfg termproto.ClusterConfig) *termproto.TxnResult {
	tb.Helper()
	c, err := termproto.Open(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	defer c.Close()
	r, err := c.Submit(termproto.Txn{Master: 1})
	if err != nil {
		tb.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		tb.Fatal(err)
	}
	return r
}

func TestFacadeQuickstart(t *testing.T) {
	sb := termproto.NewSimBackend(termproto.SimOptions{RecordTrace: true})
	r := runOne(t, termproto.ClusterConfig{
		Sites:    4,
		Protocol: termproto.Termination(),
		Backend:  sb,
		Schedule: termproto.Schedule{
			termproto.PartitionAt(termproto.Time(2.5*float64(termproto.T)), 3, 4),
		},
	})
	if !r.Consistent() {
		t.Fatal("inconsistent")
	}
	if len(r.Blocked()) != 0 {
		t.Fatalf("blocked: %v", r.Blocked())
	}
	if c := termproto.ClassifyTrace(sb, 1); c != "1" {
		t.Fatalf("case = %s, want 1", c)
	}
}

func TestFacadeProtocols(t *testing.T) {
	for _, p := range []termproto.Protocol{
		termproto.TwoPC(), termproto.TwoPCExtended(),
		termproto.ThreePC(false), termproto.ThreePC(true),
		termproto.ThreePCRules(), termproto.Quorum(),
		termproto.Termination(), termproto.TerminationTransient(),
		termproto.FourPCTermination(),
	} {
		r := runOne(t, termproto.ClusterConfig{Sites: 3, Protocol: p})
		if got := r.Sites[1].Outcome; got != termproto.Commit {
			t.Errorf("%s failure-free: master = %v", p.Name(), got)
		}
	}
}

func TestFacadeVoters(t *testing.T) {
	r := runOne(t, termproto.ClusterConfig{
		Sites: 3, Protocol: termproto.Termination(), Votes: termproto.NoAt(2),
	})
	if r.Sites[1].Outcome != termproto.Abort {
		t.Fatal("NoAt voter ignored")
	}
}

func TestFacadeAnalysis(t *testing.T) {
	a := termproto.Analyze(termproto.FSAThreePC(false), 3)
	if !a.SatisfiesLemmas() {
		t.Fatal("3PC lemma verdict wrong through the facade")
	}
	bad := termproto.Analyze(termproto.FSATwoPC(), 3)
	if bad.SatisfiesLemmas() {
		t.Fatal("2PC n=3 should violate the lemmas")
	}
}

func TestFacadeEngine(t *testing.T) {
	store := &termproto.MemStore{}
	e := termproto.NewEngine("s1", store)
	e.PutInt("k", 40)
	parts := map[termproto.SiteID]termproto.Participant{1: e}
	for i := 2; i <= 3; i++ {
		o := termproto.NewEngine(fmt.Sprintf("s%d", i), &termproto.MemStore{})
		o.PutInt("k", 40)
		parts[termproto.SiteID(i)] = o
	}
	c, err := termproto.Open(termproto.ClusterConfig{
		Sites: 3, Protocol: termproto.Termination(), Participants: parts,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r, err := c.Submit(termproto.Txn{Payload: termproto.EncodeOps([]termproto.Op{
		{Kind: termproto.OpAdd, Key: "k", Delta: 2},
	})})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if r.Outcome() != termproto.Commit || e.GetInt("k") != 42 {
		t.Fatalf("engine integration: outcome=%v k=%d", r.Outcome(), e.GetInt("k"))
	}

	// Recovery through the facade.
	rec, inDoubt, err := termproto.RecoverEngine("s1", store)
	if err != nil || len(inDoubt) != 0 || rec.GetInt("k") != 42 {
		t.Fatalf("recovery: err=%v inDoubt=%v k=%d", err, inDoubt, rec.GetInt("k"))
	}
}

func TestFacadeIntCodec(t *testing.T) {
	if termproto.DecodeInt(termproto.EncodeInt(-7)) != -7 {
		t.Fatal("int codec")
	}
}

func TestFacadeExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick suite")
	}
	for _, tbl := range termproto.Experiments(termproto.ExperimentConfig{Quick: true}) {
		if !tbl.Pass {
			t.Fatalf("experiment %s failed:\n%s", tbl.ID, tbl)
		}
	}
}

// ExampleOpen_partitioned demonstrates the minimal single-transaction
// use: a partitioned transaction that still terminates consistently at
// every site.
func ExampleOpen_partitioned() {
	c, _ := termproto.Open(termproto.ClusterConfig{
		Sites:    4,
		Protocol: termproto.Termination(),
		Schedule: termproto.Schedule{
			termproto.PartitionAt(2500, 3, 4), // ticks; T = 1000
		},
	})
	defer c.Close()
	r, _ := c.Submit(termproto.Txn{Master: 1})
	c.Wait()
	fmt.Println("atomic:", r.Consistent())
	fmt.Println("blocked:", len(r.Blocked()))
	// Output:
	// atomic: true
	// blocked: 0
}

// A banking workload through the facade: transfers over replicated
// engines, a partition rising and healing every few transactions, every
// replica identical at the end.
func TestFacadeWorkload(t *testing.T) {
	const sites, accounts = 3, 3
	parts := make(map[termproto.SiteID]termproto.Participant, sites)
	for i := 1; i <= sites; i++ {
		e := termproto.NewEngine(fmt.Sprintf("s%d", i), &termproto.MemStore{})
		for a := 0; a < accounts; a++ {
			e.PutInt(fmt.Sprintf("acct/%d", a), 1000)
		}
		parts[termproto.SiteID(i)] = e
	}
	c, err := termproto.Open(termproto.ClusterConfig{
		Sites: sites, Protocol: termproto.TerminationTransient(), Participants: parts,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 12; i++ {
		if i%4 == 3 {
			start := c.Now()
			if err := c.Inject(termproto.TransientPartitionAt(start+2500, start+9000, 3)); err != nil {
				t.Fatal(err)
			}
		}
		from, to := i%accounts, (i+1)%accounts
		if _, err := c.Submit(termproto.Txn{Payload: termproto.EncodeOps([]termproto.Op{
			{Kind: termproto.OpAdd, Key: fmt.Sprintf("acct/%d", from), Delta: -10},
			{Kind: termproto.OpAdd, Key: fmt.Sprintf("acct/%d", to), Delta: 10},
		})}); err != nil {
			t.Fatal(err)
		}
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Termination(); err != nil {
		t.Fatalf("workload through facade: %v", err)
	}
	if st := c.Stats(); st.Submitted != 12 || st.Inconsistent != 0 || st.Blocked != 0 {
		t.Fatalf("workload through facade: %v", st)
	}
}

func TestFacadeCluster(t *testing.T) {
	c, err := termproto.Open(termproto.ClusterConfig{
		Sites:    5,
		Protocol: termproto.TerminationTransient(),
		Schedule: termproto.Schedule{
			termproto.PartitionAt(2500, 4, 5),
			termproto.HealAt(9000),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rs, err := c.SubmitBatch(make([]termproto.Txn, 10))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := c.Termination(); err != nil {
		t.Fatalf("termination violated through the facade: %v", err)
	}
	for _, r := range rs {
		if !r.Consistent() || !r.Decided() {
			t.Fatalf("txn %d: consistent=%v blocked=%v", r.TID, r.Consistent(), r.Blocked())
		}
	}
	st := c.Stats()
	if st.Submitted != 10 || st.Committed+st.Aborted != 10 {
		t.Fatalf("stats: %v", st)
	}
}

// ExampleOpen demonstrates the Cluster API: ten concurrent transactions
// ride out a partition that rises and heals mid-traffic.
func ExampleOpen() {
	c, _ := termproto.Open(termproto.ClusterConfig{
		Sites:    5,
		Protocol: termproto.TerminationTransient(),
		Schedule: termproto.Schedule{
			termproto.PartitionAt(2500, 4, 5),
			termproto.HealAt(9000),
		},
	})
	defer c.Close()
	c.SubmitBatch(make([]termproto.Txn, 10))
	c.Wait()
	fmt.Println("terminated atomically:", c.Termination() == nil)
	fmt.Println("blocked:", c.Stats().Blocked)
	// Output:
	// terminated atomically: true
	// blocked: 0
}
