package cluster

import (
	"testing"

	"termproto/internal/core"
	"termproto/internal/db/engine"
	"termproto/internal/proto"
)

// sameAtBatch builds n put transactions that agree on master, At, and
// roster — the coalescing identity — so a Batching cluster folds them
// into one carrier round.
func sameAtBatch(n int) []Txn {
	out := make([]Txn, n)
	for i := range out {
		out[i] = Txn{Payload: engine.EncodeOps([]engine.Op{
			{Kind: engine.OpPut, Key: string(rune('a' + i)), Value: []byte("v")},
		})}
	}
	return out
}

func runSameAt(t *testing.T, batching bool, txns []Txn) (*Cluster, []*TxnResult) {
	t.Helper()
	c, err := Open(Config{
		Sites: 5, Protocol: core.Protocol{TransientFix: true},
		Backend:  NewSimBackend(SimOptions{Seed: 7}),
		Batching: batching,
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	rs, err := c.SubmitBatch(txns)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := c.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	return c, rs
}

// TestBatchingCoalescesRounds submits the same eight same-At
// transactions with and without Batching. The batched run must spend
// strictly fewer network messages — the point of carrier rounds — while
// committing every member and counting members, not carriers, in Stats.
func TestBatchingCoalescesRounds(t *testing.T) {
	const n = 8
	plainC, plainRS := runSameAt(t, false, sameAtBatch(n))
	batchC, batchRS := runSameAt(t, true, sameAtBatch(n))

	for i, rs := range [][]*TxnResult{plainRS, batchRS} {
		if len(rs) != n {
			t.Fatalf("run %d: %d results, want %d", i, len(rs), n)
		}
		for _, r := range rs {
			if r.Outcome() != proto.Commit {
				t.Fatalf("run %d: txn %d outcome %s, want commit", i, r.TID, r.Outcome())
			}
		}
	}
	ps, bs := plainC.Stats(), batchC.Stats()
	if bs.Submitted != n || bs.Committed != n {
		t.Fatalf("batched stats count carriers, not members: %+v", bs)
	}
	if bs.Net.MsgsSent >= ps.Net.MsgsSent {
		t.Fatalf("no coalescing: batched run sent %d msgs, plain sent %d",
			bs.Net.MsgsSent, ps.Net.MsgsSent)
	}
	if err := batchC.Termination(); err != nil {
		t.Fatalf("batched termination: %v", err)
	}
}

// TestBatchingMixedOutcomes folds a scripted no-vote abort into a
// SubmitBatch call. Vote-scripted transactions are not coalescible, so
// the aborting transaction must run solo and abort while its same-At
// peers ride a carrier and commit — outcomes fan back per member.
func TestBatchingMixedOutcomes(t *testing.T) {
	txns := sameAtBatch(4)
	txns[2].Votes = NoAt(2)
	_, rs := runSameAt(t, true, txns)
	for i, r := range rs {
		want := proto.Commit
		if i == 2 {
			want = proto.Abort
		}
		if r.Outcome() != want {
			t.Errorf("txn %d: outcome %s, want %s", r.TID, r.Outcome(), want)
		}
	}
}

// TestBatchingNetParity runs same-At coalesced batches through the
// simulator and through real termnode processes, Batching on for both.
// Every member must commit on both backends, and the daemons' engines
// must hold every put member's write — proof the carrier envelope decodes
// and fans out across the process boundary exactly as it does in-sim.
// The inputs cover all-put, all-empty and mixed carriers: an empty
// member has no database ops and must not turn its carrier's vote to no.
func TestBatchingNetParity(t *testing.T) {
	const n = 6
	mixed := sameAtBatch(n)
	for i := 1; i < n; i += 2 {
		mixed[i].Payload = nil
	}
	for _, tc := range []struct {
		name string
		txns []Txn
	}{
		{"puts", sameAtBatch(n)},
		{"empty", make([]Txn, n)},
		{"mixed", mixed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			open := func(b Backend) (*Cluster, []*TxnResult) {
				c, err := Open(Config{
					Sites: 3, Protocol: core.Protocol{TransientFix: true},
					Backend: b, Batching: true,
				})
				if err != nil {
					t.Fatalf("open %s: %v", b.Name(), err)
				}
				t.Cleanup(func() { c.Close() })
				rs, err := c.SubmitBatch(tc.txns)
				if err != nil {
					t.Fatalf("submit %s: %v", b.Name(), err)
				}
				if err := c.Wait(); err != nil {
					t.Fatalf("wait %s: %v", b.Name(), err)
				}
				return c, rs
			}

			simC, simRS := open(NewSimBackend(SimOptions{Seed: 11}))
			nb := netBackend(t)
			netC, netRS := open(nb)

			for i := range simRS {
				so, no := simRS[i].Outcome(), netRS[i].Outcome()
				if so != no {
					t.Errorf("txn %d: sim=%s net=%s", simRS[i].TID, so, no)
				}
				if so != proto.Commit {
					t.Errorf("txn %d: sim outcome %s, want commit", simRS[i].TID, so)
				}
			}
			if err := simC.Termination(); err != nil {
				t.Errorf("sim termination: %v", err)
			}
			if err := netC.Termination(); err != nil {
				t.Errorf("net termination: %v", err)
			}
			snaps := nb.Snapshots()
			if len(snaps) != 3 {
				t.Fatalf("snapshots from %d/3 nodes", len(snaps))
			}
			for id, snap := range snaps {
				for i, txn := range tc.txns {
					key := string(rune('a' + i))
					want := "v"
					if len(txn.Payload) == 0 {
						want = ""
					}
					if string(snap[key]) != want {
						t.Errorf("site %d: key %q = %q, want %q", id, key, snap[key], want)
					}
				}
			}
		})
	}
}
