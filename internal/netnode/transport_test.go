package netnode

import (
	"sync/atomic"
	"testing"
	"time"

	"termproto/internal/proto"
)

// A partition's blocklists reach the sites one at a time. When the
// receiver blocks the sender first, a frame the sender wrote before its
// own blocklist changed is still in flight across the boundary; the
// optimistic model returns it to the sender. The sender must see exactly
// one outcome for it — delivered at the receiver or bounced back — never
// neither, on a fresh link and on one already carrying traffic.
func TestTransportReturnsFrameInFlightAtPartitionOnset(t *testing.T) {
	for _, warm := range []bool{false, true} {
		addrs := freePorts(t, 2)
		peers := map[proto.SiteID]string{1: addrs[0], 2: addrs[1]}
		const tid = 7
		var delivered, bounced atomic.Int32
		sender := newTransport(1, testT, 1, peers, func(m proto.Msg) {
			if m.Undeliverable && m.TID == tid {
				bounced.Add(1)
			}
		}, t.Logf)
		var warmed atomic.Int32
		receiver := newTransport(2, testT, 2, peers, func(m proto.Msg) {
			switch {
			case m.TID == tid:
				delivered.Add(1)
			case !m.Undeliverable:
				warmed.Add(1)
			}
		}, t.Logf)
		for _, tr := range []*transport{sender, receiver} {
			if _, err := tr.listen(peers[tr.self]); err != nil {
				t.Fatal(err)
			}
		}

		if warm {
			sender.Send(proto.Msg{TID: 1, From: 1, To: 2, Kind: proto.MsgXact})
			waitFor(t, func() bool { return warmed.Load() == 1 })
		}
		sender.Send(proto.Msg{TID: tid, From: 1, To: 2, Kind: proto.MsgPrepare})
		receiver.SetBlocked([]proto.SiteID{1}) // arrives before the frame does

		// A returned copy needs two link delays of at most T/2 each; wait
		// well past that, then a little longer to catch a duplicate.
		deadline := time.Now().Add(20 * testT)
		for delivered.Load()+bounced.Load() == 0 && time.Now().Before(deadline) {
			time.Sleep(testT / 10)
		}
		time.Sleep(2 * testT)
		sender.Close()
		receiver.Close()
		if d, b := delivered.Load(), bounced.Load(); d+b != 1 {
			t.Fatalf("warm=%v: frame in flight at onset: delivered %d, bounced %d; want exactly one",
				warm, d, b)
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * testT)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(testT / 10)
	}
}
