package cluster

import (
	"testing"

	"termproto/internal/core"
	"termproto/internal/proto"
)

// TestAutomataSpawnedParity: the sim backend's per-site automaton
// instantiation counters must agree exactly with the explicit participant
// rosters of a failure-free run — one automaton per roster entry.
func TestAutomataSpawnedParity(t *testing.T) {
	scenario := []Txn{
		{Sites: []proto.SiteID{1, 2, 3}},
		{Sites: []proto.SiteID{2, 3, 4}, Master: 2},
		{Sites: []proto.SiteID{1, 2, 3, 4}},
		{Sites: []proto.SiteID{1, 4}},
	}
	want := map[proto.SiteID]int{1: 3, 2: 3, 3: 3, 4: 3}
	sb := NewSimBackend(SimOptions{})
	c, err := Open(Config{
		Sites:    4,
		Protocol: core.Protocol{TransientFix: true},
		Backend:  sb,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.SubmitBatch(scenario); err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	got := sb.AutomataSpawned()
	for id, n := range want {
		if got[id] != n {
			t.Fatalf("spawned %v, want %v", got, want)
		}
	}
}
