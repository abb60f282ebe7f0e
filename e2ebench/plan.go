package main

import (
	"fmt"
	"time"

	"termproto/internal/db/engine"
	"termproto/internal/sim"
	"termproto/internal/workload"
)

// Shared set-up of every workload: a 3-site localnet under full
// replication, the registry's default protocol, group commit on and the
// daemon default T = 50ms (links delay each message by a draw from
// [T/4, T/2)). Sites 1 and 2 coordinate; site 3 is participant-only.
const (
	numSites     = 3
	coordinators = 2
)

// workloadSpec is one named traffic mix.
type workloadSpec struct {
	name string
	// rate is the offered load in transactions per second; arrivals are
	// evenly spaced.
	rate float64
	// accounts > 0 makes every transaction a 2-account transfer over a
	// preloaded balance table; 0 makes it a single put of a fresh key.
	accounts int
	// faults partitions the isolated coordinator away for 5 s, then kills
	// the restarted site and restarts it over its workspace at once (see
	// runFaults for the schedule).
	faults bool
}

var workloads = []workloadSpec{
	{name: "steady", rate: 100},
	{name: "load", rate: 400, accounts: 10000},
	{name: "faults", rate: 100, faults: true},
}

func lookupWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (want steady, load, faults or all)", name)
}

const (
	// zipfS skews the first account of a transfer.
	zipfS = 0.8
	// initialBalance is large enough that the insufficient-funds guard
	// never fires: every abort on load is a lock conflict.
	initialBalance = 1_000_000
	// putValueLen is the value size of a put.
	putValueLen = 16
)

// arrival is one planned transaction.
type arrival struct {
	tid    uint64
	master int
	// due is the offset from the window start at which the transaction
	// is due to be submitted.
	due     time.Duration
	payload []byte
	// key and value are the put of a transaction without accounts.
	key   string
	value []byte
}

// plan generates every arrival of a window from the seed alone: the same
// seed gives a byte-identical payload stream. Arrival k is due at k/rate
// and goes to coordinator (k mod 2) + 1.
func plan(w workloadSpec, seed int64, window time.Duration) []arrival {
	n := int(w.rate * window.Seconds())
	rng := sim.NewRand(uint64(seed))
	var zipf *workload.Zipf
	if w.accounts > 0 {
		zipf = workload.NewZipf(w.accounts, zipfS)
	}
	out := make([]arrival, n)
	for k := range out {
		a := arrival{
			tid:    uint64(k + 1),
			master: k%coordinators + 1,
			due:    time.Duration(float64(k) / w.rate * float64(time.Second)),
		}
		if zipf != nil {
			from := zipf.Draw(rng)
			to := rng.Intn(w.accounts - 1)
			if to >= from {
				to++
			}
			amount := int64(1 + rng.Intn(5))
			a.payload = engine.EncodeOps(workload.ChainOps([]int{from, to}, amount))
		} else {
			a.key = fmt.Sprintf("k%d", a.tid)
			a.value = make([]byte, putValueLen)
			for i := range a.value {
				a.value[i] = byte(rng.Intn(256))
			}
			a.payload = engine.EncodeOps([]engine.Op{{Kind: engine.OpPut, Key: a.key, Value: a.value}})
		}
		out[k] = a
	}
	return out
}

// accountKey names account i the way workload.ChainOps does.
func accountKey(i int) string { return fmt.Sprintf("acct/%d", i) }

// fixture is the balance table a load run starts from.
func fixture(accounts int) map[string][]byte {
	data := make(map[string][]byte, accounts)
	for i := 0; i < accounts; i++ {
		data[accountKey(i)] = engine.EncodeInt(initialBalance)
	}
	return data
}
