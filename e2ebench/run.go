package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"termproto/internal/netnode"
	"termproto/internal/netnode/harness"
	"termproto/internal/proto"
	"termproto/internal/trace"
)

const (
	// drainTimeout bounds the wait for every transaction to decide once
	// the last arrival is in; the slowest §6 path (a slave's 3T + 6T
	// wait) is 450ms at T = 50ms.
	drainTimeout = 15 * time.Second
	// healthyTimeout bounds boot and restart.
	healthyTimeout = 10 * time.Second
	// shutdownGrace lets traced daemons write their trace exports.
	shutdownGrace = 10 * time.Second
	// traceFile is the per-node trace export, relative to each node's
	// workspace.
	traceFile = "trace.jsonl"
	// restarted is the site the faults workload kills and restarts.
	restarted = 3
	// isolated is the coordinator the faults workload partitions away.
	isolated = 2
)

// runOpts is one run of one workload on fresh localnets.
type runOpts struct {
	spec   workloadSpec
	seed   int64
	window time.Duration
	bin    string
	// dir is the run's workspace; every set-up gets its own under it.
	dir string
	// setups is how many times the localnet is set up; all but the last
	// are torn down straight away and only time the set-up.
	setups int
	traced bool
	procs  *tracker
}

// runData is what one run observed.
type runData struct {
	setupS, bootMS, fixtureMS []float64

	start      time.Time
	arrivals   []arrival
	samples    []sample
	views      []siteView
	counters   counters
	faults     *faultLog
	violations []string
	// events is the merged trace of a traced run.
	events []trace.Event
}

// faultLog records the fault schedule as it happened.
type faultLog struct {
	partitionAt, killAt, healthyAt time.Time
	recover                        time.Duration
	// preKill and preView are the restarted site's counters and
	// transaction table just before the kill.
	preKill  scrape
	preView  map[uint64]netnode.TxnDTO
	recovery netnode.RecoveryDTO
	err      error
}

// tracker owns every localnet a run starts, so an interrupt can stop
// them all.
type tracker struct {
	mu   sync.Mutex
	nets map[*harness.Localnet]bool
}

func newTracker() *tracker { return &tracker{nets: make(map[*harness.Localnet]bool)} }

func (t *tracker) add(l *harness.Localnet) {
	t.mu.Lock()
	t.nets[l] = true
	t.mu.Unlock()
}

// stop kills a localnet's processes (gracefully when graceful is set, so
// trace exports land) and waits for them to exit.
func (t *tracker) stop(l *harness.Localnet, graceful bool) {
	t.mu.Lock()
	delete(t.nets, l)
	t.mu.Unlock()
	if graceful {
		l.Shutdown(shutdownGrace)
	} else {
		l.Stop()
	}
}

func (t *tracker) stopAll() {
	t.mu.Lock()
	nets := t.nets
	t.nets = make(map[*harness.Localnet]bool)
	t.mu.Unlock()
	for l := range nets {
		l.Stop()
	}
}

func sites() []int {
	out := make([]int, numSites)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

// setUp boots one localnet and, on load, posts the balance table to
// every site in parallel.
func setUp(o runOpts, dir string) (l *harness.Localnet, boot, fix time.Duration, err error) {
	opts := harness.Options{N: numSites, Dir: dir, BinPath: o.bin, Seed: o.seed}
	if o.traced {
		opts.ExtraArgs = []string{"-trace-out=" + traceFile}
	}
	t0 := time.Now()
	l, err = harness.Start(opts)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("boot localnet: %w", err)
	}
	boot = time.Since(t0)
	o.procs.add(l)
	if o.spec.accounts > 0 {
		data := fixture(o.spec.accounts)
		errs := make([]error, numSites)
		var wg sync.WaitGroup
		for i, s := range sites() {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = l.Client(proto.SiteID(s)).Load(data)
			}()
		}
		wg.Wait()
		for _, e := range errs {
			if e != nil {
				o.procs.stop(l, false)
				return nil, 0, 0, fmt.Errorf("load fixture: %w", e)
			}
		}
		fix = time.Since(t0) - boot
	}
	return l, boot, fix, nil
}

// execute performs one run: set up, drive the window open-loop, wait for
// every decision, then read counters, transaction tables and snapshots
// and put them through the correctness gate.
func execute(o runOpts) (*runData, error) {
	d := &runData{arrivals: plan(o.spec, o.seed, o.window)}
	var l *harness.Localnet
	for rep := 0; rep < o.setups; rep++ {
		dir := filepath.Join(o.dir, fmt.Sprintf("setup-%d", rep))
		ln, boot, fix, err := setUp(o, dir)
		if err != nil {
			return nil, err
		}
		d.setupS = append(d.setupS, (boot + fix).Seconds())
		d.bootMS = append(d.bootMS, float64(boot.Microseconds())/1e3)
		d.fixtureMS = append(d.fixtureMS, float64(fix.Microseconds())/1e3)
		if rep < o.setups-1 {
			o.procs.stop(ln, false)
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			continue
		}
		l = ln
	}
	stopped := false
	defer func() {
		if !stopped {
			o.procs.stop(l, false)
		}
	}()

	clients := make(map[int]*netnode.Client, numSites)
	before := make(map[int]scrape, numSites)
	for _, s := range sites() {
		clients[s] = l.Client(proto.SiteID(s))
		sc, err := scrapeSite(clients[s])
		if err != nil {
			return nil, err
		}
		before[s] = sc
	}

	d.start = time.Now()
	var faultsDone chan struct{}
	if o.spec.faults {
		d.faults = &faultLog{}
		faultsDone = make(chan struct{})
		go func() {
			defer close(faultsDone)
			runFaults(l, d.faults, d.start)
		}()
	}
	d.samples = generate(d.start, d.arrivals, func(a arrival) error {
		return clients[a.master].Submit(netnode.SubmitReq{
			TID: a.tid, Master: a.master, Sites: sites(), Payload: a.payload,
		})
	})
	if faultsDone != nil {
		<-faultsDone
		if d.faults.err != nil {
			return nil, fmt.Errorf("fault schedule: %w", d.faults.err)
		}
	}

	live, err := drain(clients, d)
	if err != nil {
		return nil, err
	}
	for _, s := range sites() {
		after, err := scrapeSite(clients[s])
		if err != nil {
			return nil, err
		}
		if d.faults != nil && s == restarted {
			d.counters.addDelta(d.faults.preKill, before[s])
			d.counters.addDelta(after, scrape{})
			continue
		}
		d.counters.addDelta(after, before[s])
	}
	for _, s := range sites() {
		d.views = append(d.views, siteView{site: s, txns: live[s]})
	}
	if d.faults != nil {
		pre, bad, err := restartedView(d, live[restarted], clients[restarted])
		if err != nil {
			return nil, err
		}
		d.violations = append(d.violations, bad...)
		d.views = append(d.views, siteView{site: restarted, txns: pre})
	}

	in := gateInput{
		spec: o.spec, arrivals: d.arrivals, views: d.views,
		submitted: make([]bool, len(d.arrivals)),
		snapshots: make(map[int]map[string][]byte),
		unstable:  make(map[int]map[string]bool),
	}
	for i, s := range d.samples {
		in.submitted[i] = s.err == nil
	}
	for _, s := range sites() {
		snap, unstable, err := clients[s].Snapshot()
		if err != nil {
			return nil, fmt.Errorf("snapshot site %d: %w", s, err)
		}
		in.snapshots[s], in.unstable[s] = snap, unstable
	}
	d.violations = append(d.violations, gate(in)...)

	if o.traced {
		stopped = true
		o.procs.stop(l, true)
		for _, s := range sites() {
			evs, err := trace.ReadJSONLFile(filepath.Join(o.dir, fmt.Sprintf("setup-%d", o.setups-1), fmt.Sprintf("node-%d", s), traceFile))
			if err != nil {
				return nil, fmt.Errorf("read trace of site %d: %w", s, err)
			}
			d.events = append(d.events, evs...)
		}
	}
	return d, nil
}

// The fault schedule, from the window start: the isolated coordinator is
// cut away at +10 s and healed at +15 s; at +20 s the restarted site is
// killed and restarted over its workspace with traffic still flowing
// until the window ends.
const (
	partitionAt = 10 * time.Second
	healAt      = 15 * time.Second
	crashAt     = 20 * time.Second
	// minFaultSeconds leaves at least a second of traffic after the
	// crash.
	minFaultSeconds = 21
)

func runFaults(l *harness.Localnet, f *faultLog, start time.Time) {
	at := func(offset time.Duration) { time.Sleep(time.Until(start.Add(offset))) }
	at(partitionAt)
	f.partitionAt = time.Now()
	if f.err = l.Partition(isolated); f.err != nil {
		return
	}
	at(healAt)
	if f.err = l.Heal(); f.err != nil {
		return
	}
	at(crashAt)
	c := l.Client(restarted)
	if f.preKill, f.err = scrapeSite(c); f.err != nil {
		return
	}
	txns, err := c.Txns()
	if f.err = err; err != nil {
		return
	}
	f.preView = byTID(txns)
	f.killAt = time.Now()
	if f.err = l.Kill(restarted); f.err != nil {
		return
	}
	if f.err = l.Restart(restarted); f.err != nil {
		return
	}
	if f.err = l.WaitHealthy(healthyTimeout); f.err != nil {
		return
	}
	f.healthyAt = time.Now()
	f.recover = f.healthyAt.Sub(f.killAt)
	f.recovery, f.err = c.Recovery()
}

func byTID(txns []netnode.TxnDTO) map[uint64]netnode.TxnDTO {
	out := make(map[uint64]netnode.TxnDTO, len(txns))
	for _, t := range txns {
		out[t.TID] = t
	}
	return out
}

// drain polls every site's transaction table until each submitted
// transaction is decided at its coordinator and every participant that
// started a transaction has decided it, or drainTimeout passes; the gate
// reports whatever is left undecided. It returns the last tables read.
func drain(clients map[int]*netnode.Client, d *runData) (map[int]map[uint64]netnode.TxnDTO, error) {
	deadline := time.Now().Add(drainTimeout)
	for {
		views := make(map[int]map[uint64]netnode.TxnDTO, numSites)
		for s, c := range clients {
			txns, err := c.Txns()
			if err != nil {
				return nil, fmt.Errorf("read transactions of site %d: %w", s, err)
			}
			views[s] = byTID(txns)
		}
		if settled(views, d) || time.Now().After(deadline) {
			return views, nil
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func settled(views map[int]map[uint64]netnode.TxnDTO, d *runData) bool {
	for i, a := range d.arrivals {
		if d.samples[i].err != nil {
			continue
		}
		if t, ok := views[a.master][a.tid]; !ok || !decided(t) {
			return false
		}
	}
	for _, v := range views {
		for _, t := range v {
			if t.Started && !decided(t) {
				return false
			}
		}
	}
	return true
}

// restartedView rebuilds what the restarted site's first process knew:
// its transaction table as read just before the kill, checked and
// completed against the durable state the new process reports per TID
// (the new process's own table lists only what it hosted live). A
// decision the site only reports from its log is dated at the instant
// the site turned healthy again, an upper bound.
func restartedView(d *runData, post map[uint64]netnode.TxnDTO, c *netnode.Client) (map[uint64]netnode.TxnDTO, []string, error) {
	f := d.faults
	healthy := f.healthyAt.UnixMicro()
	out := make(map[uint64]netnode.TxnDTO)
	var bad []string
	for i, a := range d.arrivals {
		if d.samples[i].err != nil || d.samples[i].due.After(f.killAt) {
			continue
		}
		if _, ok := post[a.tid]; ok {
			continue
		}
		dur, err := c.Txn(proto.TxnID(a.tid))
		if err != nil {
			return nil, nil, fmt.Errorf("read txn %d at restarted site: %w", a.tid, err)
		}
		pre, known := f.preView[a.tid]
		switch {
		case known && decided(pre):
			if dur.Outcome != pre.Outcome {
				bad = append(bad, fmt.Sprintf("durability: txn %d decided %s at site %d before the crash, %q after",
					a.tid, pre.Outcome, restarted, dur.Outcome))
			}
			out[a.tid] = pre
		case decided(dur):
			dur.Started = true
			dur.DecidedAtMicro = healthy
			out[a.tid] = dur
		case dur.Started:
			out[a.tid] = dur // in doubt after recovery: the gate flags it
		}
	}
	return out, bad, nil
}
