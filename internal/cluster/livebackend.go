package cluster

import (
	"fmt"
	"sync"
	"time"

	"termproto/internal/db/engine"
	"termproto/internal/lease"
	"termproto/internal/livenet"
	"termproto/internal/proto"
	"termproto/internal/recovery"
	"termproto/internal/sim"
)

// LiveOptions tunes the goroutine backend.
type LiveOptions struct {
	// T is the wall-clock value of the longest end-to-end delay bound;
	// defaults to 10ms. Schedule and Txn times in ticks map onto wall
	// time as sim.DefaultT ticks = T.
	T time.Duration
	// WaitTimeout bounds each Wait call: transactions still undecided
	// when it elapses are reported blocked, which is exactly what a
	// blocking protocol under a partition produces. Defaults to 300*T.
	WaitTimeout time.Duration
	// Seed drives the link-delay generator.
	Seed int64
}

// LiveBackend runs transactions on internal/livenet: one goroutine per
// site, real channels and wall-clock timers, with faults injected in real
// time. Outcomes are timing-dependent — the price of genuine concurrency;
// safety (atomicity, termination) must hold regardless.
type LiveBackend struct {
	opts LiveOptions
	cfg  Config
	lc   *livenet.Cluster

	mu         sync.Mutex
	handles    map[proto.TxnID]*TxnResult
	partGen    int // bumped per partition change: stale auto-heals are dropped
	recoveries []RecoveryReport
	// unresolved tracks, per site, in-doubt transactions a recovery could
	// not resolve; heals re-run the inquiry round for them.
	unresolved map[proto.SiteID][]engine.InDoubt
	subWG      sync.WaitGroup
	// recWG tracks scheduled EvRecover events under Config.Recovery and
	// all membership events (join/leave/move), so Wait covers the durable
	// recoveries and migrations the timeline promises — matching the sim
	// backend, whose Wait runs the schedule to quiescence.
	recWG  sync.WaitGroup
	closed bool
	// leases is the partition-local availability bookkeeping (nil when
	// Config.LeaseTTL is unset or there is no directory). lease.Table
	// locks internally, so the concurrent site goroutines are safe.
	leases *leaseKeeper
}

// NewLiveBackend returns a goroutine-runtime backend.
func NewLiveBackend(opts LiveOptions) *LiveBackend {
	if opts.T <= 0 {
		opts.T = 10 * time.Millisecond
	}
	if opts.WaitTimeout <= 0 {
		opts.WaitTimeout = 300 * opts.T
	}
	return &LiveBackend{
		opts:       opts,
		handles:    make(map[proto.TxnID]*TxnResult),
		unresolved: make(map[proto.SiteID][]engine.InDoubt),
	}
}

// Name implements Backend.
func (b *LiveBackend) Name() string { return "live" }

// AutomataSpawned returns how many protocol automata each site has
// instantiated over the backend's lifetime — parity with the sim
// backend's placement observable.
func (b *LiveBackend) AutomataSpawned() map[proto.SiteID]int {
	if b.lc == nil {
		return map[proto.SiteID]int{}
	}
	return b.lc.AutomataSpawned()
}

// wall converts timeline ticks to wall time (sim.DefaultT ticks = T).
func (b *LiveBackend) wall(t sim.Time) time.Duration {
	return time.Duration(t) * b.opts.T / time.Duration(sim.DefaultT)
}

// Open implements Backend.
func (b *LiveBackend) Open(cfg Config) error {
	if b.lc != nil {
		return fmt.Errorf("live backend: already open")
	}
	b.cfg = cfg
	lcfg := livenet.Config{
		N:        cfg.Sites,
		Protocol: cfg.Protocol,
		T:        b.opts.T,
		Seed:     b.opts.Seed,
	}
	if cfg.Directory != nil {
		// Provisioned sites outside the initial membership stay dormant:
		// their real site loops spawn when (if) they join.
		_, asg := cfg.Directory.Current()
		for i := 1; i <= cfg.Sites; i++ {
			if id := proto.SiteID(i); !asg.IsMember(id) {
				lcfg.Dormant = append(lcfg.Dormant, id)
			}
		}
	}
	if len(cfg.Participants) > 0 {
		lcfg.Participants = make(map[proto.SiteID]livenet.Participant, len(cfg.Participants))
		for id, p := range cfg.Participants {
			lcfg.Participants[id] = p
		}
	}
	b.leases = newLeaseKeeper(cfg, nil)
	b.leases.seed(0)
	b.lc = livenet.New(lcfg)
	b.lc.StartSites()
	for _, ev := range b.cfg.Schedule.Sorted() {
		b.scheduleEvent(ev)
	}
	return nil
}

func (b *LiveBackend) scheduleEvent(ev Event) {
	done := b.trackRecovery(ev)
	time.AfterFunc(b.wall(ev.At), func() { b.apply(ev); done() })
}

// trackRecovery registers a scheduled event Wait must not outrun: an
// EvRecover under durable recovery, or any membership event (whose
// epoch-bump transaction must be submitted before Wait collects the
// roster). Returns the completion callback (a no-op for other events).
func (b *LiveBackend) trackRecovery(ev Event) func() {
	switch ev.Kind {
	case EvRecover, EvHeal:
		// Heals matter to Wait only for the retry pass they trigger.
		if !b.cfg.Recovery {
			return func() {}
		}
	case EvJoin, EvLeave, EvMove:
	default:
		return func() {}
	}
	b.recWG.Add(1)
	var once sync.Once
	return func() { once.Do(b.recWG.Done) }
}

func (b *LiveBackend) apply(ev Event) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	switch ev.Kind {
	case EvPartition:
		b.partGen++
		gen := b.partGen
		b.mu.Unlock()
		b.lc.Partition(ev.G2...)
		if ev.Heal > ev.At {
			time.AfterFunc(b.wall(ev.Heal-ev.At), func() {
				b.mu.Lock()
				stale := b.closed || gen != b.partGen
				b.mu.Unlock()
				if !stale {
					b.lc.Heal()
					b.retryUnresolved()
				}
			})
		}
	case EvHeal:
		b.partGen++
		b.mu.Unlock()
		b.lc.Heal()
		b.retryUnresolved()
	case EvCrash:
		b.mu.Unlock()
		b.lc.Crash(ev.Site)
	case EvRecover:
		b.mu.Unlock()
		b.lc.Recover(ev.Site)
		if b.cfg.Recovery {
			b.runRecovery(ev.Site)
		}
	case EvJoin, EvLeave, EvMove:
		migrate := b.cfg.migrate
		b.mu.Unlock()
		if migrate != nil {
			migrate(ev)
		}
	default:
		b.mu.Unlock()
	}
}

// retryUnresolved re-runs the inquiry round after a heal for every site a
// recovery left with unresolved in-doubt transactions.
func (b *LiveBackend) retryUnresolved() {
	if !b.cfg.Recovery {
		return
	}
	b.mu.Lock()
	pending := make(map[proto.SiteID][]engine.InDoubt, len(b.unresolved))
	for id, pend := range b.unresolved {
		if len(pend) > 0 {
			pending[id] = pend
		}
	}
	b.mu.Unlock()
	for site, pend := range pending {
		peers := livePeers{backend: b, self: site}
		rep, remaining, resolved := runRetry(b.cfg, site, b.Now(), peers, pend)
		b.mu.Lock()
		b.unresolved[site] = remaining
		if resolved {
			b.recoveries = append(b.recoveries, rep)
		}
		b.mu.Unlock()
	}
}

// runRecovery executes a site's durable recovery over real livenet
// traffic: each in-doubt inquiry is a MsgInquire that crosses (or bounces
// off) the actual partition state, and catch-up pulls from a currently
// reachable replica.
func (b *LiveBackend) runRecovery(site proto.SiteID) {
	peers := livePeers{backend: b, self: site}
	rep, ok := runRecovery(b.cfg, site, b.Now(), peers)
	if !ok {
		return // no engine: the site rejoins with amnesia
	}
	b.mu.Lock()
	b.recoveries = append(b.recoveries, rep)
	b.unresolved[site] = rep.Stats.Pending
	b.mu.Unlock()
}

// Peers implements Backend.
func (b *LiveBackend) Peers(self proto.SiteID) recovery.PeerClient {
	return livePeers{backend: b, self: self}
}

// SpawnSite implements the siteLifecycle extension: a joining site's real
// goroutine loop comes up before any byte is copied to it.
func (b *LiveBackend) SpawnSite(id proto.SiteID) {
	if b.lc != nil {
		b.lc.SpawnSite(id)
	}
}

// RetireSite implements the siteLifecycle extension: a departed member's
// loop stops once the work it participated in has quiesced.
func (b *LiveBackend) RetireSite(id proto.SiteID) {
	if b.lc != nil {
		b.lc.RetireSite(id)
	}
}

// livePeers is the goroutine-runtime PeerClient: inquiries are real
// messages subject to the partition controller, and catch-up pulls are a
// bulk-transfer channel gated by the same reachability.
type livePeers struct {
	backend *LiveBackend
	self    proto.SiteID
}

// Outcome implements recovery.PeerClient.
func (p livePeers) Outcome(peer proto.SiteID, tid uint64) (proto.Outcome, bool) {
	// 4T bounds the round trip: delays are <= T/2 each way, and a bounced
	// inquiry returns within 2T; silence past that is a crashed peer.
	return p.backend.lc.Inquire(p.self, peer, proto.TxnID(tid), 4*p.backend.opts.T)
}

// Snapshot implements recovery.PeerClient.
func (p livePeers) Snapshot(peer proto.SiteID) (map[string][]byte, map[string]bool, bool) {
	if !p.backend.lc.Reachable(p.self, peer) {
		return nil, nil, false
	}
	return donorSnapshot(p.backend.cfg, peer)
}

// Recoveries implements Backend.
func (b *LiveBackend) Recoveries() []RecoveryReport {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]RecoveryReport(nil), b.recoveries...)
}

// RecoveryCount implements Backend.
func (b *LiveBackend) RecoveryCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.recoveries)
}

// Submit implements Backend. A future t.At is honored by delaying the
// livenet submission on the wall clock.
func (b *LiveBackend) Submit(t Txn, res *TxnResult) error {
	if b.lc == nil {
		return fmt.Errorf("live backend: not open")
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return fmt.Errorf("live backend: closed")
	}
	b.handles[t.ID] = res
	b.mu.Unlock()

	// The participant set was resolved by Cluster.Submit (directory or all
	// sites); livenet spawns automata only at these sites. Decisions renew
	// the deciding site's shard leases on the way through.
	onDecided := t.onDecided
	if b.leases != nil {
		payload := t.Payload
		inner := onDecided
		onDecided = func(site proto.SiteID, o proto.Outcome) {
			b.leases.onDecide(site, payload, o, b.Now())
			if inner != nil {
				inner(site, o)
			}
		}
	}
	spec := livenet.TxnSpec{
		TID: t.ID, Master: t.Master, Payload: t.Payload, Sites: t.Sites,
		OnDecided: onDecided,
	}
	if t.Votes != nil {
		votes, tid := t.Votes, t.ID
		spec.Votes = func(site proto.SiteID, payload []byte) bool {
			return votes(site, tid, payload)
		}
	} else if b.cfg.Votes != nil {
		votes, tid := b.cfg.Votes, t.ID
		spec.Votes = func(site proto.SiteID, payload []byte) bool {
			return votes(site, tid, payload)
		}
	}
	delay := b.wall(t.At) - time.Since(b.startTime())
	if delay <= 0 {
		return b.lc.Submit(spec)
	}
	b.subWG.Add(1)
	time.AfterFunc(delay, func() {
		defer b.subWG.Done()
		b.mu.Lock()
		closed := b.closed
		b.mu.Unlock()
		if !closed {
			b.lc.Submit(spec) //nolint:errcheck // stop races are benign
		}
	})
	return nil
}

// startTime reports when the livenet cluster started; before Open it is
// the zero time.
func (b *LiveBackend) startTime() time.Time { return b.lc.StartedAt() }

// Wait implements Backend: it waits (bounded by WaitTimeout) for every
// submitted transaction to decide at every live participating site and
// for every scheduled durable recovery to finish, then syncs all results.
// Transactions still undecided are reported blocked.
func (b *LiveBackend) Wait() error {
	if b.lc == nil {
		return fmt.Errorf("live backend: not open")
	}
	b.subWG.Wait()
	b.recWG.Wait()
	b.lc.WaitAll(b.opts.WaitTimeout)
	b.sync(false)
	return nil
}

// sync copies livenet bookkeeping into the result handles; withStates
// additionally reads final automaton states (cluster must be stopped).
func (b *LiveBackend) sync(withStates bool) {
	b.mu.Lock()
	handles := make(map[proto.TxnID]*TxnResult, len(b.handles))
	for tid, h := range b.handles {
		handles[tid] = h
	}
	b.mu.Unlock()
	for tid, res := range handles {
		v, ok := b.lc.View(tid)
		if !ok {
			continue // submission still pending or dropped at stop
		}
		for id, so := range res.Sites {
			if o, ok := v.Outcomes[id]; ok {
				so.Outcome = o
				// Wall time → timeline ticks, the same mapping as Now().
				so.DecidedAt = sim.Time(v.DecidedAt[id] * time.Duration(sim.DefaultT) / b.opts.T)
			}
			so.Started = v.Started[id]
			so.Crashed = v.Crashed[id]
		}
		if withStates {
			st := b.lc.Status(tid)
			for _, o := range st.Sites {
				if so := res.Sites[o.Site]; so != nil {
					so.FinalState = o.State
				}
			}
		}
	}
}

// Inject implements Backend: the event fires at its timeline position (or
// immediately if that is already past).
func (b *LiveBackend) Inject(ev Event) error {
	if b.lc == nil {
		return fmt.Errorf("live backend: not open")
	}
	done := b.trackRecovery(ev)
	delay := b.wall(ev.At) - time.Since(b.startTime())
	if delay <= 0 {
		b.apply(ev)
		done()
		return nil
	}
	time.AfterFunc(delay, func() { b.apply(ev); done() })
	return nil
}

// Now implements Backend: wall time since start, in ticks.
func (b *LiveBackend) Now() sim.Time {
	if b.lc == nil {
		return 0
	}
	elapsed := time.Since(b.startTime())
	return sim.Time(elapsed * time.Duration(sim.DefaultT) / b.opts.T)
}

// NetStats implements Backend.
func (b *LiveBackend) NetStats() NetStats {
	var st NetStats
	if b.lc != nil {
		st.MsgsSent, st.MsgsDelivered, st.MsgsBounced, st.MsgsDropped = b.lc.NetCounters()
	}
	return st
}

// Close implements Backend: stops the site goroutines and fills final
// automaton states into all results.
func (b *LiveBackend) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	b.mu.Unlock()
	b.subWG.Wait()
	b.lc.Stop()
	b.sync(true)
	return nil
}

// LeaseTable implements the cluster's leaseTables extension: one site's
// shard-lease table, nil when leasing is disabled.
func (b *LiveBackend) LeaseTable(site proto.SiteID) *lease.Table {
	return b.leases.table(site)
}

var _ Backend = (*LiveBackend)(nil)
