package cluster

import (
	"fmt"

	"termproto/internal/db/engine"
	"termproto/internal/lease"
	"termproto/internal/proto"
	"termproto/internal/recovery"
	"termproto/internal/sim"
	"termproto/internal/simnet"
	"termproto/internal/trace"
)

// SimOptions tunes the deterministic backend.
type SimOptions struct {
	// T is the longest end-to-end delay bound in ticks; defaults to
	// sim.DefaultT.
	T sim.Duration
	// Latency produces per-message forward delays; defaults to the
	// adversarial Fixed{T}.
	Latency simnet.Latency
	// BoundaryFrac is the partition-boundary position (see simnet).
	BoundaryFrac float64
	// Mode selects the partition failure model (optimistic default).
	Mode simnet.Mode
	// Seed drives the latency model's randomness.
	Seed uint64
	// RecordTrace keeps the full execution trace (off by default: traces
	// of big multiplexed runs are large).
	RecordTrace bool
	// TimersFirst flips the scheduler's same-timestamp ordering so timers
	// beat deliveries — the ablation of the tie-break rule the paper's
	// timing analysis depends on (see sim.Scheduler.SetTimersFirst).
	TimersFirst bool
}

// SimBackend multiplexes any number of concurrent transactions over one
// deterministic discrete-event timeline: a single scheduler and a single
// partitionable network shared by all transactions, one automaton per
// (site, transaction) pair, each with its own timer. Runs are pure
// functions of (config, submissions, schedule, seed).
type SimBackend struct {
	opts  SimOptions
	cfg   Config
	sched *sim.Scheduler
	net   *simnet.Network
	rec   *trace.Recorder
	muxes map[proto.SiteID]*siteMux
	// epoch counts crashes per site; automata die when their epoch passes.
	epoch map[proto.SiteID]int
	// spawned counts automata instantiated per site over the backend's
	// lifetime — the observable for asserting sharded placement.
	spawned map[proto.SiteID]int
	// openPartition is the schedule's unhealed partition, if any, so an
	// injected EvHeal can close it.
	openPartition *simnet.Partition
	// recoveries records the durable recoveries run (Config.Recovery).
	recoveries []RecoveryReport
	// unresolved tracks, per site, in-doubt transactions a recovery could
	// not resolve; heal edges re-run the inquiry round for them.
	unresolved map[proto.SiteID][]engine.InDoubt
	// leases is the partition-local availability bookkeeping (nil when
	// Config.LeaseTTL is unset or there is no directory).
	leases *leaseKeeper
}

// NewSimBackend returns a deterministic simulator backend.
func NewSimBackend(opts SimOptions) *SimBackend {
	if opts.T <= 0 {
		opts.T = sim.DefaultT
	}
	return &SimBackend{
		opts:       opts,
		muxes:      make(map[proto.SiteID]*siteMux),
		epoch:      make(map[proto.SiteID]int),
		spawned:    make(map[proto.SiteID]int),
		unresolved: make(map[proto.SiteID][]engine.InDoubt),
	}
}

// AutomataSpawned returns how many protocol automata the backend has
// instantiated at each site over its lifetime. Under sharded placement
// only a transaction's participants spawn automata, so these counters
// expose the placement decisions.
func (b *SimBackend) AutomataSpawned() map[proto.SiteID]int {
	out := make(map[proto.SiteID]int, len(b.spawned))
	for id, n := range b.spawned {
		out[id] = n
	}
	return out
}

// Name implements Backend.
func (b *SimBackend) Name() string { return "sim" }

// Trace returns the execution trace (nil unless RecordTrace was set).
func (b *SimBackend) Trace() *trace.Recorder { return b.rec }

// Open implements Backend.
func (b *SimBackend) Open(cfg Config) error {
	if b.sched != nil {
		return fmt.Errorf("sim backend: already open")
	}
	b.cfg = cfg
	b.sched = sim.NewScheduler()
	b.sched.SetTimersFirst(b.opts.TimersFirst)
	if b.opts.RecordTrace {
		b.rec = &trace.Recorder{}
	}
	parts, open, rest := cfg.Schedule.compile()
	b.openPartition = open
	b.net = simnet.New(simnet.Config{
		Sched:        b.sched,
		T:            b.opts.T,
		Latency:      b.opts.Latency,
		BoundaryFrac: b.opts.BoundaryFrac,
		Mode:         b.opts.Mode,
		Partitions:   parts,
		Rand:         sim.NewRand(b.opts.Seed + 1),
		Trace:        b.rec,
	})
	for i := 1; i <= cfg.Sites; i++ {
		id := proto.SiteID(i)
		m := &siteMux{backend: b, id: id, envs: make(map[proto.TxnID]*txnEnv)}
		b.muxes[id] = m
		b.net.Register(id, m)
	}
	b.leases = newLeaseKeeper(cfg, b.rec)
	b.leases.seed(b.sched.Now())
	for _, ev := range rest {
		switch ev.Kind {
		case EvCrash:
			b.scheduleCrash(ev.Site, ev.At)
		case EvRecover:
			b.scheduleRecover(ev.Site, ev.At)
		case EvJoin, EvLeave, EvMove:
			b.scheduleMembership(ev)
		}
	}
	// Heal edges re-run the inquiry round for in-doubt transactions a
	// recovery left unresolved behind the partition.
	for _, p := range parts {
		if p.Heal > 0 {
			b.scheduleHealRetry(p.Heal)
		}
	}
	return nil
}

// scheduleMembership runs a join/leave/move migration at its exact tick.
// PriControl orders it after the tick's partition and liveness edges, so
// the copy sees the network state the schedule declares for that moment.
func (b *SimBackend) scheduleMembership(ev Event) {
	if b.cfg.migrate == nil {
		return
	}
	at := ev.At
	if at < b.sched.Now() {
		at = b.sched.Now()
	}
	b.sched.At(at, sim.PriControl, func() { b.cfg.migrate(ev) })
}

// scheduleHealRetry re-runs the inquiry round at a heal edge for every
// site holding unresolved in-doubt transactions (Config.Recovery only).
func (b *SimBackend) scheduleHealRetry(at sim.Time) {
	if !b.cfg.Recovery {
		return
	}
	if at < b.sched.Now() {
		at = b.sched.Now()
	}
	b.sched.At(at, sim.PriControl, func() {
		now := b.sched.Now()
		// Ascending site order: map iteration would make report order
		// (and thus the whole run) nondeterministic.
		sites := make([]proto.SiteID, 0, len(b.unresolved))
		for site := range b.unresolved {
			sites = append(sites, site)
		}
		sites = sortedIDs(sites)
		for _, site := range sites {
			pend := b.unresolved[site]
			if len(pend) == 0 || b.net.Crashed(site, now) {
				continue
			}
			peers := simPeers{backend: b, self: site}
			rep, remaining, resolved := runRetry(b.cfg, site, now, peers, pend)
			b.unresolved[site] = remaining
			if resolved {
				b.recoveries = append(b.recoveries, rep)
			}
		}
	})
}

// scheduleRecover restores the site's network liveness at time at and,
// under Config.Recovery, schedules the durable recovery to run at the
// same tick: the restart replays the site's log, resolves its in-doubt
// transactions by inquiry against the peers reachable at that moment,
// and catches up missed commits. PriControl orders it after the
// partition/liveness edges of the tick.
func (b *SimBackend) scheduleRecover(id proto.SiteID, at sim.Time) {
	b.net.RecoverAt(id, at)
	if !b.cfg.Recovery {
		return
	}
	if at < b.sched.Now() {
		at = b.sched.Now()
	}
	b.sched.At(at, sim.PriControl, func() {
		peers := simPeers{backend: b, self: id}
		if rep, ok := runRecovery(b.cfg, id, b.sched.Now(), peers); ok {
			b.recoveries = append(b.recoveries, rep)
			b.unresolved[id] = rep.Stats.Pending
		}
	})
}

// Peers implements Backend.
func (b *SimBackend) Peers(self proto.SiteID) recovery.PeerClient {
	return simPeers{backend: b, self: self}
}

// simPeers is the deterministic PeerClient: reachability is read off the
// partition/crash timeline at the current tick, and a reachable peer's
// durable state is consulted directly — an inquiry round abstracted to
// its outcome, fates identical to routing real messages under the
// optimistic model.
type simPeers struct {
	backend *SimBackend
	self    proto.SiteID
}

func (p simPeers) reachable(peer proto.SiteID) bool {
	now := p.backend.sched.Now()
	return !p.backend.net.Crashed(peer, now) && !p.backend.net.Separated(p.self, peer, now)
}

// Outcome implements recovery.PeerClient.
func (p simPeers) Outcome(peer proto.SiteID, tid uint64) (proto.Outcome, bool) {
	if !p.reachable(peer) {
		return proto.None, false
	}
	if eng, ok := recoveryEngine(p.backend.cfg, peer); ok {
		return eng.Outcome(tid)
	}
	return proto.None, false
}

// Snapshot implements recovery.PeerClient.
func (p simPeers) Snapshot(peer proto.SiteID) (map[string][]byte, map[string]bool, bool) {
	if !p.reachable(peer) {
		return nil, nil, false
	}
	return donorSnapshot(p.backend.cfg, peer)
}

func (b *SimBackend) scheduleCrash(id proto.SiteID, at sim.Time) {
	b.net.CrashAt(id, at)
	if at < b.sched.Now() {
		at = b.sched.Now()
	}
	b.sched.At(at, sim.PriPartition, func() { b.epoch[id]++ })
}

// Submit implements Backend: the transaction's automata are instantiated
// and started at max(now, t.At) on every site live at that moment.
func (b *SimBackend) Submit(t Txn, res *TxnResult) error {
	if b.sched == nil {
		return fmt.Errorf("sim backend: not open")
	}
	at := t.At
	if at < b.sched.Now() {
		at = b.sched.Now()
	}
	b.sched.At(at, sim.PriControl, func() { b.startTxn(t, res) })
	return nil
}

func (b *SimBackend) startTxn(t Txn, res *TxnResult) {
	// The roster is the transaction's participant set (Cluster.Submit
	// resolved it through the ShardMap) minus the sites dead at start
	// time — a coordinator does not invite sites it knows are down. A
	// dead master makes the transaction a recorded no-op.
	now := b.sched.Now()
	traceQuorum(b.rec, b.cfg, t, func(id proto.SiteID) bool {
		return !b.net.Crashed(id, now) && !b.net.Separated(t.Master, id, now)
	}, now)
	sites := make([]proto.SiteID, 0, len(t.Sites))
	for _, id := range t.Sites {
		if b.net.Crashed(id, now) {
			res.Sites[id].Crashed = true
			continue
		}
		sites = append(sites, id)
	}
	// A transaction whose resolved participant set is a single site takes
	// the local-commit fast path: no protocol round, no messages, nothing
	// a partition can block. (Attrition from crashes does not qualify —
	// only genuine single-replica placement.)
	local := len(t.Sites) == 1
	minSites := 2
	if local {
		minSites = 1
	}
	if res.Sites[t.Master].Crashed || len(sites) < minSites {
		return
	}
	protocol := b.cfg.Protocol
	if local {
		protocol = proto.LocalCommit{}
	}
	for _, id := range sites {
		cfg := proto.Config{TID: t.ID, Self: id, Master: t.Master, Sites: sites, Payload: t.Payload}
		var node proto.Node
		if id == t.Master {
			node = protocol.NewMaster(cfg)
		} else {
			node = protocol.NewSlave(cfg)
		}
		e := &txnEnv{
			backend: b,
			cfg:     cfg,
			node:    node,
			votes:   t.Votes,
			notify:  t.onDecided,
			out:     res.Sites[id],
			epoch:   b.epoch[id],
		}
		e.out.FinalState = node.State()
		b.muxes[id].envs[t.ID] = e
		b.spawned[id]++
	}
	// Start in site order after every env exists, so a master's first
	// sends find all handlers registered.
	for _, id := range sites {
		if e := b.muxes[id].envs[t.ID]; e != nil {
			e.start()
		}
	}
}

// Wait implements Backend: it drives the scheduler to quiescence — every
// message delivered or bounced, every timer fired or cancelled — and then
// finalizes all results. Quiescence with an undecided automaton is the
// definition of blocking.
//
// Finalized automata are pruned: at quiescence no event can ever reach
// them again (the queue is empty and TIDs are never reused), so a
// long-lived cluster's memory and per-Wait work stay proportional to the
// transactions of the current Wait, not the cluster's lifetime.
func (b *SimBackend) Wait() error {
	if b.sched == nil {
		return fmt.Errorf("sim backend: not open")
	}
	b.sched.Run()
	for _, m := range b.muxes {
		for _, e := range m.envs {
			e.out.FinalState = e.node.State()
			e.out.Started = e.started || e.cfg.IsMaster()
			if e.dead() {
				e.out.Crashed = true
			}
		}
		clear(m.envs)
	}
	return nil
}

// Inject implements Backend. Fate is computed at send time, so the event
// affects messages sent after the current timeline position.
func (b *SimBackend) Inject(ev Event) error {
	if b.sched == nil {
		return fmt.Errorf("sim backend: not open")
	}
	now := b.sched.Now()
	at := ev.At
	if at < now {
		at = now
	}
	switch ev.Kind {
	case EvPartition:
		if b.openPartition != nil {
			closePartition(b.openPartition, at)
			b.openPartition = nil
		}
		if ev.Heal != 0 && ev.Heal <= at {
			return nil // its whole active window is in the past
		}
		p := &simnet.Partition{At: at, Heal: ev.Heal, G2: simnet.G2Set(ev.G2...)}
		b.net.AddPartition(p)
		if p.Heal == 0 {
			b.openPartition = p
		} else {
			b.scheduleHealRetry(p.Heal)
		}
	case EvHeal:
		if b.openPartition != nil {
			closePartition(b.openPartition, at)
			b.openPartition = nil
		}
		b.scheduleHealRetry(at)
	case EvCrash:
		b.scheduleCrash(ev.Site, at)
	case EvRecover:
		b.scheduleRecover(ev.Site, at)
	case EvJoin, EvLeave, EvMove:
		ev.At = at
		b.scheduleMembership(ev)
	default:
		return fmt.Errorf("sim backend: unknown event kind %d", ev.Kind)
	}
	return nil
}

// Recoveries implements Backend.
func (b *SimBackend) Recoveries() []RecoveryReport {
	return append([]RecoveryReport(nil), b.recoveries...)
}

// RecoveryCount implements Backend.
func (b *SimBackend) RecoveryCount() int { return len(b.recoveries) }

// Now implements Backend.
func (b *SimBackend) Now() sim.Time {
	if b.sched == nil {
		return 0
	}
	return b.sched.Now()
}

// NetStats implements Backend.
func (b *SimBackend) NetStats() NetStats {
	var st NetStats
	if b.net != nil {
		st.MsgsSent, st.MsgsDelivered, st.MsgsBounced, st.MsgsDropped = b.net.Stats()
	}
	return st
}

// Close implements Backend.
func (b *SimBackend) Close() error { return nil }

// LeaseTable implements the cluster's leaseTables extension: one site's
// shard-lease table, nil when leasing is disabled.
func (b *SimBackend) LeaseTable(site proto.SiteID) *lease.Table {
	return b.leases.table(site)
}

// siteMux demultiplexes one site's deliveries to per-transaction automata.
type siteMux struct {
	backend *SimBackend
	id      proto.SiteID
	envs    map[proto.TxnID]*txnEnv
}

// Deliver implements simnet.Handler.
func (m *siteMux) Deliver(msg proto.Msg) {
	if e := m.envs[msg.TID]; e != nil {
		e.deliver(msg)
	}
}

// Undeliverable implements simnet.Handler.
func (m *siteMux) Undeliverable(msg proto.Msg) {
	if e := m.envs[msg.TID]; e != nil {
		e.undeliverable(msg)
	}
}

// txnEnv implements proto.Env for one (site, transaction) automaton on the
// shared timeline, with its own timer and result slot.
type txnEnv struct {
	backend *SimBackend
	cfg     proto.Config
	node    proto.Node
	votes   Voter
	notify  func(site proto.SiteID, o proto.Outcome)
	out     *SiteOutcome
	epoch   int

	timer   sim.EventID
	hasTmr  bool
	started bool
}

// dead reports whether the hosting site crashed after this automaton was
// created; dead automata process no further events.
func (e *txnEnv) dead() bool {
	return e.backend.epoch[e.cfg.Self] != e.epoch ||
		e.backend.net.Crashed(e.cfg.Self, e.backend.sched.Now())
}

func (e *txnEnv) start() {
	before := e.node.State()
	e.node.Start(e)
	e.noteTransition(before)
}

func (e *txnEnv) deliver(m proto.Msg) {
	if e.dead() {
		return
	}
	if m.Kind == proto.MsgXact {
		e.started = true
	}
	before := e.node.State()
	e.node.OnMsg(e, m)
	e.noteTransition(before)
}

func (e *txnEnv) undeliverable(m proto.Msg) {
	if e.dead() {
		return
	}
	before := e.node.State()
	e.node.OnUndeliverable(e, m)
	e.noteTransition(before)
}

func (e *txnEnv) fireTimer() {
	if e.dead() {
		return
	}
	e.hasTmr = false
	e.trace(trace.Event{At: e.now(), Kind: trace.TimerFire, Site: int(e.cfg.Self), TID: uint64(e.cfg.TID)})
	before := e.node.State()
	e.node.OnTimeout(e)
	e.noteTransition(before)
}

func (e *txnEnv) noteTransition(before string) {
	after := e.node.State()
	if after != before {
		e.trace(trace.Event{
			At: e.now(), Kind: trace.Transition,
			Site: int(e.cfg.Self), FromState: before, ToState: after,
			TID: uint64(e.cfg.TID),
		})
	}
}

func (e *txnEnv) now() sim.Time { return e.backend.sched.Now() }

func (e *txnEnv) trace(ev trace.Event) { e.backend.rec.Append(ev) }

// --- proto.Env ---

// Self implements proto.Env.
func (e *txnEnv) Self() proto.SiteID { return e.cfg.Self }

// MasterID implements proto.Env.
func (e *txnEnv) MasterID() proto.SiteID { return e.cfg.Master }

// Sites implements proto.Env.
func (e *txnEnv) Sites() []proto.SiteID { return e.cfg.Sites }

// Slaves implements proto.Env.
func (e *txnEnv) Slaves() []proto.SiteID { return e.cfg.Slaves() }

// Now implements proto.Env.
func (e *txnEnv) Now() sim.Time { return e.backend.sched.Now() }

// T implements proto.Env.
func (e *txnEnv) T() sim.Duration { return e.backend.opts.T }

// Send implements proto.Env.
func (e *txnEnv) Send(to proto.SiteID, kind proto.Kind, payload []byte) {
	if e.dead() || to == e.cfg.Self {
		return
	}
	e.backend.net.Send(proto.Msg{TID: e.cfg.TID, From: e.cfg.Self, To: to, Kind: kind, Payload: payload})
}

// SendAll implements proto.Env.
func (e *txnEnv) SendAll(kind proto.Kind, payload []byte) {
	for _, id := range e.cfg.Sites {
		if id != e.cfg.Self {
			e.Send(id, kind, payload)
		}
	}
}

// ResetTimer implements proto.Env.
func (e *txnEnv) ResetTimer(d sim.Duration) {
	e.StopTimer()
	e.timer = e.backend.sched.After(d, sim.PriTimer, e.fireTimer)
	e.hasTmr = true
	e.trace(trace.Event{
		At: e.now(), Kind: trace.TimerSet, Site: int(e.cfg.Self),
		TID: uint64(e.cfg.TID), Detail: fmt.Sprintf("+%d", d),
	})
}

// StopTimer implements proto.Env.
func (e *txnEnv) StopTimer() {
	if e.hasTmr {
		e.backend.sched.Cancel(e.timer)
		e.hasTmr = false
		e.trace(trace.Event{At: e.now(), Kind: trace.TimerStop, Site: int(e.cfg.Self), TID: uint64(e.cfg.TID)})
	}
}

// Execute implements proto.Env.
func (e *txnEnv) Execute(payload []byte) bool {
	e.started = true
	if p := e.backend.cfg.Participants[e.cfg.Self]; p != nil {
		if sp, ok := p.(proto.SiteAwareParticipant); ok {
			return sp.ExecuteAt(e.cfg.TID, payload, e.cfg.Sites)
		}
		return p.Execute(e.cfg.TID, payload)
	}
	if e.votes != nil {
		return e.votes(e.cfg.Self, e.cfg.TID, payload)
	}
	if e.backend.cfg.Votes != nil {
		return e.backend.cfg.Votes(e.cfg.Self, e.cfg.TID, payload)
	}
	return true
}

// Decide implements proto.Env.
func (e *txnEnv) Decide(o proto.Outcome) {
	if o == proto.None {
		panic("cluster: Decide(None)")
	}
	if e.out.Outcome != proto.None {
		if e.out.Outcome != o {
			panic(fmt.Sprintf("cluster: site %d decided %v after %v on txn %d — protocol atomicity bug",
				e.cfg.Self, o, e.out.Outcome, e.cfg.TID))
		}
		return
	}
	e.out.Outcome = o
	e.out.DecidedAt = e.now()
	if p := e.backend.cfg.Participants[e.cfg.Self]; p != nil {
		if o == proto.Commit {
			p.Commit(e.cfg.TID)
		} else {
			p.Abort(e.cfg.TID)
		}
	}
	if e.notify != nil {
		e.notify(e.cfg.Self, o)
	}
	e.backend.leases.onDecide(e.cfg.Self, e.cfg.Payload, o, e.now())
	e.trace(trace.Event{
		At: e.now(), Kind: trace.Decide,
		Site: int(e.cfg.Self), Outcome: o.String(), TID: uint64(e.cfg.TID),
	})
}

// Tracef implements proto.Env.
func (e *txnEnv) Tracef(format string, args ...any) {
	if e.backend.rec == nil {
		return
	}
	e.trace(trace.Event{
		At: e.now(), Kind: trace.Note, Site: int(e.cfg.Self),
		TID: uint64(e.cfg.TID), Detail: fmt.Sprintf(format, args...),
	})
}

var _ proto.Env = (*txnEnv)(nil)
var _ Backend = (*SimBackend)(nil)
