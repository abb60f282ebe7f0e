// Package livenet runs the same protocol automata as the deterministic
// simulator on real goroutines, channels and wall-clock timers — the
// concurrency shape a production implementation would have. One goroutine
// per site serializes that site's events (deliveries, undeliverable
// returns, timeouts); a partition controller decides, per message, whether
// it crosses the boundary and either delivers it after a random link delay
// or returns it to its sender, implementing the paper's optimistic model
// in real time.
//
// A Cluster multiplexes any number of concurrent transactions over the
// same set of site goroutines: every transaction has its own master, its
// own automaton per site, and its own timer, demultiplexed by transaction
// ID exactly as a production commit coordinator would. Partitions, heals,
// site crashes and recoveries can be injected while transactions are in
// flight.
//
// The deterministic simulator (internal/cluster's SimBackend) is the
// tool for measuring the paper's timing bounds; this runtime demonstrates
// that the identical automaton code terminates correctly under genuine
// concurrency. internal/cluster's LiveBackend and examples/livedemo drive
// it.
package livenet

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"termproto/internal/proto"
	"termproto/internal/sim"
)

// Participant is the database-side hook for a site: partial execution
// produces the vote, and the decision is applied locally.
// internal/db/engine implements it. Engines must tolerate calls from
// multiple site goroutines (engine.Engine holds its own mutex).
type Participant = proto.Participant

// Config parameterizes a live cluster.
type Config struct {
	N        int
	Protocol proto.Protocol
	// T is the longest end-to-end delay bound used for the paper's
	// timeout intervals; actual per-message delays are drawn uniformly
	// from [T/4, T/2] (see route). Defaults to 10ms.
	T time.Duration
	// Participants optionally attaches a database participant per site;
	// a site with a participant votes by executing the payload.
	Participants map[proto.SiteID]Participant
	// Dormant lists sites whose goroutines StartSites does not launch:
	// provisioned capacity outside the initial membership. SpawnSite
	// brings a dormant (or retired) site's loop up when it joins.
	Dormant []proto.SiteID
	// Seed for the delay generator (0 = fixed default).
	Seed int64
}

// TxnSpec describes one transaction submitted to a running cluster.
type TxnSpec struct {
	TID proto.TxnID
	// Master is the coordinating site (any site may coordinate).
	Master proto.SiteID
	// Payload is the transaction body carried in MsgXact.
	Payload []byte
	// Votes decides this transaction's votes at sites without a
	// participant; nil votes yes.
	Votes func(site proto.SiteID, payload []byte) bool
	// Sites is the participant roster; Submit fills it with every site
	// live at submission when empty.
	Sites []proto.SiteID
	// OnDecided, when set, is called each time a site first records this
	// transaction's decision. It runs outside the cluster's internal lock
	// but must not block.
	OnDecided func(site proto.SiteID, o proto.Outcome)

	// local marks a transaction whose submitted roster was a single site:
	// it runs the local-commit fast path instead of the cluster protocol.
	// Set by Submit, never by callers.
	local bool
}

// Outcome is one site's result for one transaction.
type Outcome struct {
	Site    proto.SiteID
	Outcome proto.Outcome
	State   string
}

// TxnStatus is the final view of one transaction after the cluster has
// stopped.
type TxnStatus struct {
	TID     proto.TxnID
	Master  proto.SiteID
	Sites   []Outcome
	Decided bool // every participating live site reached an outcome
	// DecidedAt is the latest decision's offset from cluster start.
	DecidedAt time.Duration
}

// liveTxn is the cluster-side record of one submitted transaction.
type liveTxn struct {
	spec      TxnSpec
	outcomes  map[proto.SiteID]proto.Outcome
	waitingOn map[proto.SiteID]bool
	started   map[proto.SiteID]bool
	crashed   map[proto.SiteID]bool
	siteAt    map[proto.SiteID]time.Duration
	decidedAt time.Duration
	decided   chan struct{} // closed when waitingOn drains
}

// TxnView is a running-safe snapshot of one transaction's bookkeeping —
// everything except automaton states, which need the cluster stopped.
type TxnView struct {
	TID      proto.TxnID
	Master   proto.SiteID
	Outcomes map[proto.SiteID]proto.Outcome
	// Started marks sites that participated (master, or a slave that
	// learned of the transaction).
	Started map[proto.SiteID]bool
	// Crashed marks sites that failed while hosting the transaction or
	// were down at submission.
	Crashed map[proto.SiteID]bool
	// DecidedAt is each decision's offset from cluster start.
	DecidedAt map[proto.SiteID]time.Duration
}

// Cluster is a running set of live sites multiplexing transactions.
type Cluster struct {
	cfg   Config
	ids   []proto.SiteID
	sites map[proto.SiteID]*site

	mu        sync.Mutex
	separated map[proto.SiteID]bool // current G2
	crashed   map[proto.SiteID]bool
	epoch     map[proto.SiteID]int // bumped on crash: kills in-flight automata
	rng       *rand.Rand
	txns      map[proto.TxnID]*liveTxn
	order     []proto.TxnID
	inq       map[inqKey]chan inqReply // pending recovery inquiries by (asker, tid)
	spawned   map[proto.SiteID]int     // automata instantiated per site
	running   map[proto.SiteID]bool    // sites with a live goroutine
	started   bool
	startedAt time.Time

	wg      sync.WaitGroup
	done    chan struct{}
	stopped bool

	sent, delivered, bounced, dropped atomic.Uint64
}

type event struct {
	tid     proto.TxnID
	msg     proto.Msg
	timeout bool
	start   *TxnSpec
}

type site struct {
	id      proto.SiteID
	cluster *Cluster
	inbox   chan event
	// nodes is touched only by the site goroutine while it runs; reads
	// after Stop are ordered by wg.Wait, and successive incarnations
	// (retire → respawn) are ordered by the exited channel.
	nodes map[proto.TxnID]*nodeEnv
	// stop retires this incarnation of the site loop; exited closes when
	// it is fully out of its loop.
	stop   chan struct{}
	exited chan struct{}
}

// New builds (but does not start) a cluster of sites 1..N.
func New(cfg Config) *Cluster {
	if cfg.N < 2 {
		panic("livenet: need at least 2 sites")
	}
	if cfg.Protocol == nil {
		panic("livenet: nil protocol")
	}
	if cfg.T <= 0 {
		cfg.T = 10 * time.Millisecond
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 424242
	}
	c := &Cluster{
		cfg:       cfg,
		sites:     make(map[proto.SiteID]*site, cfg.N),
		separated: make(map[proto.SiteID]bool),
		crashed:   make(map[proto.SiteID]bool),
		epoch:     make(map[proto.SiteID]int),
		rng:       rand.New(rand.NewSource(seed)),
		txns:      make(map[proto.TxnID]*liveTxn),
		inq:       make(map[inqKey]chan inqReply),
		spawned:   make(map[proto.SiteID]int),
		running:   make(map[proto.SiteID]bool),
		done:      make(chan struct{}),
	}
	c.ids = make([]proto.SiteID, cfg.N)
	for i := range c.ids {
		c.ids[i] = proto.SiteID(i + 1)
	}
	for _, id := range c.ids {
		c.sites[id] = &site{
			id: id, cluster: c,
			inbox: make(chan event, 1024),
			nodes: make(map[proto.TxnID]*nodeEnv),
		}
	}
	return c
}

// StartSites launches the site goroutines — minus any Config.Dormant
// sites, which wait for SpawnSite — without submitting any transaction;
// the entry point for multi-transaction use.
func (c *Cluster) StartSites() {
	c.mu.Lock()
	if c.started {
		c.mu.Unlock()
		return
	}
	c.started = true
	c.startedAt = time.Now()
	dormant := make(map[proto.SiteID]bool, len(c.cfg.Dormant))
	for _, id := range c.cfg.Dormant {
		dormant[id] = true
	}
	for _, s := range c.sites {
		if !dormant[s.id] {
			c.startSiteLocked(s)
		}
	}
	c.mu.Unlock()
}

// startSiteLocked launches one incarnation of a site's loop. Called with
// c.mu held and the previous incarnation (if any) fully exited.
func (c *Cluster) startSiteLocked(s *site) {
	c.running[s.id] = true
	s.stop = make(chan struct{})
	s.exited = make(chan struct{})
	c.wg.Add(1)
	go s.run(s.stop, s.exited)
}

// SpawnSite brings up a site loop that is dormant (never started) or was
// retired — the live half of an elastic Join. No-op for a site already
// running, unknown, or after Stop.
func (c *Cluster) SpawnSite(id proto.SiteID) {
	s := c.sites[id]
	if s == nil {
		return
	}
	c.mu.Lock()
	if !c.started || c.stopped || c.running[id] {
		c.mu.Unlock()
		return
	}
	c.running[id] = true // claim before unlocking so concurrent spawns back off
	s.stop = nil         // no live incarnation yet: a concurrent Retire just clears the claim
	prev := s.exited
	c.mu.Unlock()
	if prev != nil {
		<-prev // the previous incarnation must be fully out of its loop
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped || !c.running[id] {
		c.running[id] = false
		return
	}
	c.startSiteLocked(s)
}

// RetireSite stops a site's loop — the live half of an elastic Leave.
// The network treats a retired site like a down one (messages to it are
// dropped, Reachable reports false); its durable state is untouched and
// a later SpawnSite revives it.
func (c *Cluster) RetireSite(id proto.SiteID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s := c.sites[id]; s != nil && c.running[id] {
		c.running[id] = false
		if s.stop != nil {
			close(s.stop)
		}
	}
}

// StartedAt reports when StartSites launched the cluster (the zero time
// before that).
func (c *Cluster) StartedAt() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.startedAt
}

// Submit registers a transaction and starts its automata on every live
// site. The zero Master defaults to site 1. Submitting a duplicate TID or
// submitting to a stopped cluster returns an error.
func (c *Cluster) Submit(spec TxnSpec) error {
	if spec.TID == 0 {
		return fmt.Errorf("livenet: zero TID")
	}
	if spec.Master == 0 {
		spec.Master = 1
	}
	if c.sites[spec.Master] == nil {
		return fmt.Errorf("livenet: unknown master site %d", spec.Master)
	}
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return fmt.Errorf("livenet: cluster stopped")
	}
	if !c.started {
		c.mu.Unlock()
		return fmt.Errorf("livenet: cluster not started")
	}
	if _, dup := c.txns[spec.TID]; dup {
		c.mu.Unlock()
		return fmt.Errorf("livenet: duplicate TID %d", spec.TID)
	}
	// The participant roster is the given site set (every site when none
	// was named) minus the sites dead at submission — a coordinator does
	// not invite sites it knows are down, matching the sim backend. A
	// dead master makes the transaction a recorded no-op. A roster that
	// is a single site by placement (not attrition) takes the
	// local-commit fast path.
	roster := spec.Sites
	if roster == nil {
		roster = c.ids
	}
	spec.local = len(roster) == 1
	live := make([]proto.SiteID, 0, len(roster))
	for _, id := range roster {
		if !c.crashed[id] {
			live = append(live, id)
		}
	}
	spec.Sites = live
	t := &liveTxn{
		spec:      spec,
		outcomes:  make(map[proto.SiteID]proto.Outcome),
		waitingOn: make(map[proto.SiteID]bool, c.cfg.N),
		started:   make(map[proto.SiteID]bool, c.cfg.N),
		crashed:   make(map[proto.SiteID]bool),
		siteAt:    make(map[proto.SiteID]time.Duration, c.cfg.N),
		decided:   make(chan struct{}),
	}
	for _, id := range c.ids {
		if c.crashed[id] {
			t.crashed[id] = true
		}
	}
	minSites := 2
	if spec.local {
		minSites = 1
	}
	runnable := !c.crashed[spec.Master] && len(spec.Sites) >= minSites
	if runnable {
		for _, id := range spec.Sites {
			t.waitingOn[id] = true
		}
	}
	if len(t.waitingOn) == 0 {
		close(t.decided) // nothing will ever decide: a recorded no-op
	}
	c.txns[spec.TID] = t
	c.order = append(c.order, spec.TID)
	c.mu.Unlock()

	if runnable {
		sp := spec
		for _, id := range spec.Sites {
			c.enqueue(id, event{tid: spec.TID, start: &sp})
		}
	}
	return nil
}

// Partition separates the given sites from the rest (the paper's G2).
func (c *Cluster) Partition(g2 ...proto.SiteID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.separated = make(map[proto.SiteID]bool, len(g2))
	for _, id := range g2 {
		c.separated[id] = true
	}
}

// Heal removes the partition.
func (c *Cluster) Heal() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.separated = make(map[proto.SiteID]bool)
}

// Crash fails a site: its in-flight automata stop permanently, messages
// addressed to it are lost without an undeliverable return (a site failure
// is indistinguishable from message loss, paper §7), and transactions
// submitted while it is down run without it.
func (c *Cluster) Crash(id proto.SiteID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed[id] {
		return
	}
	c.crashed[id] = true
	c.epoch[id]++
	// Nothing decides at a crashed site any more: stop waiting on it.
	for _, t := range c.txns {
		if t.waitingOn[id] {
			delete(t.waitingOn, id)
			t.crashed[id] = true
			if len(t.waitingOn) == 0 {
				close(t.decided)
			}
		}
	}
}

// Recover brings a crashed site back: it participates in transactions
// submitted from now on. Automata it hosted before the crash stay dead —
// the site rejoins as a fresh participant, the same convention as the
// deterministic simulator.
func (c *Cluster) Recover(id proto.SiteID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.crashed[id] = false
}

// Reachable reports whether a message between a and b would currently be
// delivered: both sites up (running, not crashed or retired) and on the
// same side of any partition. It is the bulk-transfer admission check
// for recovery catch-up (state pulls are modeled as a direct channel
// rather than per-key messages).
func (c *Cluster) Reachable(a, b proto.SiteID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.crashed[a] && !c.crashed[b] &&
		c.running[a] && c.running[b] &&
		c.separated[a] == c.separated[b]
}

// AutomataSpawned returns how many protocol automata each site has
// instantiated over the cluster's lifetime — the live counterpart of the
// sim backend's placement observable.
func (c *Cluster) AutomataSpawned() map[proto.SiteID]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[proto.SiteID]int, len(c.spawned))
	for id, n := range c.spawned {
		out[id] = n
	}
	return out
}

// inqKey identifies one pending recovery inquiry: replies are routed to
// the asking site by transaction ID.
type inqKey struct {
	asker proto.SiteID
	tid   proto.TxnID
}

type inqReply struct {
	outcome proto.Outcome
	ok      bool
}

// Inquire runs one hop of the recovery inquiry round: a real MsgInquire
// travels from the recovering site to the peer, which answers from its
// durable state with MsgCommit/MsgAbort. The partition controller applies
// the optimistic model to the inquiry itself — across an active boundary
// it bounces back undeliverable (peer unreachable), and a crashed peer is
// silence, bounded by the timeout. ok is false when no decision could be
// learned.
func (c *Cluster) Inquire(from, to proto.SiteID, tid proto.TxnID, timeout time.Duration) (proto.Outcome, bool) {
	key := inqKey{asker: from, tid: tid}
	ch := make(chan inqReply, 1)
	c.mu.Lock()
	if c.stopped || c.inq[key] != nil {
		c.mu.Unlock()
		return proto.None, false
	}
	c.inq[key] = ch
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.inq, key)
		c.mu.Unlock()
	}()
	c.route(proto.Msg{TID: tid, From: from, To: to, Kind: proto.MsgInquire})
	select {
	case r := <-ch:
		return r.outcome, r.ok
	case <-time.After(timeout):
		return proto.None, false
	case <-c.done:
		return proto.None, false
	}
}

// handleInquiry answers a MsgInquire at the receiving site from durable
// state: the site's database decision, when a database exposing one is
// attached. A site with no durable decision — undecided, or no database
// at all — stays silent: it has nothing authoritative to say (volatile
// automaton bookkeeping would not survive its own restart), and the
// asker's timeout handles the silence. Matches the sim backend exactly.
func (c *Cluster) handleInquiry(at proto.SiteID, m proto.Msg) {
	o, ok := c.durableOutcome(at, m.TID)
	if !ok {
		return
	}
	kind := proto.MsgCommit
	if o == proto.Abort {
		kind = proto.MsgAbort
	}
	c.route(proto.Msg{TID: m.TID, From: at, To: m.From, Kind: kind})
}

// durableOutcome reads a site's durable decision on a transaction.
func (c *Cluster) durableOutcome(at proto.SiteID, tid proto.TxnID) (proto.Outcome, bool) {
	if p := c.cfg.Participants[at]; p != nil {
		if src, ok := p.(interface {
			Outcome(tid uint64) (proto.Outcome, bool)
		}); ok {
			return src.Outcome(uint64(tid))
		}
	}
	return proto.None, false
}

// completeInquiry routes a delivery at a site to its pending inquiry, if
// one matches: a decision message answers it, and the undeliverable
// return of the inquiry itself marks the peer unreachable. Reports
// whether the event was consumed.
func (c *Cluster) completeInquiry(at proto.SiteID, m proto.Msg) bool {
	c.mu.Lock()
	ch := c.inq[inqKey{asker: at, tid: m.TID}]
	c.mu.Unlock()
	if ch == nil {
		return false
	}
	var r inqReply
	switch {
	case m.Undeliverable && m.Kind == proto.MsgInquire:
		r = inqReply{ok: false}
	case !m.Undeliverable && m.Kind == proto.MsgCommit:
		r = inqReply{outcome: proto.Commit, ok: true}
	case !m.Undeliverable && m.Kind == proto.MsgAbort:
		r = inqReply{outcome: proto.Abort, ok: true}
	default:
		return false
	}
	select {
	case ch <- r:
	default: // a reply already arrived; drop the duplicate
	}
	return true
}

// WaitTxn blocks until the given transaction has decided at every live
// participating site or the timeout elapses, reporting which.
func (c *Cluster) WaitTxn(tid proto.TxnID, timeout time.Duration) bool {
	c.mu.Lock()
	t := c.txns[tid]
	c.mu.Unlock()
	if t == nil {
		return false
	}
	select {
	case <-t.decided:
		return true
	case <-time.After(timeout):
		return false
	}
}

// WaitAll blocks until every submitted transaction has decided at every
// live participating site, or the timeout elapses, reporting which. It
// does not stop the cluster: more transactions may be submitted after.
func (c *Cluster) WaitAll(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	c.mu.Lock()
	tids := append([]proto.TxnID(nil), c.order...)
	c.mu.Unlock()
	for _, tid := range tids {
		c.mu.Lock()
		t := c.txns[tid]
		c.mu.Unlock()
		rem := time.Until(deadline)
		if rem <= 0 {
			rem = 0
		}
		select {
		case <-t.decided:
		case <-time.After(rem):
			return false
		}
	}
	return true
}

// Status returns the final view of one transaction. Call only after Stop:
// it reads automaton states owned by the site goroutines. A slave still in
// its initial state q never learned of the transaction (its xact bounced
// at the boundary) and holds no locks, so it does not count against
// Decided.
func (c *Cluster) Status(tid proto.TxnID) TxnStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.txns[tid]
	st := TxnStatus{TID: tid, Decided: true}
	if t == nil {
		st.Decided = false
		return st
	}
	st.Master = t.spec.Master
	st.DecidedAt = t.decidedAt
	for _, id := range c.ids {
		o := Outcome{Site: id, Outcome: t.outcomes[id], State: "q"}
		if ne := c.sites[id].nodes[tid]; ne != nil {
			o.State = ne.node.State()
		}
		if o.Outcome == proto.None && o.State != "q" && !c.crashed[id] {
			st.Decided = false
		}
		st.Sites = append(st.Sites, o)
	}
	return st
}

// View returns a running-safe snapshot of one transaction's outcomes and
// participation, without touching automaton states (unlike Status it may
// be called while the cluster runs).
func (c *Cluster) View(tid proto.TxnID) (TxnView, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.txns[tid]
	if t == nil {
		return TxnView{}, false
	}
	v := TxnView{
		TID: tid, Master: t.spec.Master,
		Outcomes:  make(map[proto.SiteID]proto.Outcome, len(t.outcomes)),
		Started:   make(map[proto.SiteID]bool, len(t.started)),
		Crashed:   make(map[proto.SiteID]bool, len(t.crashed)),
		DecidedAt: make(map[proto.SiteID]time.Duration, len(t.siteAt)),
	}
	for id, o := range t.outcomes {
		v.Outcomes[id] = o
	}
	for id, s := range t.started {
		v.Started[id] = s
	}
	for id, cr := range t.crashed {
		v.Crashed[id] = cr
	}
	for id, at := range t.siteAt {
		v.DecidedAt[id] = at
	}
	return v, true
}

// NetCounters returns cumulative message counters:
// sent, delivered, bounced, dropped.
func (c *Cluster) NetCounters() (sent, delivered, bounced, dropped uint64) {
	return c.sent.Load(), c.delivered.Load(), c.bounced.Load(), c.dropped.Load()
}

// Results returns the final view of every submitted transaction in
// submission order. Call only after Stop.
func (c *Cluster) Results() []TxnStatus {
	c.mu.Lock()
	tids := append([]proto.TxnID(nil), c.order...)
	c.mu.Unlock()
	out := make([]TxnStatus, 0, len(tids))
	for _, tid := range tids {
		out = append(out, c.Status(tid))
	}
	return out
}

// Stop terminates the site goroutines. Terminal and idempotent.
func (c *Cluster) Stop() {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.stopped = true
	c.mu.Unlock()
	close(c.done)
	// Site goroutines exit on done; after Wait their node maps are safe to
	// read. A timer firing in the window before its stop just enqueues into
	// the closed-done select and returns.
	c.wg.Wait()
	for _, s := range c.sites {
		for _, ne := range s.nodes {
			ne.stopTimer()
		}
	}
}

// route schedules a message: after the forward delay the partition state
// is consulted at "crossing time" — if the endpoints are separated the
// message turns around and returns to its sender as undeliverable after
// the same delay again. Messages to crashed sites are lost.
//
// Delays are drawn from [T/4, T/2], strictly under the declared bound T.
// The paper's timeout analysis assumes a message arriving exactly at a
// timer's deadline is processed before the timer (the simulator's
// deliveries-before-timers tie-break); real clocks have no such ordering,
// so a live system must keep worst-case delay + scheduling jitter strictly
// inside the timeout interval. With delays ≤ T/2 an undeliverable return
// lands within T, a full T before the master's 2T window closes.
func (c *Cluster) route(m proto.Msg) {
	c.mu.Lock()
	d := c.cfg.T/4 + time.Duration(c.rng.Int63n(int64(c.cfg.T/4)+1))
	c.mu.Unlock()
	c.sent.Add(1)

	time.AfterFunc(d, func() {
		c.mu.Lock()
		crossing := c.separated[m.From] != c.separated[m.To]
		// A dormant or retired site is as silent as a crashed one: no
		// loop drains its inbox, so the message is lost, not queued for
		// a future incarnation.
		destDown := c.crashed[m.To] || !c.running[m.To]
		stopped := c.stopped
		c.mu.Unlock()
		if stopped {
			return
		}
		if crossing {
			c.bounced.Add(1)
			ud := m
			ud.Undeliverable = true
			time.AfterFunc(d, func() { c.deliver(m.From, ud) })
			return
		}
		if destDown {
			c.dropped.Add(1)
			return // lost: site failure is indistinguishable from message loss
		}
		c.delivered.Add(1)
		c.deliver(m.To, m)
	})
}

func (c *Cluster) deliver(to proto.SiteID, m proto.Msg) {
	c.enqueue(to, event{tid: m.TID, msg: m})
}

func (c *Cluster) enqueue(to proto.SiteID, ev event) {
	s := c.sites[to]
	if s == nil {
		return
	}
	select {
	case s.inbox <- ev:
	case <-c.done:
	}
}

func (c *Cluster) noteDecision(tid proto.TxnID, id proto.SiteID, o proto.Outcome) {
	c.mu.Lock()
	t := c.txns[tid]
	if t == nil {
		c.mu.Unlock()
		return
	}
	if _, dup := t.outcomes[id]; dup {
		c.mu.Unlock()
		return
	}
	t.outcomes[id] = o
	at := time.Since(c.startedAt)
	t.siteAt[id] = at
	if at > t.decidedAt {
		t.decidedAt = at
	}
	drained := false
	if t.waitingOn[id] {
		delete(t.waitingOn, id)
		drained = len(t.waitingOn) == 0
	}
	hook := t.spec.OnDecided
	c.mu.Unlock()
	// The hook runs before the decided channel closes, so a waiter that
	// returns from WaitTxn/WaitAll observes its effects; it runs outside
	// c.mu so it may call back into the cluster (e.g. RetireSite).
	if hook != nil {
		hook(id, o)
	}
	if drained {
		close(t.decided)
	}
}

func (c *Cluster) siteEpoch(id proto.SiteID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch[id]
}

func (c *Cluster) siteCrashed(id proto.SiteID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.crashed[id]
}

// --- site goroutine ---

func (s *site) run(stop, exited chan struct{}) {
	defer close(exited)
	defer s.cluster.wg.Done()
	for {
		select {
		case ev := <-s.inbox:
			s.handle(ev)
		case <-stop:
			return
		case <-s.cluster.done:
			return
		}
	}
}

func (s *site) handle(ev event) {
	if ev.start != nil {
		if s.cluster.siteCrashed(s.id) {
			return // down at submission: this site never participates
		}
		spec := ev.start
		cfg := proto.Config{
			TID: spec.TID, Self: s.id, Master: spec.Master,
			Sites: spec.Sites, Payload: spec.Payload,
		}
		protocol := s.cluster.cfg.Protocol
		if spec.local {
			protocol = proto.LocalCommit{}
		}
		var node proto.Node
		if s.id == spec.Master {
			node = protocol.NewMaster(cfg)
			s.cluster.markStarted(spec.TID, s.id)
		} else {
			node = protocol.NewSlave(cfg)
		}
		ne := &nodeEnv{
			site: s, spec: spec, node: node,
			epoch:       s.cluster.siteEpoch(s.id),
			participant: s.cluster.cfg.Participants[s.id],
		}
		s.nodes[spec.TID] = ne
		s.cluster.noteSpawned(s.id)
		ne.node.Start(ne)
		return
	}
	// Recovery traffic is site-level, not automaton-level: answer an
	// inquiry from durable state, and route replies (or the inquiry's own
	// undeliverable return) to this site's pending inquiry.
	if !ev.timeout {
		if ev.msg.Kind == proto.MsgInquire && !ev.msg.Undeliverable {
			s.cluster.handleInquiry(s.id, ev.msg)
			return
		}
		if s.cluster.completeInquiry(s.id, ev.msg) {
			return
		}
	}
	ne := s.nodes[ev.tid]
	if ne == nil || ne.dead() {
		return
	}
	switch {
	case ev.timeout:
		ne.node.OnTimeout(ne)
	case ev.msg.Undeliverable:
		ne.node.OnUndeliverable(ne, ev.msg)
	default:
		if ev.msg.Kind == proto.MsgXact {
			s.cluster.markStarted(ev.tid, s.id)
		}
		ne.node.OnMsg(ne, ev.msg)
	}
}

func (c *Cluster) markStarted(tid proto.TxnID, id proto.SiteID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t := c.txns[tid]; t != nil {
		t.started[id] = true
	}
}

func (c *Cluster) noteSpawned(id proto.SiteID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.spawned[id]++
}

// --- proto.Env implementation (per site, per transaction) ---

// nodeEnv is one (site, transaction) automaton plus its timer.
type nodeEnv struct {
	site        *site
	spec        *TxnSpec
	node        proto.Node
	epoch       int
	participant Participant

	timerMu  sync.Mutex
	timer    *time.Timer
	timerGen int
}

// dead reports whether the hosting site crashed after this automaton was
// created; a dead automaton processes no further events.
func (e *nodeEnv) dead() bool {
	c := e.site.cluster
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.crashed[e.site.id] || c.epoch[e.site.id] != e.epoch
}

// Self implements proto.Env.
func (e *nodeEnv) Self() proto.SiteID { return e.site.id }

// MasterID implements proto.Env.
func (e *nodeEnv) MasterID() proto.SiteID { return e.spec.Master }

// Sites implements proto.Env.
func (e *nodeEnv) Sites() []proto.SiteID {
	return append([]proto.SiteID(nil), e.spec.Sites...)
}

// Slaves implements proto.Env.
func (e *nodeEnv) Slaves() []proto.SiteID {
	ids := make([]proto.SiteID, 0, len(e.spec.Sites)-1)
	for _, id := range e.spec.Sites {
		if id != e.spec.Master {
			ids = append(ids, id)
		}
	}
	return ids
}

// Now implements proto.Env, reporting wall time in sim ticks of 1µs.
func (e *nodeEnv) Now() sim.Time { return sim.Time(time.Now().UnixMicro()) }

// T implements proto.Env in the same 1µs ticks.
func (e *nodeEnv) T() sim.Duration {
	return sim.Duration(e.site.cluster.cfg.T / time.Microsecond)
}

// Send implements proto.Env.
func (e *nodeEnv) Send(to proto.SiteID, kind proto.Kind, payload []byte) {
	if to == e.site.id {
		return
	}
	e.site.cluster.route(proto.Msg{
		TID: e.spec.TID, From: e.site.id, To: to, Kind: kind, Payload: payload,
	})
}

// SendAll implements proto.Env: broadcast to the transaction's
// participants (not the whole cluster — under sharded placement the
// roster is a strict subset of the sites).
func (e *nodeEnv) SendAll(kind proto.Kind, payload []byte) {
	for _, id := range e.spec.Sites {
		if id != e.site.id {
			e.Send(id, kind, payload)
		}
	}
}

// ResetTimer implements proto.Env with a wall-clock timer whose expiry is
// serialized through the site's inbox.
func (e *nodeEnv) ResetTimer(d sim.Duration) {
	e.timerMu.Lock()
	defer e.timerMu.Unlock()
	if e.timer != nil {
		e.timer.Stop()
	}
	e.timerGen++
	gen := e.timerGen
	wall := time.Duration(d) * time.Microsecond
	e.timer = time.AfterFunc(wall, func() {
		e.timerMu.Lock()
		live := gen == e.timerGen
		e.timerMu.Unlock()
		if !live {
			return
		}
		e.site.cluster.enqueue(e.site.id, event{tid: e.spec.TID, timeout: true})
	})
}

// StopTimer implements proto.Env.
func (e *nodeEnv) StopTimer() { e.stopTimer() }

func (e *nodeEnv) stopTimer() {
	e.timerMu.Lock()
	defer e.timerMu.Unlock()
	e.timerGen++
	if e.timer != nil {
		e.timer.Stop()
	}
}

// Execute implements proto.Env.
func (e *nodeEnv) Execute(payload []byte) bool {
	e.site.cluster.markStarted(e.spec.TID, e.site.id)
	if e.participant != nil {
		if sp, ok := e.participant.(proto.SiteAwareParticipant); ok {
			return sp.ExecuteAt(e.spec.TID, payload, e.spec.Sites)
		}
		return e.participant.Execute(e.spec.TID, payload)
	}
	if e.spec.Votes != nil {
		return e.spec.Votes(e.site.id, payload)
	}
	return true
}

// Decide implements proto.Env.
func (e *nodeEnv) Decide(o proto.Outcome) {
	if e.participant != nil {
		c := e.site.cluster
		c.mu.Lock()
		_, dup := c.txns[e.spec.TID].outcomes[e.site.id]
		c.mu.Unlock()
		if !dup {
			if o == proto.Commit {
				e.participant.Commit(e.spec.TID)
			} else {
				e.participant.Abort(e.spec.TID)
			}
		}
	}
	e.site.cluster.noteDecision(e.spec.TID, e.site.id, o)
}

// Tracef implements proto.Env (live runs do not record traces).
func (e *nodeEnv) Tracef(string, ...any) {}

var _ proto.Env = (*nodeEnv)(nil)
