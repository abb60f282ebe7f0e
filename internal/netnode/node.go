package netnode

import (
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"termproto/internal/db/engine"
	"termproto/internal/db/wal"
	"termproto/internal/obs"
	"termproto/internal/placement"
	"termproto/internal/proto"
	"termproto/internal/recovery"
	"termproto/internal/sim"
	"termproto/internal/trace"
)

// Options parameterizes one site process.
type Options struct {
	// ID is this site's identifier.
	ID proto.SiteID
	// Protocol is the commit protocol automaton family.
	Protocol proto.Protocol
	// T is the longest end-to-end delay bound; per-message delays are
	// drawn from [T/4, T/2). Defaults to 50ms — wide enough that protocol
	// timing dominates process scheduling jitter.
	T time.Duration
	// Addr is the protocol listen address (":0" picks a free port).
	Addr string
	// Peers maps every site (self included) to its protocol address.
	Peers map[proto.SiteID]string
	// APIPeers optionally maps peers to their admin API addresses; the
	// recovery catch-up pull needs them. Empty disables catch-up.
	APIPeers map[proto.SiteID]string
	// Placement is the static sharded assignment this localnet was
	// provisioned with (epoch 0); nil means full replication. The node
	// hosts only the shards whose replica sets include it, scopes its
	// recovery to those shards, and on a fresh boot writes the epoch-0
	// directory record durably to its own WAL — a restart recovers the
	// placement epoch from the log, not from this option.
	Placement *placement.Assignment
	// Store overrides the write-ahead log store (in-process tests);
	// nil opens WALPath as a file-backed store.
	Store wal.Store
	// WALPath is the site's write-ahead log file.
	WALPath string
	// Seed drives the link-delay generator (0 derives one from ID).
	Seed int64
	// GroupCommit toggles WAL group commit — concurrent appenders share
	// one fsync. Nil defaults to ON for file-backed stores (opened from
	// WALPath) and OFF for injected Stores, whose tests usually depend on
	// strictly synchronous append semantics.
	GroupCommit *bool
	// ShortCommit enables the early-lock-release commit variant; see
	// engine.Options.ShortCommit for the semantics and caveats.
	ShortCommit bool
	// PipelineDecisions lets the engine apply a decision while its WAL
	// record's group-commit flush is still in flight; see
	// engine.Options.PipelineDecisions.
	PipelineDecisions bool
	// TraceOut, when set, makes the node record its protocol-visible
	// events (automaton state transitions, decisions) and export them as
	// a JSONL trace (trace.WriteJSONL) to this path at Close. Relative
	// paths are the caller's working directory — cmd/termnode resolves
	// them under the node's workspace.
	TraceOut string
	// Logf receives diagnostic lines; nil discards them.
	Logf func(format string, args ...any)
}

// event is one unit of work for the site loop: a transaction start, a
// delivered or returned message, or a timer expiry.
type event struct {
	tid     proto.TxnID
	msg     proto.Msg
	timeout bool
	start   *startSpec
}

// startSpec is everything needed to instantiate one transaction's
// automaton at this site — from a local submission (master role) or from
// the MsgXact envelope (slave role).
type startSpec struct {
	master  proto.SiteID
	sites   []proto.SiteID
	noVotes map[proto.SiteID]bool
	payload []byte
}

// TxnInfo is one transaction's bookkeeping at this site, as the admin API
// reports it.
type TxnInfo struct {
	TID       proto.TxnID
	Master    proto.SiteID
	Sites     []proto.SiteID
	Outcome   proto.Outcome
	DecidedAt time.Time
	Started   bool
	State     string

	// startedWall anchors the node's latency observations: the instant
	// this site first learned of the transaction. shard is the label its
	// commit latency records under (0 under full replication).
	startedWall time.Time
	shard       int
}

// Node is one site of the termination protocol as a network process: the
// protocol automata multiplexed over a single event loop, a TCP transport,
// a WAL-backed storage engine, and startup recovery. cmd/termnode wraps it
// in a daemon; tests can run several in one process over real sockets.
type Node struct {
	opts  Options
	eng   *engine.Engine
	tr    *transport
	file  *wal.FileStore // non-nil when we opened WALPath ourselves
	addr  string
	inbox chan event
	done  chan struct{}
	wg    sync.WaitGroup

	// nodes is the live automaton table, touched only by the loop
	// goroutine.
	nodes map[proto.TxnID]*nodeEnv

	mu       sync.Mutex
	txns     map[proto.TxnID]*TxnInfo
	inq      map[proto.TxnID]chan inqReply
	pending  []engine.InDoubt // in-doubt txns recovery left unresolved
	recStats *recovery.Stats  // startup recovery result
	recErr   error
	api      *http.Server
	closed   bool
	// epoch and asg are the placement state the node serves under,
	// resolved at startup: the WAL's epoch stack when one survives,
	// else the configured epoch-0 assignment.
	epoch placement.Epoch
	asg   *placement.Assignment

	ready     atomic.Bool
	startedAt time.Time

	// reg is the node's metrics registry, seeded with the full catalog at
	// Start so the daemon's /metrics family set matches the in-process
	// backends'. obsPrepared/obsDecided are the protocol round latency
	// histograms (ticks = µs on this backend), resolved once.
	reg            *obs.Registry
	obsPrepared    *obs.Histogram
	obsDecided     *obs.Histogram
	obsShardCommit *obs.HistogramVec
	// rec records protocol-visible events for Options.TraceOut (nil when
	// tracing is off). Wire-level events arrive from transport timer and
	// connection goroutines, state events from the loop goroutine, so
	// every append and read goes through recMu (via the trace method).
	recMu sync.Mutex
	rec   *trace.Recorder
}

// ClearWorkspace removes a site's workspace directory — its WAL and any
// per-node logs — for a cold start with no inherited state. A missing
// directory is not an error.
func ClearWorkspace(dir string) error {
	if dir == "" {
		return fmt.Errorf("netnode: empty workspace directory")
	}
	return os.RemoveAll(dir)
}

// NewNode builds a node; Start brings it up.
func NewNode(opts Options) *Node {
	if opts.T <= 0 {
		opts.T = 50 * time.Millisecond
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	return &Node{
		opts:  opts,
		inbox: make(chan event, 1024),
		done:  make(chan struct{}),
		nodes: make(map[proto.TxnID]*nodeEnv),
		txns:  make(map[proto.TxnID]*TxnInfo),
		inq:   make(map[proto.TxnID]chan inqReply),
	}
}

// Start opens the engine over its log, brings the transport and event
// loop up, and runs recovery: replay the surviving WAL, resolve in-doubt
// transactions with real MsgInquire traffic, and pull missed commits from
// a reachable peer's snapshot. The node reports ready only after
// recovery, so a harness waiting on /health observes a fully recovered
// site.
func (n *Node) Start() error {
	if n.opts.Protocol == nil {
		return fmt.Errorf("netnode: nil protocol")
	}
	if n.opts.ID == 0 {
		return fmt.Errorf("netnode: zero site ID")
	}
	n.reg = obs.New()
	obs.RegisterBase(n.reg)
	pname := n.opts.Protocol.Name()
	n.obsPrepared = n.reg.Histogram(obs.MRoundLatency,
		obs.L("protocol", pname), obs.L("phase", "prepared"))
	n.obsDecided = n.reg.Histogram(obs.MRoundLatency,
		obs.L("protocol", pname), obs.L("phase", "decided"))
	n.obsShardCommit = n.reg.NewHistogramVec(obs.MShardCommitLatency, "shard")
	if n.opts.TraceOut != "" {
		n.rec = &trace.Recorder{}
	}
	store := n.opts.Store
	if store == nil {
		if n.opts.WALPath == "" {
			return fmt.Errorf("netnode: need a Store or a WALPath")
		}
		fs, err := wal.OpenFile(n.opts.WALPath)
		if err != nil {
			return err
		}
		n.file = fs
		store = fs
	}
	eopts := engine.Options{
		ShortCommit:       n.opts.ShortCommit,
		PipelineDecisions: n.opts.PipelineDecisions,
	}
	groupCommit := n.file != nil // default: on for file-backed stores
	if n.opts.GroupCommit != nil {
		groupCommit = *n.opts.GroupCommit
	}
	if groupCommit {
		eopts.WAL = wal.GroupCommitDefaults()
	}
	n.eng = engine.NewWith(fmt.Sprintf("site-%d", n.opts.ID), store, eopts)
	var shardOf func(key string) int
	if asg := n.opts.Placement; asg != nil {
		shardOf = asg.ShardOf
	}
	n.eng.SetMetrics(n.reg, shardOf)
	if asg := n.opts.Placement; asg != nil {
		// The hosts predicate must be in place before recovery: replay
		// and catch-up consult it to keep this site's state scoped to
		// the shards it replicates.
		self := n.opts.ID
		n.eng.SetPlacement(func(key string) bool { return asg.Hosts(self, key) })
	}

	n.tr = newTransport(n.opts.ID, n.opts.T, n.opts.Seed, n.opts.Peers,
		func(m proto.Msg) { n.enqueue(event{tid: m.TID, msg: m}) }, n.opts.Logf)
	if n.rec != nil {
		n.tr.setTrace(n.trace)
	}
	n.tr.setMetrics(n.reg)
	addr, err := n.tr.listen(n.opts.Addr)
	if err != nil {
		return err
	}
	n.addr = addr
	n.startedAt = time.Now()

	n.wg.Add(1)
	go n.loop()

	st, err := recovery.Run(n.recoveryConfig())
	n.mu.Lock()
	n.recStats, n.recErr = &st, err
	n.pending = st.Pending
	n.mu.Unlock()
	if err != nil {
		n.opts.Logf("recovery failed: %v", err)
	} else if st.Replayed+st.InDoubt+st.CaughtUpKeys > 0 {
		n.opts.Logf("recovered: %s", st)
	}
	n.installPlacement()
	n.ready.Store(true)
	return nil
}

// installPlacement resolves the node's placement state after recovery.
// The WAL is authoritative: an epoch stack recovered from the replayed
// log wins over the configured assignment (they agree under the static
// provisioning the net path supports, but the log is what a restarted
// node actually owns). A fresh boot with a configured assignment writes
// the epoch-0 directory record durably, so the next incarnation
// recovers it from the log alone.
func (n *Node) installPlacement() {
	snap, _ := n.eng.StableSnapshot()
	if stack, err := placement.StackFromSnapshot(snap); err != nil {
		n.opts.Logf("placement: corrupt epoch stack in WAL: %v", err)
	} else if len(stack) > 0 {
		cur := stack[len(stack)-1]
		n.mu.Lock()
		n.epoch, n.asg = placement.Epoch(len(stack)-1), cur
		n.mu.Unlock()
		n.opts.Logf("placement: epoch %d recovered from WAL (%d shards, rf=%d)",
			len(stack)-1, cur.Shards(), cur.ReplicationFactor())
		return
	}
	if asg := n.opts.Placement; asg != nil {
		n.eng.Put(placement.EpochKey(0), placement.EncodeAssignment(asg))
		n.mu.Lock()
		n.epoch, n.asg = 0, asg
		n.mu.Unlock()
		n.opts.Logf("placement: epoch 0 installed from configuration (%d shards, rf=%d)",
			asg.Shards(), asg.ReplicationFactor())
	}
}

// PlacementEpoch returns the placement epoch the node serves under and
// whether it has one (false for full replication).
func (n *Node) PlacementEpoch() (placement.Epoch, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch, n.asg != nil
}

// Addr returns the bound protocol address.
func (n *Node) Addr() string { return n.addr }

// Engine returns the node's storage engine.
func (n *Node) Engine() *engine.Engine { return n.eng }

// Ready reports whether startup (including recovery) has finished.
func (n *Node) Ready() bool { return n.ready.Load() }

// recoveryConfig assembles this site's recovery. Under full replication
// it interrogates the full peer roster for in-doubt decisions and
// catches up the whole keyspace from any other site (the ascending
// donor order makes it deterministic). Under sharded placement both are
// scoped to this site's replica groups: only members are interrogated,
// and each hosted shard catches up from that shard's other replicas.
func (n *Node) recoveryConfig() recovery.Config {
	all := make([]proto.SiteID, 0, len(n.opts.Peers))
	for id := range n.opts.Peers {
		all = append(all, id)
	}
	sortSites(all)
	cfg := recovery.Config{
		Site:       n.opts.ID,
		Engine:     n.eng,
		Peers:      netPeers{n: n},
		AllSites:   all,
		Checkpoint: true,
	}
	if asg := n.opts.Placement; asg != nil {
		if mem := asg.Members(); len(mem) > 0 {
			cfg.AllSites = mem
		}
		if len(n.opts.APIPeers) == 0 {
			return cfg
		}
		for s := 0; s < asg.Shards(); s++ {
			replicas := asg.Replicas(s)
			hosted := false
			donors := make([]proto.SiteID, 0, len(replicas))
			for _, id := range replicas {
				if id == n.opts.ID {
					hosted = true
				} else {
					donors = append(donors, id)
				}
			}
			if !hosted {
				continue
			}
			shard := s
			cfg.CatchUp = append(cfg.CatchUp, recovery.CatchUpSource{
				Donors:  donors,
				Include: func(key string) bool { return asg.ShardOf(key) == shard },
			})
		}
		return cfg
	}
	donors := make([]proto.SiteID, 0, len(all)-1)
	for _, id := range all {
		if id != n.opts.ID {
			donors = append(donors, id)
		}
	}
	if len(n.opts.APIPeers) > 0 {
		cfg.CatchUp = []recovery.CatchUpSource{{Donors: donors}}
	}
	return cfg
}

// RetryInDoubt re-runs the inquiry round for transactions recovery left
// unresolved — the heal edge: the partition that hid every decided
// participant has lifted. Reports whether anything was still pending
// before the pass.
func (n *Node) RetryInDoubt() (recovery.Stats, bool) {
	n.mu.Lock()
	pend := n.pending
	n.mu.Unlock()
	if len(pend) == 0 {
		return recovery.Stats{}, false
	}
	st := recovery.Retry(n.recoveryConfig(), pend)
	n.mu.Lock()
	n.pending = st.Pending
	n.mu.Unlock()
	return st, true
}

// RecoveryResult returns the startup recovery outcome (nil stats before
// Start finishes).
func (n *Node) RecoveryResult() (*recovery.Stats, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.recStats, n.recErr
}

// Submit starts a transaction with this site as master. The roster and
// scripted no-votes were resolved by the submitting client; slaves learn
// them from the MsgXact envelope.
func (n *Node) Submit(tid proto.TxnID, master proto.SiteID, sites []proto.SiteID,
	noVotes []proto.SiteID, payload []byte) error {
	if master != n.opts.ID {
		return fmt.Errorf("netnode: site %d asked to coordinate txn %d mastered at %d",
			n.opts.ID, tid, master)
	}
	if len(sites) < 2 {
		return fmt.Errorf("netnode: txn %d needs at least 2 participants, got %v", tid, sites)
	}
	no := make(map[proto.SiteID]bool, len(noVotes))
	for _, id := range noVotes {
		no[id] = true
	}
	n.enqueue(event{tid: tid, start: &startSpec{
		master: master, sites: sites, noVotes: no, payload: payload,
	}})
	return nil
}

// SetBlocked replaces the partition blocklist: messages across a blocked
// link return to their sender undeliverable.
func (n *Node) SetBlocked(peers []proto.SiteID) { n.tr.SetBlocked(peers) }

// Counters returns the transport's cumulative message counters.
func (n *Node) Counters() (sent, delivered, bounced, dropped uint64) {
	return n.tr.Counters()
}

// Txn returns one transaction's bookkeeping. Transactions this process
// never hosted live (decided before a restart, or still in doubt from the
// log) are answered from durable state.
func (n *Node) Txn(tid proto.TxnID) TxnInfo {
	n.mu.Lock()
	if info := n.txns[tid]; info != nil {
		out := *info
		out.Sites = append([]proto.SiteID(nil), info.Sites...)
		n.mu.Unlock()
		return out
	}
	n.mu.Unlock()
	info := TxnInfo{TID: tid, State: "q"}
	if o, ok := n.eng.Outcome(uint64(tid)); ok && o != proto.None {
		info.Outcome = o
		info.Started = true
	}
	for _, d := range n.eng.InDoubt() {
		if d == uint64(tid) {
			info.Started = true // prepared in the log: it participated
		}
	}
	return info
}

// Txns returns every live transaction's bookkeeping in TID order.
func (n *Node) Txns() []TxnInfo {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]TxnInfo, 0, len(n.txns))
	for _, info := range n.txns {
		cp := *info
		cp.Sites = append([]proto.SiteID(nil), info.Sites...)
		out = append(out, cp)
	}
	sortTxnInfos(out)
	return out
}

// Close stops the loop, the transport and every automaton timer, and
// closes the log file.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	api := n.api
	n.mu.Unlock()
	close(n.done)
	if api != nil {
		api.Close()
	}
	if n.tr != nil {
		n.tr.Close()
	}
	n.wg.Wait()
	for _, ne := range n.nodes {
		ne.stopTimer()
	}
	if n.file != nil {
		n.file.Close()
	}
	if n.rec != nil && n.opts.TraceOut != "" {
		n.recMu.Lock()
		events := n.rec.Events()
		n.recMu.Unlock()
		if err := trace.WriteJSONLFile(n.opts.TraceOut, events); err != nil {
			n.opts.Logf("trace export failed: %v", err)
		} else {
			n.opts.Logf("trace: %d events -> %s", len(events), n.opts.TraceOut)
		}
	}
}

func (n *Node) enqueue(ev event) {
	select {
	case n.inbox <- ev:
	case <-n.done:
	}
}

func (n *Node) loop() {
	defer n.wg.Done()
	for {
		select {
		case ev := <-n.inbox:
			n.handle(ev)
		case <-n.done:
			return
		}
	}
}

// handle processes one event on the loop goroutine in a fixed dispatch
// order: starts, then site-level recovery traffic
// (inquiries answered from durable state, replies routed to the pending
// inquiry), then automaton events.
func (n *Node) handle(ev event) {
	if ev.start != nil {
		n.startTxn(ev.tid, ev.start, nil)
		return
	}
	if !ev.timeout {
		m := ev.msg
		if m.Kind == proto.MsgInquire && !m.Undeliverable {
			n.answerInquiry(m)
			return
		}
		if n.completeInquiry(m) {
			return
		}
		if m.Kind == proto.MsgXact && !m.Undeliverable && n.nodes[m.TID] == nil {
			env, err := DecodeXact(m.Payload)
			if err != nil {
				n.opts.Logf("bad xact envelope for txn %d from site %d: %v", m.TID, m.From, err)
				return
			}
			no := make(map[proto.SiteID]bool, len(env.NoVotes))
			for _, id := range env.NoVotes {
				no[id] = true
			}
			inner := m
			inner.Payload = env.Body
			n.startTxn(m.TID, &startSpec{
				master: env.Master, sites: env.Sites, noVotes: no, payload: env.Body,
			}, &inner)
			return
		}
	}
	ne := n.nodes[ev.tid]
	if ne == nil {
		return
	}
	switch {
	case ev.timeout:
		ne.an.OnTimeout(ne)
	case ev.msg.Undeliverable:
		ne.an.OnUndeliverable(ne, ev.msg)
	default:
		m := ev.msg
		if m.Kind == proto.MsgXact {
			// A duplicate xact for a live automaton: unwrap the envelope so
			// the automaton sees the body, as on first delivery.
			if env, err := DecodeXact(m.Payload); err == nil {
				m.Payload = env.Body
			}
			n.markStarted(m.TID)
		}
		ne.an.OnMsg(ne, m)
	}
	n.syncState(ev.tid)
}

// startTxn instantiates one transaction's automaton. firstMsg, when set,
// is the MsgXact (envelope already stripped) that announced the
// transaction; it is delivered immediately after Start, matching the
// slave-creation convention of proto.Node.
func (n *Node) startTxn(tid proto.TxnID, spec *startSpec, firstMsg *proto.Msg) {
	if n.nodes[tid] != nil {
		return // duplicate submission
	}
	cfg := proto.Config{
		TID: tid, Self: n.opts.ID, Master: spec.master,
		Sites: spec.sites, Payload: spec.payload,
	}
	var an proto.Node
	if cfg.IsMaster() {
		an = n.opts.Protocol.NewMaster(cfg)
	} else {
		an = n.opts.Protocol.NewSlave(cfg)
	}
	ne := &nodeEnv{n: n, tid: tid, spec: spec, an: an}
	n.nodes[tid] = ne

	info := &TxnInfo{
		TID: tid, Master: spec.master,
		Sites:       append([]proto.SiteID(nil), spec.sites...),
		State:       "q",
		startedWall: time.Now(),
		shard:       payloadShard(n.opts.Placement, spec.payload),
	}
	info.Started = cfg.IsMaster() || firstMsg != nil
	n.mu.Lock()
	n.txns[tid] = info
	n.mu.Unlock()

	ne.an.Start(ne)
	if firstMsg != nil {
		ne.an.OnMsg(ne, *firstMsg)
	}
	n.syncState(tid)
}

// answerInquiry replies to a recovery inquiry from durable state; an
// undecided (or unknown) transaction is silence, bounded by the asker's
// timeout — volatile automaton state is not authoritative.
func (n *Node) answerInquiry(m proto.Msg) {
	o, ok := n.eng.Outcome(uint64(m.TID))
	if !ok || o == proto.None {
		return
	}
	kind := proto.MsgCommit
	if o == proto.Abort {
		kind = proto.MsgAbort
	}
	n.tr.Send(proto.Msg{TID: m.TID, From: n.opts.ID, To: m.From, Kind: kind})
}

type inqReply struct {
	o  proto.Outcome
	ok bool
}

// completeInquiry routes a delivery to this site's pending inquiry, if
// one matches: a decision message answers it, the undeliverable return of
// the inquiry itself marks the peer unreachable.
func (n *Node) completeInquiry(m proto.Msg) bool {
	n.mu.Lock()
	ch := n.inq[m.TID]
	n.mu.Unlock()
	if ch == nil {
		return false
	}
	var r inqReply
	switch {
	case m.Undeliverable && m.Kind == proto.MsgInquire:
		r = inqReply{ok: false}
	case !m.Undeliverable && m.Kind == proto.MsgCommit:
		r = inqReply{o: proto.Commit, ok: true}
	case !m.Undeliverable && m.Kind == proto.MsgAbort:
		r = inqReply{o: proto.Abort, ok: true}
	default:
		return false
	}
	select {
	case ch <- r:
	default: // a reply already arrived; drop the duplicate
	}
	return true
}

func (n *Node) markStarted(tid proto.TxnID) {
	n.mu.Lock()
	if info := n.txns[tid]; info != nil {
		info.Started = true
	}
	n.mu.Unlock()
}

// syncState mirrors the automaton's state name into the API-visible
// bookkeeping; automata themselves are loop-goroutine-only.
func (n *Node) syncState(tid proto.TxnID) {
	ne := n.nodes[tid]
	if ne == nil {
		return
	}
	state := ne.an.State()
	var from string
	n.mu.Lock()
	if info := n.txns[tid]; info != nil {
		from = info.State
		info.State = state
	}
	n.mu.Unlock()
	if from != "" && from != state {
		n.trace(trace.Event{
			At: nowTicks(), Kind: trace.Transition, Site: int(n.opts.ID),
			TID: uint64(tid), FromState: from, ToState: state,
		})
	}
}

// trace appends one event to the recorder under recMu; a no-op when
// tracing is off. Safe from any goroutine — the transport emits wire
// events from its timer and connection goroutines.
func (n *Node) trace(ev trace.Event) {
	if n.rec == nil {
		return
	}
	n.recMu.Lock()
	n.rec.Append(ev)
	n.recMu.Unlock()
}

// nowTicks is wall time in the net backend's ticks (1µs).
func nowTicks() sim.Time { return sim.Time(time.Now().UnixMicro()) }

// payloadShard attributes a transaction body to the shard of its first
// data key (meta keys and epoch markers skipped); 0 under full
// replication or for keyless payloads — the same attribution rule the
// engine and the cluster layer use.
func payloadShard(asg *placement.Assignment, payload []byte) int {
	if asg == nil || len(payload) == 0 {
		return 0
	}
	ops, err := engine.DecodeOps(payload)
	if err != nil {
		return 0
	}
	for _, op := range ops {
		if op.Kind == engine.OpEpoch || engine.IsMetaKey(op.Key) || op.Key == "" {
			continue
		}
		return asg.ShardOf(op.Key)
	}
	return 0
}

// observePrepared records the submit→voted edge of one transaction at
// this site into the phase="prepared" round histogram.
func (n *Node) observePrepared(tid proto.TxnID) {
	n.mu.Lock()
	info := n.txns[tid]
	var lat int64 = -1
	if info != nil && !info.startedWall.IsZero() {
		lat = time.Since(info.startedWall).Microseconds()
	}
	n.mu.Unlock()
	if lat >= 0 {
		n.obsPrepared.Observe(lat)
	}
}

// MetricsSnapshot returns a point-in-time snapshot of the node's
// registry — the payload of GET /metricsjson, and what the net backend
// merges into the cluster-level view.
func (n *Node) MetricsSnapshot() obs.Snapshot {
	if n.reg == nil {
		return obs.Snapshot{}
	}
	return n.reg.Snapshot()
}

// TraceEvents returns the recorded trace (nil when tracing is off).
// Stable only after Close.
func (n *Node) TraceEvents() []trace.Event {
	if n.rec == nil {
		return nil
	}
	n.recMu.Lock()
	defer n.recMu.Unlock()
	return n.rec.Events()
}

// netPeers is the node's recovery.PeerClient: outcome inquiries are real
// MsgInquire frames over the transport (subject to blocklists and dead
// peers), snapshot pulls go through the peer's admin API, gated by the
// same partition state.
type netPeers struct{ n *Node }

// Outcome implements recovery.PeerClient. 4T bounds the round trip:
// delays are <= T/2 each way and a bounced inquiry returns within 2T;
// silence past that is a crashed or undecided peer.
func (p netPeers) Outcome(peer proto.SiteID, tid uint64) (proto.Outcome, bool) {
	n := p.n
	key := proto.TxnID(tid)
	ch := make(chan inqReply, 1)
	n.mu.Lock()
	if n.inq[key] != nil {
		n.mu.Unlock()
		return proto.None, false
	}
	n.inq[key] = ch
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		delete(n.inq, key)
		n.mu.Unlock()
	}()
	n.tr.Send(proto.Msg{TID: key, From: n.opts.ID, To: peer, Kind: proto.MsgInquire})
	select {
	case r := <-ch:
		return r.o, r.ok
	case <-time.After(4 * n.opts.T):
		return proto.None, false
	case <-n.done:
		return proto.None, false
	}
}

// Snapshot implements recovery.PeerClient over the peer's admin API.
func (p netPeers) Snapshot(peer proto.SiteID) (map[string][]byte, map[string]bool, bool) {
	n := p.n
	if n.tr.Blocked(peer) {
		return nil, nil, false
	}
	addr := n.opts.APIPeers[peer]
	if addr == "" {
		return nil, nil, false
	}
	snap, unstable, err := NewClient(addr).Snapshot()
	if err != nil {
		return nil, nil, false
	}
	return snap, unstable, true
}

// --- proto.Env implementation (one per site, transaction) ---

// nodeEnv is one transaction's automaton at this site plus its timer.
type nodeEnv struct {
	n    *Node
	tid  proto.TxnID
	spec *startSpec
	an   proto.Node

	timerMu  sync.Mutex
	timer    *time.Timer
	timerGen int
}

// Self implements proto.Env.
func (e *nodeEnv) Self() proto.SiteID { return e.n.opts.ID }

// MasterID implements proto.Env.
func (e *nodeEnv) MasterID() proto.SiteID { return e.spec.master }

// Sites implements proto.Env.
func (e *nodeEnv) Sites() []proto.SiteID {
	return append([]proto.SiteID(nil), e.spec.sites...)
}

// Slaves implements proto.Env.
func (e *nodeEnv) Slaves() []proto.SiteID {
	out := make([]proto.SiteID, 0, len(e.spec.sites)-1)
	for _, id := range e.spec.sites {
		if id != e.spec.master {
			out = append(out, id)
		}
	}
	return out
}

// Now implements proto.Env, reporting wall time in sim ticks of 1µs.
func (e *nodeEnv) Now() sim.Time { return sim.Time(time.Now().UnixMicro()) }

// T implements proto.Env in the same 1µs ticks.
func (e *nodeEnv) T() sim.Duration {
	return sim.Duration(e.n.opts.T / time.Microsecond)
}

// Send implements proto.Env. A MsgXact payload is wrapped in the wire
// envelope: over TCP the transaction message itself must carry the
// roster, master and scripted no-votes to the slave.
func (e *nodeEnv) Send(to proto.SiteID, kind proto.Kind, payload []byte) {
	if to == e.n.opts.ID {
		return
	}
	if kind == proto.MsgXact {
		payload = EncodeXact(XactEnvelope{
			Master:  e.spec.master,
			Sites:   e.spec.sites,
			NoVotes: noVoteList(e.spec.noVotes),
			Body:    payload,
		})
	}
	e.n.tr.Send(proto.Msg{
		TID: e.tid, From: e.n.opts.ID, To: to, Kind: kind, Payload: payload,
	})
}

// SendAll implements proto.Env: broadcast to the transaction's roster.
func (e *nodeEnv) SendAll(kind proto.Kind, payload []byte) {
	for _, id := range e.spec.sites {
		if id != e.n.opts.ID {
			e.Send(id, kind, payload)
		}
	}
}

// ResetTimer implements proto.Env with a wall-clock timer whose expiry is
// serialized through the node's inbox.
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
		if live {
			e.n.enqueue(event{tid: e.tid, timeout: true})
		}
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

// Execute implements proto.Env. A scripted no-vote (evaluated by the
// submitting client, shipped in the envelope) models a site-local
// failure and takes precedence; an empty payload has no database ops and
// votes yes; anything else executes on the engine, which logs the roster
// with its begin record for recovery.
func (e *nodeEnv) Execute(payload []byte) bool {
	e.n.markStarted(e.tid)
	vote := true
	switch {
	case e.spec.noVotes[e.n.opts.ID]:
		vote = false
	case len(payload) == 0:
	default:
		vote = e.n.eng.ExecuteAt(e.tid, payload, e.spec.sites)
	}
	if vote {
		e.n.observePrepared(e.tid)
	}
	return vote
}

// Decide implements proto.Env: the decision goes to the engine first
// (forced to the WAL, so inquiries answered from durable state are
// correct) and the bookkeeping second.
func (e *nodeEnv) Decide(o proto.Outcome) {
	n := e.n
	n.mu.Lock()
	info := n.txns[e.tid]
	dup := info != nil && info.Outcome != proto.None
	n.mu.Unlock()
	if dup {
		return
	}
	if o == proto.Commit {
		n.eng.Commit(e.tid)
	} else {
		n.eng.Abort(e.tid)
	}
	var lat int64 = -1
	shard := 0
	n.mu.Lock()
	if info != nil && info.Outcome == proto.None {
		info.Outcome = o
		info.DecidedAt = time.Now()
		shard = info.shard
		if !info.startedWall.IsZero() {
			lat = info.DecidedAt.Sub(info.startedWall).Microseconds()
		}
	}
	n.mu.Unlock()
	if lat >= 0 {
		n.obsDecided.Observe(lat)
		if o == proto.Commit {
			n.obsShardCommit.At(shard).Observe(lat)
		}
	}
	n.trace(trace.Event{
		At: nowTicks(), Kind: trace.Decide, Site: int(n.opts.ID),
		TID: uint64(e.tid), Outcome: o.String(),
	})
}

// Tracef implements proto.Env.
func (e *nodeEnv) Tracef(format string, args ...any) {
	e.n.opts.Logf("txn %d: "+format, append([]any{e.tid}, args...)...)
}

var _ proto.Env = (*nodeEnv)(nil)

func noVoteList(set map[proto.SiteID]bool) []proto.SiteID {
	if len(set) == 0 {
		return nil
	}
	out := make([]proto.SiteID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sortSites(out)
	return out
}

func sortSites(ids []proto.SiteID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

func sortTxnInfos(infos []TxnInfo) {
	sort.Slice(infos, func(i, j int) bool { return infos[i].TID < infos[j].TID })
}
