package netnode

import (
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"termproto/internal/obs"
	"termproto/internal/proto"
	"termproto/internal/trace"
)

// transport is one site's TCP layer: a listener for inbound peer
// connections and one lazily-dialed outbound connection per peer. It
// reproduces the paper's network model with real sockets:
//
//   - each message is delayed by a uniform draw from [T/4, T/2) before it
//     is put on the wire, keeping worst-case delivery strictly inside the
//     paper's bound T (the rest of T is headroom for real socket and
//     scheduling latency);
//   - a link on the blocklist is a partition boundary: the optimistic
//     model turns the message around, and after another link delay the
//     sender receives its own copy marked undeliverable;
//   - a dead peer (refused dial, broken write) is silence — the message
//     is dropped without a return, because a site failure must be
//     indistinguishable from message loss (paper §7).
//
// Both ends of a link enforce the boundary, because the blocklists of a
// partition reach the sites one at a time. A sender that blocks the
// receiver turns the message around before writing it. A receiver that
// blocks the sender turns back every frame that still arrives — one the
// sender wrote before its own blocklist changed — by writing it back over
// the same connection, marked undeliverable (wire flag bit0), after
// another link delay; the sender's watch goroutine delivers that copy as
// the bounce. So every message in flight across the boundary returns to
// its sender, as the optimistic model requires, and none vanishes. Links
// stay open across blocklist changes, and a hello from a blocked peer is
// accepted, so a returned copy always has a way back.
type transport struct {
	self    proto.SiteID
	delayT  time.Duration
	peers   map[proto.SiteID]string
	deliver func(proto.Msg)
	logf    func(string, ...any)

	ln net.Listener

	mu      sync.Mutex
	rng     *rand.Rand
	out     map[proto.SiteID]*outConn
	inbound map[net.Conn]proto.SiteID
	blocked map[proto.SiteID]bool
	closed  bool

	wg sync.WaitGroup

	sent, delivered, bounced, dropped atomic.Uint64

	// Wire-level observability, resolved once by setMetrics: frame and
	// byte counters per direction. A nil *obs.Counter is inert, so the
	// hot path records unconditionally — an atomic add, no allocation.
	obsFramesSent, obsFramesRecv *obs.Counter
	obsBytesSent, obsBytesRecv   *obs.Counter

	// sink, when set, receives wire-level trace events (send, deliver,
	// bounce, drop) — the same vocabulary the simulator's network
	// records, so an exported trace checks with the same offline rules.
	sink func(trace.Event)
}

// outConn serializes writes on one outbound link.
type outConn struct {
	mu   sync.Mutex
	conn net.Conn
}

func newTransport(self proto.SiteID, t time.Duration, seed int64,
	peers map[proto.SiteID]string, deliver func(proto.Msg), logf func(string, ...any)) *transport {
	if seed == 0 {
		seed = 424242 + int64(self)
	}
	return &transport{
		self:    self,
		delayT:  t,
		peers:   peers,
		deliver: deliver,
		logf:    logf,
		rng:     rand.New(rand.NewSource(seed)),
		out:     make(map[proto.SiteID]*outConn),
		inbound: make(map[net.Conn]proto.SiteID),
		blocked: make(map[proto.SiteID]bool),
	}
}

// setTrace installs the wire-event sink. Call before listen; the sink
// must be safe for concurrent use (events come from timer and
// connection goroutines).
func (t *transport) setTrace(sink func(trace.Event)) {
	t.sink = sink
}

// wireEvent emits one wire-level trace event if a sink is installed.
// Cross is always true: these are inter-site messages by construction,
// matching the simulator's convention for site-to-site traffic.
func (t *transport) wireEvent(k trace.EventKind, site int, m proto.Msg, detail string) {
	if t.sink == nil {
		return
	}
	t.sink(trace.Event{
		At:      nowTicks(),
		Kind:    k,
		Site:    site,
		From:    int(m.From),
		To:      int(m.To),
		MsgKind: m.Kind.String(),
		TID:     uint64(m.TID),
		Cross:   true,
		Detail:  detail,
	})
}

// setMetrics resolves the transport's wire counters from the registry.
// Call before listen; nil clears them.
func (t *transport) setMetrics(r *obs.Registry) {
	if r == nil {
		t.obsFramesSent, t.obsFramesRecv = nil, nil
		t.obsBytesSent, t.obsBytesRecv = nil, nil
		return
	}
	t.obsFramesSent = r.Counter(obs.MNetFrames, obs.L("dir", "sent"))
	t.obsFramesRecv = r.Counter(obs.MNetFrames, obs.L("dir", "recv"))
	t.obsBytesSent = r.Counter(obs.MNetBytes, obs.L("dir", "sent"))
	t.obsBytesRecv = r.Counter(obs.MNetBytes, obs.L("dir", "recv"))
}

// listen binds the protocol listener and starts the accept loop,
// returning the bound address (useful with ":0").
func (t *transport) listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	t.ln = ln
	t.wg.Add(1)
	go t.acceptLoop()
	return ln.Addr().String(), nil
}

func (t *transport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.wg.Add(1)
		go t.serveConn(conn)
	}
}

// serveConn runs one inbound peer connection: hello, then frames until
// error or close. Frames from a blocked peer are returned, not delivered.
func (t *transport) serveConn(conn net.Conn) {
	defer t.wg.Done()
	defer conn.Close()
	peer, err := ReadHello(conn)
	if err != nil {
		t.logf("transport: rejected connection from %s: %v", conn.RemoteAddr(), err)
		return
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.inbound[conn] = peer
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
	}()
	// One scratch buffer serves every frame on this connection: DecodeMsg
	// copies the payload out, so the receive loop itself is allocation-free
	// once the buffer has grown to the connection's working frame size.
	var scratch []byte
	var wmu sync.Mutex // serializes returned frames on conn
	for {
		var body []byte
		var err error
		body, scratch, err = ReadFrameInto(conn, scratch)
		if err != nil {
			return
		}
		m, err := DecodeMsg(body)
		if err != nil {
			return
		}
		t.obsFramesRecv.Inc()
		t.obsBytesRecv.Add(uint64(len(body)) + 4)
		t.mu.Lock()
		closed := t.closed
		crossing := t.blocked[peer] || t.blocked[m.From]
		t.mu.Unlock()
		if closed {
			return
		}
		if crossing {
			t.turnBack(conn, &wmu, m)
			continue
		}
		t.delivered.Add(1)
		t.wireEvent(trace.Deliver, int(t.self), m, "")
		t.deliver(m)
	}
}

// turnBack returns a frame that arrived across the boundary to its sender:
// after one link delay, the copy marked undeliverable goes back over the
// connection it came on. A sender that has died meanwhile gets nothing,
// like any message to a dead site.
func (t *transport) turnBack(conn net.Conn, wmu *sync.Mutex, m proto.Msg) {
	ud := m
	ud.Undeliverable = true
	time.AfterFunc(t.delay(), func() {
		wmu.Lock()
		defer wmu.Unlock()
		if WriteMsg(conn, ud) == nil {
			t.countSent(ud)
		}
	})
}

// delay draws one link delay from [T/4, T/2).
func (t *transport) delay() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.delayT/4 + time.Duration(t.rng.Int63n(int64(t.delayT/4)+1))
}

// Send transmits one message with the model's link delay. Blocked links
// bounce an undeliverable copy back to the caller; dead peers are
// silence.
func (t *transport) Send(m proto.Msg) {
	t.sent.Add(1)
	t.wireEvent(trace.Send, int(t.self), m, "")
	d := t.delay()
	time.AfterFunc(d, func() {
		t.mu.Lock()
		crossing := t.blocked[m.To]
		closed := t.closed
		t.mu.Unlock()
		if closed {
			return
		}
		if crossing {
			ud := m
			ud.Undeliverable = true
			time.AfterFunc(d, func() { t.bounce(ud) })
			return
		}
		if err := t.write(m); err != nil {
			t.dropped.Add(1) // site failure is indistinguishable from message loss
			t.wireEvent(trace.Drop, int(m.To), m, "dead peer")
		}
	})
}

// bounce delivers the undeliverable copy of a message this site sent.
func (t *transport) bounce(ud proto.Msg) {
	t.mu.Lock()
	closed := t.closed
	t.mu.Unlock()
	if closed {
		return
	}
	t.bounced.Add(1)
	t.wireEvent(trace.Bounce, int(t.self), ud, "")
	t.deliver(ud)
}

// write puts one message on the outbound link to m.To, dialing if needed.
// A write failure on a cached connection gets one redial-and-retry: the
// link may have died since its last use (the peer crashed and was
// restarted), and a live replacement process at the same address deserves
// the message.
func (t *transport) write(m proto.Msg) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return net.ErrClosed
	}
	oc := t.out[m.To]
	if oc == nil {
		oc = &outConn{}
		t.out[m.To] = oc
	}
	addr := t.peers[m.To]
	t.mu.Unlock()

	oc.mu.Lock()
	defer oc.mu.Unlock()
	if oc.conn == nil {
		if err := t.redial(oc, addr); err != nil {
			return err
		}
	}
	if err := WriteMsg(oc.conn, m); err == nil {
		t.countSent(m)
		return nil
	}
	oc.conn.Close()
	oc.conn = nil
	if err := t.redial(oc, addr); err != nil {
		return err
	}
	if err := WriteMsg(oc.conn, m); err != nil {
		oc.conn.Close()
		oc.conn = nil
		return err
	}
	t.countSent(m)
	return nil
}

// countSent records one outbound frame. The frame size is reconstructed
// from the message (length prefix + fixed header + payload) rather than
// threaded back out of WriteMsg, keeping the write path's signature and
// allocation profile untouched.
func (t *transport) countSent(m proto.Msg) {
	t.obsFramesSent.Inc()
	t.obsBytesSent.Add(uint64(4 + msgHeadLen + len(m.Payload)))
}

// redial establishes a fresh outbound connection. Called with oc.mu held.
func (t *transport) redial(oc *outConn, addr string) error {
	conn, err := net.DialTimeout("tcp", addr, t.delayT*4+100*time.Millisecond)
	if err != nil {
		return err
	}
	if _, err := conn.Write(EncodeHello(t.self)); err != nil {
		conn.Close()
		return err
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		conn.Close()
		return net.ErrClosed
	}
	t.mu.Unlock()
	oc.conn = conn
	t.watch(oc, conn)
	return nil
}

// watch reads the frames a peer returns on an outbound connection — the
// undeliverable copies of messages that reached it across the boundary —
// and delivers each as a bounce. It also reaps the connection the moment
// the peer closes it: a failed read, or anything but a returned copy,
// means the connection is dead — the peer was killed or restarted.
// Clearing the cache makes the next write redial instead of burying the
// message in a half-closed socket; a restarted peer must be reachable for
// inquiry replies without waiting for a write error to surface.
func (t *transport) watch(oc *outConn, conn net.Conn) {
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		var scratch []byte
		for {
			var body []byte
			var err error
			body, scratch, err = ReadFrameInto(conn, scratch)
			if err != nil {
				break
			}
			ud, err := DecodeMsg(body)
			if err != nil || !ud.Undeliverable {
				break
			}
			t.obsFramesRecv.Inc()
			t.obsBytesRecv.Add(uint64(len(body)) + 4)
			t.bounce(ud)
		}
		conn.Close()
		oc.mu.Lock()
		if oc.conn == conn {
			oc.conn = nil
		}
		oc.mu.Unlock()
	}()
}

// SetBlocked replaces the blocklist. Live connections stay open: frames
// crossing a blocked link are turned back, not cut off.
func (t *transport) SetBlocked(peers []proto.SiteID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.blocked = make(map[proto.SiteID]bool, len(peers))
	for _, id := range peers {
		t.blocked[id] = true
	}
}

// Blocked reports whether the link to peer is currently blocked.
func (t *transport) Blocked(peer proto.SiteID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.blocked[peer]
}

// BlockedList returns the current blocklist in unspecified order.
func (t *transport) BlockedList() []proto.SiteID {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]proto.SiteID, 0, len(t.blocked))
	for id := range t.blocked {
		out = append(out, id)
	}
	return out
}

// Counters returns cumulative message counters.
func (t *transport) Counters() (sent, delivered, bounced, dropped uint64) {
	return t.sent.Load(), t.delivered.Load(), t.bounced.Load(), t.dropped.Load()
}

// Close shuts the listener and every connection. In-flight delayed sends
// observe closed and become no-ops.
func (t *transport) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	ocs := make([]*outConn, 0, len(t.out))
	for _, oc := range t.out {
		ocs = append(ocs, oc)
	}
	conns := make([]net.Conn, 0, len(t.inbound))
	for conn := range t.inbound {
		conns = append(conns, conn)
	}
	t.mu.Unlock()
	if t.ln != nil {
		t.ln.Close()
	}
	for _, oc := range ocs {
		oc.mu.Lock()
		if oc.conn != nil {
			oc.conn.Close()
			oc.conn = nil
		}
		oc.mu.Unlock()
	}
	for _, conn := range conns {
		conn.Close()
	}
	t.wg.Wait()
}
