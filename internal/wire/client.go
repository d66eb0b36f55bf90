package wire

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jmsharness/internal/jms"
	"jmsharness/internal/obs"
	"jmsharness/internal/stats"
)

// ErrCallTimeout marks a wire call that exceeded the factory's call
// timeout (WithCallTimeout): the server or the link stalled past the
// deadline, so the call was abandoned and its transport discarded.
var ErrCallTimeout = errors.New("wire: call timeout")

// ErrTxInterrupted marks a transacted session whose connection was
// lost mid-transaction: the staged work died with the server-side
// session, so the commit outcome is "rolled back" — the caller must
// treat the transaction as aborted and replay it if needed.
var ErrTxInterrupted = errors.New("wire: transaction interrupted by connection loss; treat as rolled back")

// errConnLost is the internal marker for a round trip that died with
// its transport. With reconnection enabled, retryable calls wait for a
// fresh transport and re-issue; otherwise it surfaces as jms.ErrClosed.
var errConnLost = errors.New("wire: connection lost")

// ReconnectPolicy configures automatic client-side reconnection.
// When enabled, a lost TCP connection is redialed with capped
// exponential backoff plus seeded jitter, and the connection's logical
// state — client ID, sessions, consumers, durable subscribers, started
// flag — is re-established on the new socket before calls resume.
// Non-transacted sends carry idempotency tokens so a retried send
// whose reply was lost cannot duplicate the message (Property 1 holds
// across resets); in-flight transactions are poisoned instead
// (ErrTxInterrupted), because their staged work died with the server
// connection.
type ReconnectPolicy struct {
	// Enabled turns reconnection on. Off (the default), a connection
	// loss is terminal, as a fail-fast harness expects.
	Enabled bool
	// MaxAttempts bounds redials per outage; zero means 8.
	MaxAttempts int
	// InitialBackoff is the first redial delay; zero means 10ms. Each
	// attempt doubles it, capped at MaxBackoff, plus uniform jitter of
	// up to one backoff step.
	InitialBackoff time.Duration
	// MaxBackoff caps the backoff; zero means 1s.
	MaxBackoff time.Duration
	// Seed drives the jitter generator.
	Seed uint64
}

func (p ReconnectPolicy) withDefaults() ReconnectPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 8
	}
	if p.InitialBackoff <= 0 {
		p.InitialBackoff = 10 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = time.Second
	}
	return p
}

// Factory implements jms.ConnectionFactory over the wire protocol: each
// CreateConnection dials one TCP connection to the broker server. It is
// the client half of the protocol bridge — to the harness it is
// indistinguishable from an in-process provider.
type Factory struct {
	addr        string
	dialTimeout time.Duration
	callTimeout time.Duration
	reconnect   ReconnectPolicy
	spans       obs.SpanRecorder
	pipeWindow  int

	reconnects atomic.Int64
}

// NewFactory returns a factory connecting to the broker server at addr.
func NewFactory(addr string) *Factory {
	return &Factory{addr: addr, dialTimeout: 5 * time.Second}
}

// WithCallTimeout bounds every request/reply round trip (receives get
// their server-side wait added on top). Zero, the default, means calls
// wait indefinitely. Returns the factory for chaining.
func (f *Factory) WithCallTimeout(d time.Duration) *Factory {
	f.callTimeout = d
	return f
}

// WithReconnect installs a reconnection policy (see ReconnectPolicy).
// Returns the factory for chaining.
func (f *Factory) WithReconnect(p ReconnectPolicy) *Factory {
	f.reconnect = p.withDefaults()
	f.reconnect.Enabled = p.Enabled
	return f
}

// WithSpans records a send-RPC hop span (wire round-trip time) for
// every producer send through this factory's connections. Trace
// context is stamped on outgoing messages regardless; the recorder
// only adds the client-side span. Returns the factory for chaining.
func (f *Factory) WithSpans(rec obs.SpanRecorder) *Factory {
	f.spans = rec
	return f
}

// WithPipelining enables credit-windowed pipelined sends on this
// factory's connections: non-transacted producers stream up to window
// uncompleted sends over the wire and collect completions
// asynchronously (see jms.AsyncProducer), instead of paying one
// blocking round trip per message. A window of 1 degenerates to
// blocking-send semantics; 0 (the default) disables pipelining
// entirely. The server may grant a smaller window than requested.
// Durability guarantees are unchanged — a completion resolves only
// after the provider has made the send durable — and reconnection
// replays the unacked window with its original idempotency tokens, so
// resets cannot duplicate messages. Returns the factory for chaining.
func (f *Factory) WithPipelining(window int) *Factory {
	if window < 0 {
		window = 0
	}
	if window > pipeMaxWindow {
		window = pipeMaxWindow
	}
	f.pipeWindow = window
	return f
}

// Reconnects reports how many successful reconnections this factory's
// connections have performed.
func (f *Factory) Reconnects() int64 { return f.reconnects.Load() }

var _ jms.ConnectionFactory = (*Factory)(nil)

// clientUIDBase namespaces send-dedup tokens across processes sharing
// one server; clientConnSeq disambiguates connections within a process
// (package-global, NOT per-factory — distinct factories sharing one
// server must never mint colliding tokens).
var (
	clientUIDBase = time.Now().UnixNano()
	clientConnSeq atomic.Uint64
)

// CreateConnection implements jms.ConnectionFactory.
func (f *Factory) CreateConnection() (jms.Connection, error) {
	sock, err := net.DialTimeout("tcp", f.addr, f.dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("wire: dialing %s: %w", f.addr, err)
	}
	seq := clientConnSeq.Add(1)
	c := &clientConn{
		f:         f,
		seq:       seq,
		uid:       strconv.FormatInt(clientUIDBase, 36) + "-" + strconv.FormatUint(seq, 36),
		wake:      make(chan struct{}),
		sessions:  map[*clientSession]struct{}{},
		pipes:     map[*clientPipe]struct{}{},
		pipesByID: map[uint64]*clientPipe{},
	}
	c.acks = &ackBatcher{c: c}
	tr := newTransport(sock)
	c.tr = tr
	go tr.readLoop(c)
	return c, nil
}

// mapError rehydrates well-known provider errors from their wire string
// form so errors.Is works across the protocol boundary.
func mapError(msg string) error {
	known := []error{
		jms.ErrClosed, jms.ErrNotTransacted, jms.ErrTransacted,
		jms.ErrClientIDInUse, jms.ErrNoClientID, jms.ErrDurableActive,
		jms.ErrUnknownSubscription, jms.ErrInvalidDestination,
		jms.ErrInvalidSelector, jms.ErrInvalidArgument, jms.ErrOverloaded,
	}
	for _, e := range known {
		if strings.Contains(msg, e.Error()) {
			return fmt.Errorf("%w (remote: %s)", e, msg)
		}
	}
	return errors.New(msg)
}

// transport is one live TCP socket with its in-flight request table.
// A clientConn owns at most one transport at a time; reconnection
// replaces a failed transport with a fresh one.
type transport struct {
	sock net.Conn
	fw   *frameWriter // serialises request frames onto sock

	mu      sync.Mutex
	nextReq uint64
	pending map[uint64]chan reply
	failed  bool
}

func newTransport(sock net.Conn) *transport {
	return &transport{sock: sock, fw: newFrameWriter(sock), pending: map[uint64]chan reply{}}
}

// readLoop dispatches server frames — request replies to their waiting
// callers, pipelined-send completion batches to their pipes — and
// reports transport death to the owning connection.
func (t *transport) readLoop(c *clientConn) {
	for {
		payload, err := ReadFrame(t.sock)
		if err != nil {
			break
		}
		if len(payload) > 0 && payload[0] == opPipeCompletion {
			if c.applyPipeCompletions(payload) != nil {
				break
			}
			continue
		}
		rep, err := decodeReply(payload)
		if err != nil {
			break
		}
		t.mu.Lock()
		ch, ok := t.pending[rep.reqID]
		delete(t.pending, rep.reqID)
		t.mu.Unlock()
		if ok {
			ch <- rep
		}
	}
	t.fail()
	c.transportLost(t)
}

// fail closes the socket and releases every in-flight call with a
// lost-marker reply. Idempotent.
func (t *transport) fail() {
	t.mu.Lock()
	if t.failed {
		t.mu.Unlock()
		return
	}
	t.failed = true
	pending := t.pending
	t.pending = map[uint64]chan reply{}
	t.mu.Unlock()
	_ = t.sock.Close()
	for _, ch := range pending {
		ch <- reply{lost: true}
	}
}

// register allocates a request ID and its reply channel; ok is false
// when the transport has already failed.
func (t *transport) register() (reqID uint64, ch chan reply, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.failed {
		return 0, nil, false
	}
	t.nextReq++
	ch = make(chan reply, 1)
	t.pending[t.nextReq] = ch
	return t.nextReq, ch, true
}

func (t *transport) unregister(reqID uint64) {
	t.mu.Lock()
	delete(t.pending, reqID)
	t.mu.Unlock()
}

// roundTrip performs one request/reply exchange on tr. timer, when
// non-nil, bounds the whole exchange. Returns errConnLost when the
// transport died under the call and ErrCallTimeout when timer fired.
func roundTrip(tr *transport, op byte, build func(*jms.Encoder), timer <-chan time.Time) (reply, error) {
	reqID, ch, ok := tr.register()
	if !ok {
		return reply{}, errConnLost
	}
	if err := tr.fw.writeRequest(op, reqID, build); err != nil {
		tr.unregister(reqID)
		tr.fail()
		return reply{}, errConnLost
	}
	select {
	case rep := <-ch:
		if rep.lost {
			return reply{}, errConnLost
		}
		return rep, nil
	case <-timer:
		tr.unregister(reqID)
		return reply{}, ErrCallTimeout
	}
}

// clientConn implements jms.Connection. Its transport may be replaced
// across reconnections; logical state (client ID, sessions, consumers)
// lives here and is re-established onto each new transport.
type clientConn struct {
	f   *Factory
	seq uint64
	uid string // namespaces this connection's send-dedup tokens

	acks *ackBatcher // coalesces session acknowledgements

	mu           sync.Mutex
	tr           *transport    // nil while disconnected
	wake         chan struct{} // closed and replaced on every state change
	closed       bool          // Close was called
	dead         error         // terminal failure; set once
	reconnecting bool
	clientID     string
	started      bool
	sessions     map[*clientSession]struct{}
	pipes        map[*clientPipe]struct{} // every pipe ever opened
	pipesByID    map[uint64]*clientPipe   // by current server pipe ID

	sendSeq atomic.Uint64
}

// registerPipe records a pipe's current server-side identity. The lock
// order is pipe.mu before conn.mu throughout the pipe code.
func (c *clientConn) registerPipe(pp *clientPipe, id uint64) {
	c.mu.Lock()
	c.pipes[pp] = struct{}{}
	c.pipesByID[id] = pp
	c.mu.Unlock()
}

// unregisterPipe drops a dead transport's pipe ID binding.
func (c *clientConn) unregisterPipe(id uint64, pp *clientPipe) {
	c.mu.Lock()
	if c.pipesByID[id] == pp {
		delete(c.pipesByID, id)
	}
	c.mu.Unlock()
}

// snapshotPipes lists the connection's pipes. Callers must not hold
// c.mu-ordered locks (see registerPipe).
func (c *clientConn) snapshotPipes() []*clientPipe {
	c.mu.Lock()
	defer c.mu.Unlock()
	pipes := make([]*clientPipe, 0, len(c.pipes))
	for pp := range c.pipes {
		pipes = append(pipes, pp)
	}
	return pipes
}

// applyPipeCompletions settles the entries of one opPipeCompletion
// frame. A non-nil return kills the transport (malformed frame).
func (c *clientConn) applyPipeCompletions(payload []byte) error {
	return decodePipeCompletions(payload, func(pc pipeCompletion) {
		c.mu.Lock()
		pp := c.pipesByID[pc.pipeID]
		c.mu.Unlock()
		if pp == nil {
			return // completion for a pipe of a dead incarnation
		}
		if pc.errMsg != "" {
			pp.complete(pc.seq, mapError(pc.errMsg), sendStamp{})
			return
		}
		pp.complete(pc.seq, nil, pc.stamp)
	})
}

var _ jms.Connection = (*clientConn)(nil)

// wakeLocked signals every state-change waiter. Callers hold mu.
func (c *clientConn) wakeLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

func (c *clientConn) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// transportLost records the death of tr. Without reconnection the
// connection dies with it (the seed's fail-fast semantics); with it, a
// single reconnect loop is started per outage. Pipes opened on tr are
// detached (their in-flight window survives for replay); if the loss
// is terminal, every in-flight pipelined send fails.
func (c *clientConn) transportLost(tr *transport) {
	c.mu.Lock()
	if c.tr == tr {
		c.tr = nil
		c.wakeLocked()
	}
	var terminal error
	switch {
	case c.closed:
		terminal = jms.ErrClosed
	case c.dead != nil:
		terminal = c.dead
	case !c.f.reconnect.Enabled:
		c.dead = fmt.Errorf("wire: connection lost: %w", jms.ErrClosed)
		terminal = c.dead
		c.wakeLocked()
	case !c.reconnecting:
		c.reconnecting = true
		go c.reconnectLoop()
	}
	c.mu.Unlock()
	for _, pp := range c.snapshotPipes() {
		pp.detach(tr)
		if terminal != nil {
			pp.failAll(terminal)
		}
	}
}

// fatal marks the connection permanently failed.
func (c *clientConn) fatal(err error) {
	c.mu.Lock()
	if c.dead == nil {
		c.dead = err
	}
	dead := c.dead
	c.reconnecting = false
	c.wakeLocked()
	c.mu.Unlock()
	for _, pp := range c.snapshotPipes() {
		pp.failAll(dead)
	}
}

// reconnectLoop redials with capped exponential backoff plus seeded
// jitter, re-establishes the connection's logical state on the new
// socket, and publishes the new transport. Exhausting the attempt
// budget is terminal.
func (c *clientConn) reconnectLoop() {
	pol := c.f.reconnect
	rng := stats.NewRNG(pol.Seed ^ (c.seq * 0x9E3779B97F4A7C15))
	backoff := pol.InitialBackoff
	var lastErr error
	for attempt := 1; attempt <= pol.MaxAttempts; attempt++ {
		if c.isClosed() {
			return
		}
		sock, err := net.DialTimeout("tcp", c.f.addr, c.f.dialTimeout)
		if err == nil {
			tr := newTransport(sock)
			go tr.readLoop(c)
			if err = c.reestablish(tr); err == nil {
				c.mu.Lock()
				if c.closed {
					c.mu.Unlock()
					tr.fail()
					return
				}
				c.tr = tr
				c.reconnecting = false
				c.wakeLocked()
				c.mu.Unlock()
				c.f.reconnects.Add(1)
				return
			}
			tr.fail()
		}
		lastErr = err
		if attempt == pol.MaxAttempts {
			break
		}
		// Jittered, capped exponential backoff. Transient re-establish
		// failures (e.g. the server still tearing down the old
		// connection's client ID or durable subscription) retry too.
		time.Sleep(backoff + time.Duration(rng.Float64()*float64(backoff)))
		if backoff *= 2; backoff > pol.MaxBackoff {
			backoff = pol.MaxBackoff
		}
	}
	c.fatal(fmt.Errorf("wire: reconnect to %s failed after %d attempts (%v): %w",
		c.f.addr, pol.MaxAttempts, lastErr, jms.ErrClosed))
}

// reestablish replays the connection's logical state onto a fresh
// transport: client ID, every open session, every consumer and durable
// subscriber, and the started flag. Dirty transactions are poisoned
// (their staged work died with the old server-side session); consumers
// of temporary queues are marked lost (temp queues are owned by the
// dead server-side connection).
func (c *clientConn) reestablish(tr *transport) error {
	timeout := c.f.callTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	raw := func(op byte, build func(*jms.Encoder)) (reply, error) {
		tm := time.NewTimer(timeout)
		defer tm.Stop()
		rep, err := roundTrip(tr, op, build, tm.C)
		if err != nil {
			return reply{}, err
		}
		if rep.err != "" {
			return reply{}, mapError(rep.err)
		}
		return rep, nil
	}
	c.mu.Lock()
	clientID := c.clientID
	started := c.started
	sessions := make([]*clientSession, 0, len(c.sessions))
	for s := range c.sessions {
		sessions = append(sessions, s)
	}
	c.mu.Unlock()
	if clientID != "" {
		if _, err := raw(opSetClientID, func(e *jms.Encoder) { e.String(clientID) }); err != nil {
			return fmt.Errorf("restoring client ID: %w", err)
		}
	}
	for _, s := range sessions {
		if err := s.reestablish(raw); err != nil {
			return err
		}
	}
	// Pipes replay after sessions (a pipe addresses its session's new
	// incarnation): each re-opens and re-sends its unacked window with
	// the original dedup tokens, so sends that reached the provider
	// before the reset settle from the dedup cache instead of applying
	// twice.
	for _, pp := range c.snapshotPipes() {
		if err := pp.reestablish(tr, raw); err != nil {
			return err
		}
	}
	if started {
		if _, err := raw(opStart, nil); err != nil {
			return fmt.Errorf("restarting connection: %w", err)
		}
	}
	return nil
}

// awaitTransport returns the live transport, blocking through an
// in-progress reconnection. timer, when non-nil, bounds the wait.
func (c *clientConn) awaitTransport(timer <-chan time.Time) (*transport, error) {
	for {
		c.mu.Lock()
		switch {
		case c.closed:
			c.mu.Unlock()
			return nil, jms.ErrClosed
		case c.dead != nil:
			err := c.dead
			c.mu.Unlock()
			return nil, err
		case c.tr != nil:
			tr := c.tr
			c.mu.Unlock()
			return tr, nil
		}
		wake := c.wake
		c.mu.Unlock()
		select {
		case <-wake:
		case <-timer:
			return nil, fmt.Errorf("%w: waiting for reconnection", ErrCallTimeout)
		}
	}
}

// call performs one request/reply round trip. retry marks the
// operation safe to re-issue on a fresh transport after a connection
// loss (everything except Commit: a lost commit's outcome is unknown,
// and retrying would commit an empty transaction while the real one
// was rolled back). extra widens the call deadline for operations with
// a legitimate server-side wait (blocking receives).
func (c *clientConn) call(op byte, build func(*jms.Encoder), retry bool, extra time.Duration) (reply, error) {
	var timer <-chan time.Time
	if ct := c.f.callTimeout; ct > 0 {
		tm := time.NewTimer(ct + extra)
		defer tm.Stop()
		timer = tm.C
	}
	for {
		tr, err := c.awaitTransport(timer)
		if err != nil {
			return reply{}, err
		}
		rep, err := roundTrip(tr, op, build, timer)
		switch {
		case err == nil:
			if rep.err != "" {
				return reply{}, mapError(rep.err)
			}
			return rep, nil
		case errors.Is(err, errConnLost):
			// Clear the dead transport now (the readLoop's own report
			// may still be in flight) so the retry waits instead of
			// spinning on the corpse.
			c.transportLost(tr)
			if retry && c.f.reconnect.Enabled {
				continue
			}
			return reply{}, fmt.Errorf("wire: connection lost: %w", jms.ErrClosed)
		default:
			// Call timeout: the transport may deliver this reply
			// arbitrarily late, so it cannot be trusted for later
			// calls — kill it and let reconnection (if enabled) build
			// a fresh one.
			tr.fail()
			return reply{}, fmt.Errorf("%w: op %d after %v", ErrCallTimeout, op, c.f.callTimeout+extra)
		}
	}
}

// callOK performs a round trip that carries no reply body.
func (c *clientConn) callOK(op byte, build func(*jms.Encoder), retry bool) error {
	_, err := c.call(op, build, retry, 0)
	return err
}

// SetClientID implements jms.Connection.
func (c *clientConn) SetClientID(id string) error {
	if err := c.callOK(opSetClientID, func(e *jms.Encoder) { e.String(id) }, true); err != nil {
		return err
	}
	c.mu.Lock()
	c.clientID = id
	c.mu.Unlock()
	return nil
}

// ClientID implements jms.Connection.
func (c *clientConn) ClientID() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.clientID
}

// CreateSession implements jms.Connection.
func (c *clientConn) CreateSession(transacted bool, ackMode jms.AckMode) (jms.Session, error) {
	if !transacted && !ackMode.Valid() {
		return nil, fmt.Errorf("%w: ack mode %d", jms.ErrInvalidArgument, ackMode)
	}
	rep, err := c.call(opCreateSession, func(e *jms.Encoder) {
		e.Bool(transacted)
		e.Byte(byte(ackMode))
	}, true, 0)
	if err != nil {
		return nil, err
	}
	id := rep.body.Uvarint()
	if err := rep.body.Err(); err != nil {
		return nil, fmt.Errorf("wire: decoding session reply: %w", err)
	}
	s := &clientSession{conn: c, transacted: transacted, ackMode: ackMode, consumers: map[*clientConsumer]struct{}{}}
	s.id.Store(id)
	c.mu.Lock()
	c.sessions[s] = struct{}{}
	c.mu.Unlock()
	return s, nil
}

// Start implements jms.Connection.
func (c *clientConn) Start() error {
	if err := c.callOK(opStart, nil, true); err != nil {
		return err
	}
	c.mu.Lock()
	c.started = true
	c.mu.Unlock()
	return nil
}

// Stop implements jms.Connection.
func (c *clientConn) Stop() error {
	if err := c.callOK(opStop, nil, true); err != nil {
		return err
	}
	c.mu.Lock()
	c.started = false
	c.mu.Unlock()
	return nil
}

// Close implements jms.Connection.
func (c *clientConn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	tr := c.tr
	c.tr = nil
	c.wakeLocked()
	c.mu.Unlock()
	if tr != nil {
		// Best effort: tell the server, then tear down locally.
		tm := time.NewTimer(time.Second)
		_, _ = roundTrip(tr, opCloseConn, nil, tm.C)
		tm.Stop()
		tr.fail()
	}
	for _, pp := range c.snapshotPipes() {
		pp.failAll(jms.ErrClosed)
	}
	return nil
}

// clientSession implements jms.Session over the wire. Its server-side
// ID is re-assigned on every reconnection; frame builders load it at
// build time so a retried call addresses the current incarnation.
type clientSession struct {
	conn       *clientConn
	transacted bool
	ackMode    jms.AckMode
	id         atomic.Uint64
	// epoch counts re-establishments; a frame builder that loads id
	// loads epoch with it to learn which incarnation it addressed.
	epoch atomic.Uint64

	mu        sync.Mutex
	closed    bool
	txDirty   bool // transacted: work staged in the open transaction
	txBroken  bool // transacted: the open transaction died with a transport
	consumers map[*clientConsumer]struct{}
}

var _ jms.Session = (*clientSession)(nil)

// Transacted implements jms.Session.
func (s *clientSession) Transacted() bool { return s.transacted }

// AckMode implements jms.Session.
func (s *clientSession) AckMode() jms.AckMode { return s.ackMode }

func (s *clientSession) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// markDirty records transacted work staged on the server.
func (s *clientSession) markDirty() {
	if !s.transacted {
		return
	}
	s.mu.Lock()
	s.txDirty = true
	s.mu.Unlock()
}

// reestablish recreates this session (and its consumers) on a fresh
// transport, poisoning any open transaction.
func (s *clientSession) reestablish(raw func(byte, func(*jms.Encoder)) (reply, error)) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	if s.transacted && s.txDirty {
		s.txBroken = true
		s.txDirty = false
	}
	consumers := make([]*clientConsumer, 0, len(s.consumers))
	for cc := range s.consumers {
		consumers = append(consumers, cc)
	}
	s.mu.Unlock()
	rep, err := raw(opCreateSession, func(e *jms.Encoder) {
		e.Bool(s.transacted)
		e.Byte(byte(s.ackMode))
	})
	if err != nil {
		return fmt.Errorf("recreating session: %w", err)
	}
	id := rep.body.Uvarint()
	if err := rep.body.Err(); err != nil {
		return fmt.Errorf("wire: decoding session reply: %w", err)
	}
	s.id.Store(id)
	s.epoch.Add(1)
	for _, cc := range consumers {
		if err := cc.reestablish(raw); err != nil {
			return err
		}
	}
	return nil
}

// CreateProducer implements jms.Session. Producers are client-side
// objects; the server creates its producer lazily on first send.
func (s *clientSession) CreateProducer(dest jms.Destination) (jms.Producer, error) {
	if s.isClosed() {
		return nil, jms.ErrClosed
	}
	return &clientProducer{sess: s, dest: dest}, nil
}

// CreateConsumer implements jms.Session.
func (s *clientSession) CreateConsumer(dest jms.Destination) (jms.Consumer, error) {
	return s.CreateConsumerWithSelector(dest, "")
}

// CreateConsumerWithSelector implements jms.Session.
func (s *clientSession) CreateConsumerWithSelector(dest jms.Destination, selectorExpr string) (jms.Consumer, error) {
	if dest == nil {
		return nil, fmt.Errorf("%w: nil destination", jms.ErrInvalidDestination)
	}
	return s.createConsumer(dest, false, "", selectorExpr)
}

// CreateDurableSubscriber implements jms.Session.
func (s *clientSession) CreateDurableSubscriber(topic jms.Topic, name string) (jms.Consumer, error) {
	return s.createConsumer(topic, true, name, "")
}

// CreateDurableSubscriberWithSelector implements jms.Session.
func (s *clientSession) CreateDurableSubscriberWithSelector(topic jms.Topic, name, selectorExpr string) (jms.Consumer, error) {
	return s.createConsumer(topic, true, name, selectorExpr)
}

func (s *clientSession) createConsumer(dest jms.Destination, durable bool, subName, selectorExpr string) (jms.Consumer, error) {
	if s.isClosed() {
		return nil, jms.ErrClosed
	}
	rep, err := s.conn.call(opCreateConsumer, func(e *jms.Encoder) {
		e.Uvarint(s.id.Load())
		e.String(dest.String())
		e.Bool(durable)
		e.String(subName)
		e.String(selectorExpr)
	}, true, 0)
	if err != nil {
		return nil, err
	}
	id := rep.body.Uvarint()
	endpoint := rep.body.String()
	if err := rep.body.Err(); err != nil {
		return nil, fmt.Errorf("wire: decoding consumer reply: %w", err)
	}
	cc := &clientConsumer{
		sess: s, dest: dest, durable: durable, subName: subName,
		selector: selectorExpr, endpoint: endpoint, done: make(chan struct{}),
	}
	cc.id.Store(id)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, jms.ErrClosed
	}
	s.consumers[cc] = struct{}{}
	s.mu.Unlock()
	return cc, nil
}

// CreateTemporaryQueue implements jms.Session. The temporary queue is
// owned by this client's server-side connection and is deleted when the
// connection closes (including a connection lost to a network fault —
// reconnection does not restore temporary queues).
func (s *clientSession) CreateTemporaryQueue() (jms.Queue, error) {
	if s.isClosed() {
		return "", jms.ErrClosed
	}
	rep, err := s.conn.call(opCreateTempQueue, func(e *jms.Encoder) { e.Uvarint(s.id.Load()) }, true, 0)
	if err != nil {
		return "", err
	}
	name := rep.body.String()
	if err := rep.body.Err(); err != nil {
		return "", fmt.Errorf("wire: decoding temp-queue reply: %w", err)
	}
	return jms.Queue(name), nil
}

// CreateBrowser implements jms.Session. Each Enumerate is one browse
// round trip; the snapshot is taken server-side.
func (s *clientSession) CreateBrowser(queue jms.Queue, selectorExpr string) (jms.Browser, error) {
	if s.isClosed() {
		return nil, jms.ErrClosed
	}
	br := &clientBrowser{sess: s, queue: queue, selector: selectorExpr}
	// Probe immediately so an invalid selector or queue fails at
	// creation, matching the in-process provider.
	if _, err := br.Enumerate(); err != nil {
		return nil, err
	}
	return br, nil
}

// clientBrowser implements jms.Browser over the wire.
type clientBrowser struct {
	sess     *clientSession
	queue    jms.Queue
	selector string

	mu     sync.Mutex
	closed bool
}

var _ jms.Browser = (*clientBrowser)(nil)

// Queue implements jms.Browser.
func (b *clientBrowser) Queue() jms.Queue { return b.queue }

// Enumerate implements jms.Browser.
func (b *clientBrowser) Enumerate() ([]*jms.Message, error) {
	b.mu.Lock()
	closed := b.closed
	b.mu.Unlock()
	if closed || b.sess.isClosed() {
		return nil, jms.ErrClosed
	}
	rep, err := b.sess.conn.call(opBrowse, func(e *jms.Encoder) {
		e.Uvarint(b.sess.id.Load())
		e.String(b.queue.Name())
		e.String(b.selector)
	}, true, 0)
	if err != nil {
		return nil, err
	}
	n := rep.body.Uvarint()
	if err := rep.body.Err(); err != nil {
		return nil, fmt.Errorf("wire: decoding browse reply: %w", err)
	}
	msgs := make([]*jms.Message, 0, n)
	for i := uint64(0); i < n; i++ {
		var m jms.Message
		m.DecodeFrom(rep.body)
		if err := rep.body.Err(); err != nil {
			return nil, fmt.Errorf("wire: decoding browsed message: %w", err)
		}
		msgs = append(msgs, &m)
	}
	return msgs, nil
}

// Close implements jms.Browser.
func (b *clientBrowser) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	return nil
}

// Unsubscribe implements jms.Session.
func (s *clientSession) Unsubscribe(name string) error {
	return s.conn.callOK(opUnsubscribe, func(e *jms.Encoder) {
		e.Uvarint(s.id.Load())
		e.String(name)
	}, true)
}

// Commit implements jms.Session. A commit is never retried across a
// reconnection: if the transport died after the request was sent, the
// outcome is unknown server-side, and re-issuing it would commit a
// fresh, empty transaction while reporting success for the staged work
// that was rolled back. A transaction already poisoned by a
// reconnection fails with ErrTxInterrupted.
func (s *clientSession) Commit() error {
	if !s.transacted {
		return jms.ErrNotTransacted
	}
	if s.isClosed() {
		return jms.ErrClosed
	}
	s.mu.Lock()
	if s.txBroken {
		s.txBroken = false
		s.mu.Unlock()
		return ErrTxInterrupted
	}
	epoch := s.epoch.Load()
	s.mu.Unlock()
	var sent uint64
	err := s.conn.callOK(opCommit, func(e *jms.Encoder) {
		sent = s.epoch.Load()
		e.Uvarint(s.id.Load())
	}, false)
	if err == nil {
		s.mu.Lock()
		s.txDirty = false
		// A reconnection that finished while the commit waited for a
		// transport poisoned the transaction after the check above: the
		// commit then went to the fresh, empty server-side session, and
		// the staged work is gone.
		broken := sent != epoch && s.txBroken
		if broken {
			s.txBroken = false
		}
		s.mu.Unlock()
		if broken {
			return ErrTxInterrupted
		}
		return nil
	}
	// A commit that dies with its transport is never retried (a retry
	// would commit the fresh, empty server-side transaction while the
	// staged one rolled back). The connection itself recovers, so
	// surface the typed interruption instead of a generic closed error.
	if errors.Is(err, jms.ErrClosed) && s.conn.f.reconnect.Enabled && !s.conn.isClosed() {
		s.mu.Lock()
		s.txDirty, s.txBroken = false, false
		s.mu.Unlock()
		return fmt.Errorf("%w (%v)", ErrTxInterrupted, err)
	}
	return err
}

// Rollback implements jms.Session. Unlike Commit, rollback is safe to
// retry: after a reconnection the fresh server-side transaction is
// empty, and rolling it back is the outcome the caller asked for.
func (s *clientSession) Rollback() error {
	if !s.transacted {
		return jms.ErrNotTransacted
	}
	if s.isClosed() {
		return jms.ErrClosed
	}
	err := s.conn.callOK(opRollback, func(e *jms.Encoder) { e.Uvarint(s.id.Load()) }, true)
	if err == nil {
		s.mu.Lock()
		s.txDirty = false
		s.txBroken = false
		s.mu.Unlock()
	}
	return err
}

// Acknowledge implements jms.Session. Acknowledgements ride the
// connection's ack batcher: concurrent calls from the sessions
// multiplexed on this connection coalesce into one opAckBatch round
// trip, and the call blocks until that round trip settles (AckClient
// semantics are untouched — when Acknowledge returns, the server has
// acked). Retrying an ack after a reconnection is safe: the old
// session's unacked set died with it and those messages are
// redelivered with the JMSRedelivered flag, which the conformance
// model exempts from the no-duplicates property.
func (s *clientSession) Acknowledge() error {
	if s.transacted {
		return jms.ErrTransacted
	}
	if s.isClosed() {
		return jms.ErrClosed
	}
	return s.conn.acks.acknowledge(s)
}

// Recover implements jms.Session.
func (s *clientSession) Recover() error {
	if s.transacted {
		return jms.ErrTransacted
	}
	return s.sessionOp(opRecover)
}

func (s *clientSession) sessionOp(op byte) error {
	if s.isClosed() {
		return jms.ErrClosed
	}
	return s.conn.callOK(op, func(e *jms.Encoder) { e.Uvarint(s.id.Load()) }, true)
}

// Close implements jms.Session.
func (s *clientSession) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.conn.mu.Lock()
	delete(s.conn.sessions, s)
	s.conn.mu.Unlock()
	return s.conn.callOK(opCloseSession, func(e *jms.Encoder) { e.Uvarint(s.id.Load()) }, true)
}

// clientProducer implements jms.Producer over the wire.
type clientProducer struct {
	sess *clientSession
	dest jms.Destination

	mu     sync.Mutex
	closed bool
	pipe   *clientPipe // lazily created when pipelining is enabled
}

var (
	_ jms.Producer      = (*clientProducer)(nil)
	_ jms.AsyncProducer = (*clientProducer)(nil)
)

// Destination implements jms.Producer.
func (p *clientProducer) Destination() jms.Destination { return p.dest }

// pipelined reports whether this producer's sends flow through a
// credit-windowed pipe (factory opted in; transacted sessions stay on
// the classic path — their sends are staged server-side and carry no
// idempotency tokens, so windowed replay cannot protect them).
func (p *clientProducer) pipelined() bool {
	return p.sess.conn.f.pipeWindow > 0 && !p.sess.transacted && p.dest != nil
}

// getPipe lazily creates the producer's pipe.
func (p *clientProducer) getPipe() (*clientPipe, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, jms.ErrClosed
	}
	if p.pipe == nil {
		p.pipe = &clientPipe{
			sess:     p.sess,
			dest:     p.dest,
			destStr:  p.dest.String(),
			inflight: map[uint64]*pipeInflight{},
		}
	}
	return p.pipe, nil
}

// SendAsync implements jms.AsyncProducer. With pipelining enabled the
// send is streamed inside the credit window and the returned
// completion resolves when the server settles it; otherwise it
// degenerates to the blocking send.
func (p *clientProducer) SendAsync(msg *jms.Message, opts jms.SendOptions) (jms.Completion, error) {
	if p.dest == nil {
		return nil, fmt.Errorf("%w: unidentified producer requires SendTo", jms.ErrInvalidDestination)
	}
	if !p.pipelined() {
		if err := p.SendTo(p.dest, msg, opts); err != nil {
			return nil, err
		}
		return jms.CompletedSend, nil
	}
	return p.sendPipelined(msg, opts)
}

// sendPipelined stages one send on the producer's pipe.
func (p *clientProducer) sendPipelined(msg *jms.Message, opts jms.SendOptions) (jms.Completion, error) {
	if p.sess.isClosed() {
		return nil, jms.ErrClosed
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	pipe, err := p.getPipe()
	if err != nil {
		return nil, err
	}
	return pipe.send(msg, opts)
}

// Send implements jms.Producer. With pipelining enabled it is exactly
// a window-of-1 use of the pipe: stage the send, wait for its
// completion.
func (p *clientProducer) Send(msg *jms.Message, opts jms.SendOptions) error {
	if p.dest == nil {
		return fmt.Errorf("%w: unidentified producer requires SendTo", jms.ErrInvalidDestination)
	}
	if p.pipelined() {
		comp, err := p.sendPipelined(msg, opts)
		if err != nil {
			return err
		}
		return comp()
	}
	return p.SendTo(p.dest, msg, opts)
}

// SendTo implements jms.Producer. Non-transacted sends carry a
// per-send idempotency token: if the reply is lost to a connection
// reset and the send retried on a fresh transport, the server
// recognises the token and returns the original message's stamps
// instead of enqueuing a duplicate — exactly-once across resets.
// Transacted sends carry no token: their staging died with the old
// transaction, so the retry must genuinely re-send.
func (p *clientProducer) SendTo(dest jms.Destination, msg *jms.Message, opts jms.SendOptions) error {
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed || p.sess.isClosed() {
		return jms.ErrClosed
	}
	if dest == nil {
		return fmt.Errorf("%w: nil destination", jms.ErrInvalidDestination)
	}
	if err := opts.Validate(); err != nil {
		return err
	}
	s := p.sess
	// The trace context is stamped once, here, before the request is
	// built: the reconnect-retry loop inside call re-encodes the same
	// message object, so a retried send reuses — never re-mints — its
	// trace ID, keeping retries and the dedup-replayed original under
	// one trace.
	tid := obs.StampTrace(msg)
	rpcStart := time.Now()
	var token string
	if !s.transacted {
		token = s.conn.uid + "/" + strconv.FormatUint(s.conn.sendSeq.Add(1), 36)
	}
	rep, err := s.conn.call(opSend, func(e *jms.Encoder) {
		e.Uvarint(s.id.Load())
		e.String(token)
		e.String(dest.String())
		encodeSendOptions(e, opts)
		msg.EncodeTo(e)
	}, true, 0)
	if err != nil {
		return err
	}
	// Dirty only after the reply: work is staged in whichever server-
	// side transaction actually executed the send. Marking before the
	// call would let a concurrent reestablish poison a session whose
	// send had not staged anything yet (it retries into the fresh
	// transaction and commits there).
	s.markDirty()
	msg.ID = rep.body.String()
	msg.Timestamp = rep.body.Time()
	msg.Expiration = rep.body.Time()
	msg.Destination = dest
	msg.Mode = opts.Mode
	msg.Priority = opts.Priority
	if err := rep.body.Err(); err != nil {
		return fmt.Errorf("wire: decoding send reply: %w", err)
	}
	if rec := s.conn.f.spans; rec != nil {
		rec.RecordHop(obs.Span{
			TraceID:  tid,
			Hop:      obs.MessageTraceHop(msg),
			Kind:     obs.KindSendRPC,
			Node:     "wire-client",
			MsgID:    msg.ID,
			Endpoint: dest.String(),
			SentAt:   rpcStart,
			EndedAt:  time.Now(),
		})
	}
	return nil
}

// Close implements jms.Producer.
func (p *clientProducer) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	return nil
}

// clientConsumer implements jms.Consumer over the wire using pull-mode
// receive RPCs: each Receive is one round trip (chunked at receiveCap
// for long or indefinite waits), which keeps JMS acknowledgement and
// expiry semantics exact at the cost of a round trip per message. The
// server-side consumer ID is re-assigned on reconnection.
type clientConsumer struct {
	sess     *clientSession
	dest     jms.Destination
	durable  bool
	subName  string
	selector string
	id       atomic.Uint64

	mu         sync.Mutex
	endpoint   string
	listenStop chan struct{}
	listenerWG sync.WaitGroup
	closed     bool
	lost       bool // unrecoverable across reconnect (temporary destination)
	done       chan struct{}
}

var _ jms.Consumer = (*clientConsumer)(nil)

// Destination implements jms.Consumer.
func (c *clientConsumer) Destination() jms.Destination { return c.dest }

// EndpointID implements jms.Consumer.
func (c *clientConsumer) EndpointID() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.endpoint
}

func (c *clientConsumer) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// unavailable reports why the consumer cannot serve (nil if it can).
func (c *clientConsumer) unavailable() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return jms.ErrClosed
	}
	if c.lost {
		return fmt.Errorf("wire: consumer on temporary destination %s did not survive reconnect: %w", c.dest, jms.ErrClosed)
	}
	return nil
}

// reestablish recreates the server-side consumer after a reconnection.
// Consumers of temporary queues cannot be restored — the queue was
// owned by the dead server-side connection — and are marked lost so
// their next use fails cleanly.
func (c *clientConsumer) reestablish(raw func(byte, func(*jms.Encoder)) (reply, error)) error {
	c.mu.Lock()
	if c.closed || c.lost {
		c.mu.Unlock()
		return nil
	}
	if strings.HasPrefix(c.dest.Name(), "TEMP.") {
		c.lost = true
		c.mu.Unlock()
		return nil
	}
	c.mu.Unlock()
	rep, err := raw(opCreateConsumer, func(e *jms.Encoder) {
		e.Uvarint(c.sess.id.Load())
		e.String(c.dest.String())
		e.Bool(c.durable)
		e.String(c.subName)
		e.String(c.selector)
	})
	if err != nil {
		return fmt.Errorf("recreating consumer on %s: %w", c.dest, err)
	}
	id := rep.body.Uvarint()
	endpoint := rep.body.String()
	if err := rep.body.Err(); err != nil {
		return fmt.Errorf("wire: decoding consumer reply: %w", err)
	}
	c.id.Store(id)
	c.mu.Lock()
	c.endpoint = endpoint
	c.mu.Unlock()
	return nil
}

// Receive implements jms.Consumer.
func (c *clientConsumer) Receive(timeout time.Duration) (*jms.Message, error) {
	indefinite := timeout <= 0
	deadline := time.Now().Add(timeout)
	for {
		if err := c.unavailable(); err != nil {
			return nil, err
		}
		chunk := receiveCap
		if !indefinite {
			remaining := time.Until(deadline)
			if remaining <= 0 {
				return nil, nil
			}
			if remaining < chunk {
				chunk = remaining
			}
		}
		msg, ok, err := c.receiveOnce(chunk, false)
		if err != nil {
			return nil, err
		}
		if ok {
			return msg, nil
		}
		if !indefinite && !time.Now().Before(deadline) {
			return nil, nil
		}
	}
}

// ReceiveNoWait implements jms.Consumer.
func (c *clientConsumer) ReceiveNoWait() (*jms.Message, error) {
	if err := c.unavailable(); err != nil {
		return nil, err
	}
	msg, _, err := c.receiveOnce(0, true)
	return msg, err
}

func (c *clientConsumer) receiveOnce(timeout time.Duration, noWait bool) (*jms.Message, bool, error) {
	// Round the wire timeout up: rounding a sub-millisecond remainder
	// down to zero would read as "no timeout" on the server.
	timeoutMs := int64((timeout + time.Millisecond - 1) / time.Millisecond)
	// The server legitimately holds the reply for up to the requested
	// wait, so that wait is added on top of the call timeout.
	rep, err := c.sess.conn.call(opReceive, func(e *jms.Encoder) {
		e.Uvarint(c.id.Load())
		e.Varint(timeoutMs)
		e.Bool(noWait)
	}, true, timeout)
	if err != nil {
		return nil, false, err
	}
	has := rep.body.Bool()
	if !has {
		if err := rep.body.Err(); err != nil {
			return nil, false, fmt.Errorf("wire: decoding receive reply: %w", err)
		}
		return nil, false, nil
	}
	var msg jms.Message
	msg.DecodeFrom(rep.body)
	if err := rep.body.Err(); err != nil {
		return nil, false, fmt.Errorf("wire: decoding received message: %w", err)
	}
	c.sess.markDirty()
	return &msg, true, nil
}

// SetListener implements jms.Consumer with a client-side dispatch
// goroutine.
func (c *clientConsumer) SetListener(l jms.Listener) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return jms.ErrClosed
	}
	if c.listenStop != nil {
		stop := c.listenStop
		c.listenStop = nil
		c.mu.Unlock()
		close(stop)
		c.listenerWG.Wait()
		c.mu.Lock()
	}
	if l == nil {
		c.mu.Unlock()
		return nil
	}
	stop := make(chan struct{})
	c.listenStop = stop
	c.listenerWG.Add(1)
	c.mu.Unlock()
	go func() {
		defer c.listenerWG.Done()
		for {
			select {
			case <-stop:
				return
			case <-c.done:
				return
			default:
			}
			msg, err := c.Receive(100 * time.Millisecond)
			if err != nil {
				return
			}
			if msg != nil {
				l(msg)
			}
		}
	}()
	return nil
}

// Close implements jms.Consumer.
func (c *clientConsumer) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	lost := c.lost
	close(c.done)
	stop := c.listenStop
	c.listenStop = nil
	c.mu.Unlock()
	if stop != nil {
		close(stop)
	}
	c.listenerWG.Wait()
	c.sess.mu.Lock()
	delete(c.sess.consumers, c)
	c.sess.mu.Unlock()
	if lost {
		// The server-side consumer died with the old connection.
		return nil
	}
	return c.sess.conn.callOK(opCloseConsumer, func(e *jms.Encoder) { e.Uvarint(c.id.Load()) }, true)
}
