// Package broker is the reference JMS provider: a complete in-memory
// message broker implementing the jms API, with queues, topics, durable
// subscriptions, transacted sessions, the three acknowledgement modes,
// ten-level priority delivery, time-to-live expiry, and persistent
// delivery backed by a stable store (internal/store).
//
// Two capabilities exist purely so the provider can serve as the system
// under test for the paper's harness:
//
//   - Performance profiles (Profile) impose configurable service rates
//     and latency on the send and delivery paths, reproducing the
//     markedly different throughput shapes of the paper's Figures 2–3.
//   - Crash injection (Crash/Restart) discards all volatile state while
//     preserving the stable store, implementing the §5 future-work
//     feature ("initiate a system or program crash and then recover")
//     needed to fully test persistent delivery mode.
package broker

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"jmsharness/internal/clock"
	"jmsharness/internal/jms"
	"jmsharness/internal/obs"
	"jmsharness/internal/selector"
	"jmsharness/internal/stats"
	"jmsharness/internal/store"
	"jmsharness/internal/trace"
)

// Options configures a Broker.
type Options struct {
	// Name labels the broker and prefixes provider-assigned message IDs.
	Name string
	// Profile shapes send/delivery performance; the zero profile (or
	// Unlimited()) applies no shaping.
	Profile Profile
	// Stable is the stable store for persistent messages and durable
	// subscriptions. Nil means an in-memory stable store.
	Stable store.Store
	// Clock is the broker's time source. Nil means the real clock.
	Clock clock.Clock
	// Seed seeds the latency-jitter generator.
	Seed uint64
	// Metrics receives the broker's instruments (counters under
	// "broker.*"). Nil means a private registry, still readable through
	// Metrics()/Stats(); pass a shared registry to aggregate broker and
	// wire-server metrics on one /metricz endpoint.
	Metrics *obs.Registry
	// Spans receives per-message lifecycle spans. Nil disables span
	// recording (a no-op recorder keeps the hot paths branch-free).
	Spans obs.SpanRecorder
	// MailboxCapacity bounds every per-destination mailbox (queues and
	// topic subscriptions alike). 0 means unbounded. Redelivery and
	// crash recovery are exempt: returning already-accepted messages
	// never blocks or fails, so a mailbox can transiently exceed the
	// bound and simply refuses new sends until drained.
	MailboxCapacity int
	// Overload selects what a send does when its destination mailbox is
	// full (only meaningful with MailboxCapacity > 0).
	Overload OverloadPolicy
}

// OverloadPolicy selects the behaviour of a send that finds its
// destination mailbox full.
type OverloadPolicy int

const (
	// OverloadBlock parks the producer until space frees up — classic
	// backpressure. The default.
	OverloadBlock OverloadPolicy = iota
	// OverloadReject fails the send immediately with an error wrapping
	// jms.ErrOverloaded.
	OverloadReject
)

func (p OverloadPolicy) String() string {
	switch p {
	case OverloadBlock:
		return "block"
	case OverloadReject:
		return "reject"
	default:
		return fmt.Sprintf("OverloadPolicy(%d)", int(p))
	}
}

// Broker is an in-memory JMS provider. It implements
// jms.ConnectionFactory. A Broker is safe for concurrent use.
type Broker struct {
	name     string
	profile  Profile
	clk      clock.Clock
	stable   store.Store
	mbCap    int
	overload OverloadPolicy

	sendBucket    *stats.TokenBucket
	deliverBucket *stats.TokenBucket

	jitterMu sync.Mutex
	jitter   *stats.RNG

	reg   *obs.Registry
	met   brokerMetrics
	spans obs.SpanRecorder
	// traceOn gates the per-send trace-context work (mint + property
	// lookups) so a tracing-disabled broker pays only no-op calls on
	// the hot path.
	traceOn bool

	msgSeq      atomic.Int64
	consumerSeq atomic.Int64

	// mu guards the destination registry (queues/topics/subs), the
	// connection registries, and the crashed/closed lifecycle flags. The
	// hot paths — enqueueToQueue and publishToTopic — take it in read
	// mode and hold that read lock through persist+push, so sends to
	// distinct destinations proceed in parallel (each mailbox and the
	// stable store do their own locking) while Crash/Restart/Close take
	// the write side as a quiesce epoch: once the write lock is held, no
	// send is mid-flight, so recovery always sees a consistent world.
	// Cold control-plane paths (consumer/subscription/temp-queue
	// management) simply take the write lock.
	mu         sync.RWMutex
	queues     map[string]*mailbox
	topics     map[string]map[string]*subscription // topic -> endpoint -> sub
	subs       map[string]*subscription            // endpoint -> sub
	conns      map[*connection]struct{}
	clientIDs  map[string]*connection
	tempOwners map[string]*connection // temporary queue name -> owner
	crashed    bool
	closed     bool
	// fenced marks a broker superseded by failover (see Fence): it
	// refuses connections and cannot restart, so a stale primary can
	// never re-accept writes for destinations promoted elsewhere.
	fenced bool
}

// subscription is the state of one topic subscription (durable or the
// artificial subscription of a non-durable subscriber).
type subscription struct {
	endpoint  string
	topicName string
	durable   bool
	clientID  string
	subName   string
	mb        *mailbox
	active    bool // a consumer currently holds the subscription
	// sel filters published messages into the subscription; selExpr is
	// its source form (part of a durable subscription's identity).
	sel     *selector.Selector
	selExpr string
}

// accepts reports whether the subscription's selector admits msg.
func (s *subscription) accepts(msg *jms.Message) bool {
	return s.sel == nil || s.sel.Matches(msg)
}

// brokerMetrics resolves the broker's instruments once at construction
// so the hot paths pay one pointer dereference plus one atomic op per
// event.
type brokerMetrics struct {
	sent      *obs.Counter // messages accepted by send
	enqueued  *obs.Counter // mailbox entries created (topic fan-out counts each copy)
	delivered *obs.Counter // entries handed to consumers (redelivery counts again)
	acked     *obs.Counter // deliveries finalised
	expired   *obs.Counter // entries dropped by TTL expiry
	backlog   *obs.Gauge   // entries currently buffered

	overloadRejects *obs.Counter // sends rejected by OverloadReject

	sendThrottle    *obs.Histogram // send-path throttle wait, ns
	deliverThrottle *obs.Histogram // delivery-path throttle wait, ns
	sojourn         *obs.Histogram // enqueue → pop mailbox residence, ns
	overloadWait    *obs.Histogram // OverloadBlock full-mailbox wait, ns
}

func newBrokerMetrics(reg *obs.Registry) brokerMetrics {
	return brokerMetrics{
		sent:            reg.Counter("broker.sent"),
		enqueued:        reg.Counter("broker.enqueued"),
		delivered:       reg.Counter("broker.delivered"),
		acked:           reg.Counter("broker.acked"),
		expired:         reg.Counter("broker.expired"),
		backlog:         reg.Gauge("broker.backlog"),
		overloadRejects: reg.Counter("broker.overload_rejections"),
		sendThrottle:    reg.Histogram("broker.send_throttle_ns", nil),
		deliverThrottle: reg.Histogram("broker.deliver_throttle_ns", nil),
		sojourn:         reg.Histogram("broker.sojourn_ns", nil),
		overloadWait:    reg.Histogram("broker.overload_block_ns", nil),
	}
}

// New returns a started broker.
func New(opts Options) (*Broker, error) {
	if err := opts.Profile.Validate(); err != nil {
		return nil, err
	}
	if opts.Name == "" {
		opts.Name = "broker"
	}
	if opts.Stable == nil {
		opts.Stable = store.NewMemory()
	}
	if opts.Clock == nil {
		opts.Clock = clock.Real()
	}
	if opts.Metrics == nil {
		opts.Metrics = obs.NewRegistry()
	}
	// The typed-nil check matters: a caller holding a nil *obs.Spans
	// (span tracing disabled) still produces a non-nil interface here.
	if s, ok := opts.Spans.(*obs.Spans); opts.Spans == nil || (ok && s == nil) {
		opts.Spans = obs.NopSpans()
	}
	traceOn := opts.Spans != obs.NopSpans()
	if opts.MailboxCapacity < 0 {
		return nil, fmt.Errorf("broker: negative MailboxCapacity %d", opts.MailboxCapacity)
	}
	if opts.Overload != OverloadBlock && opts.Overload != OverloadReject {
		return nil, fmt.Errorf("broker: unknown overload policy %d", int(opts.Overload))
	}
	b := &Broker{
		name:       opts.Name,
		profile:    opts.Profile,
		clk:        opts.Clock,
		stable:     opts.Stable,
		mbCap:      opts.MailboxCapacity,
		overload:   opts.Overload,
		jitter:     stats.NewRNG(opts.Seed),
		reg:        opts.Metrics,
		met:        newBrokerMetrics(opts.Metrics),
		spans:      opts.Spans,
		traceOn:    traceOn,
		queues:     map[string]*mailbox{},
		topics:     map[string]map[string]*subscription{},
		subs:       map[string]*subscription{},
		conns:      map[*connection]struct{}{},
		clientIDs:  map[string]*connection{},
		tempOwners: map[string]*connection{},
	}
	now := func() time.Time { return b.clk.Now() }
	if opts.Profile.SendRate > 0 {
		bucket, err := stats.NewTokenBucket(opts.Profile.SendRate, opts.Profile.SendBurst, now)
		if err != nil {
			return nil, err
		}
		b.sendBucket = bucket
	}
	if opts.Profile.DeliverRate > 0 {
		bucket, err := stats.NewTokenBucket(opts.Profile.DeliverRate, opts.Profile.DeliverBurst, now)
		if err != nil {
			return nil, err
		}
		b.deliverBucket = bucket
	}
	if err := b.recoverLocked(); err != nil {
		return nil, err
	}
	return b, nil
}

var _ jms.ConnectionFactory = (*Broker)(nil)

// Name returns the broker's name.
func (b *Broker) Name() string { return b.name }

// Profile returns the broker's performance profile.
func (b *Broker) Profile() Profile { return b.profile }

// Metrics returns the broker's metrics registry (the one passed in
// Options, or the private registry created for it).
func (b *Broker) Metrics() *obs.Registry { return b.reg }

// Stats is a snapshot of the broker-wide message counters.
type Stats struct {
	// Sent counts messages accepted by send (one per send, before any
	// topic fan-out).
	Sent int64 `json:"sent"`
	// Enqueued counts mailbox entries created; a topic publish counts
	// once per matching subscription.
	Enqueued int64 `json:"enqueued"`
	// Delivered counts entries handed to consumers; a redelivered entry
	// counts each time.
	Delivered int64 `json:"delivered"`
	// Acked counts deliveries finalised (acknowledged, committed, or
	// auto-acked).
	Acked int64 `json:"acked"`
	// Expired counts entries dropped because their time-to-live elapsed
	// before delivery.
	Expired int64 `json:"expired"`
	// Backlog is the number of entries currently buffered.
	Backlog int64 `json:"backlog"`
}

// Stats returns a snapshot of the broker's counters. Each field is read
// atomically; the snapshot is not a consistent cut across fields.
func (b *Broker) Stats() Stats {
	return Stats{
		Sent:      b.met.sent.Value(),
		Enqueued:  b.met.enqueued.Value(),
		Delivered: b.met.delivered.Value(),
		Acked:     b.met.acked.Value(),
		Expired:   b.met.expired.Value(),
		Backlog:   b.met.backlog.Value(),
	}
}

// CreateConnection implements jms.ConnectionFactory.
func (b *Broker) CreateConnection() (jms.Connection, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, fmt.Errorf("broker %s: %w", b.name, jms.ErrClosed)
	}
	if b.fenced {
		return nil, fmt.Errorf("broker %s: %w", b.name, jms.ErrFenced)
	}
	if b.crashed {
		return nil, fmt.Errorf("broker %s: crashed and not restarted", b.name)
	}
	c := newConnection(b)
	b.conns[c] = struct{}{}
	return c, nil
}

// Crash simulates a provider failure: every connection, session and
// consumer is forcibly closed and all volatile state (non-persistent
// messages, non-durable subscriptions, in-flight transactions) is lost.
// The stable store is untouched. The broker rejects new connections
// until Restart.
func (b *Broker) Crash() {
	b.mu.Lock()
	if b.crashed || b.closed {
		b.mu.Unlock()
		return
	}
	b.crashed = true
	conns := make([]*connection, 0, len(b.conns))
	for c := range b.conns {
		conns = append(conns, c)
	}
	b.conns = map[*connection]struct{}{}
	b.clientIDs = map[string]*connection{}
	b.tempOwners = map[string]*connection{}
	queues := b.queues
	subs := b.subs
	b.queues = map[string]*mailbox{}
	b.topics = map[string]map[string]*subscription{}
	b.subs = map[string]*subscription{}
	b.mu.Unlock()

	for _, c := range conns {
		c.forceClose()
	}
	for name, mb := range queues {
		mb.close()
		b.endStranded(mb, trace.EndpointForQueue(name), true)
	}
	for _, s := range subs {
		s.mb.close()
		b.endStranded(s.mb, s.endpoint, true)
	}
	b.met.backlog.Set(0)
}

// Restart recovers the broker after a Crash: durable subscriptions and
// pending persistent messages are rebuilt from the stable store.
func (b *Broker) Restart() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return fmt.Errorf("broker %s: %w", b.name, jms.ErrClosed)
	}
	if b.fenced {
		return fmt.Errorf("broker %s: %w", b.name, jms.ErrFenced)
	}
	if !b.crashed {
		return fmt.Errorf("broker %s: restart without crash", b.name)
	}
	b.crashed = false
	return b.recoverLocked()
}

// recoverLocked rebuilds durable state from the stable store. Callers
// hold b.mu (or have exclusive access during New).
func (b *Broker) recoverLocked() error {
	st, err := b.stable.Snapshot()
	if err != nil {
		return fmt.Errorf("broker %s: recovering: %w", b.name, err)
	}
	now := b.clk.Now()
	for _, rec := range st.Subscriptions {
		var sel *selector.Selector
		if rec.Selector != "" {
			sel, err = selector.Parse(rec.Selector)
			if err != nil {
				return fmt.Errorf("broker %s: recovering subscription %s: %w", b.name, rec.Key(), err)
			}
		}
		sub := &subscription{
			endpoint:  trace.EndpointForDurable(rec.ClientID, rec.Name),
			topicName: rec.Topic,
			durable:   true,
			clientID:  rec.ClientID,
			subName:   rec.Name,
			mb:        newMailbox(b.mbCap),
			sel:       sel,
			selExpr:   rec.Selector,
		}
		b.subs[sub.endpoint] = sub
		if b.topics[rec.Topic] == nil {
			b.topics[rec.Topic] = map[string]*subscription{}
		}
		b.topics[rec.Topic][sub.endpoint] = sub
	}
	for ep, msgs := range st.Messages {
		var mb *mailbox
		if dest, err := jms.ParseDestination(ep); err == nil && dest.Kind() == jms.KindQueue {
			mb = b.queueLocked(dest.Name())
		} else if sub, ok := b.subs[ep]; ok {
			mb = sub.mb
		} else {
			// Stored messages for an endpoint that no longer exists
			// (e.g. an unsubscribed durable subscription); drop them.
			for _, sm := range msgs {
				if err := b.stable.RemoveMessage(ep, sm.ID); err != nil {
					return fmt.Errorf("broker %s: dropping orphan record: %w", b.name, err)
				}
			}
			continue
		}
		for _, sm := range msgs {
			if sm.Delivered {
				// The message was handed to a consumer before the crash
				// but never acknowledged; JMS requires its post-recovery
				// redelivery to carry the JMSRedelivered flag.
				sm.Msg.Redelivered = true
			}
			mb.push(entry{msg: sm.Msg, rec: sm.ID, persisted: true, enqueuedAt: now})
			b.met.enqueued.Inc()
			b.met.backlog.Inc()
			// Recovered messages kept their trace properties through the
			// WAL round trip, so post-crash spans stay linked to the
			// original trace.
			b.spans.Begin(b.spanStart(sm.Msg, ep, now, 0))
		}
	}
	return nil
}

// Close shuts the broker down permanently.
func (b *Broker) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	conns := make([]*connection, 0, len(b.conns))
	for c := range b.conns {
		conns = append(conns, c)
	}
	b.conns = map[*connection]struct{}{}
	queues := b.queues
	subs := b.subs
	b.mu.Unlock()
	for _, c := range conns {
		c.forceClose()
	}
	for name, mb := range queues {
		mb.close()
		b.endStranded(mb, trace.EndpointForQueue(name), false)
	}
	for _, s := range subs {
		s.mb.close()
		b.endStranded(s.mb, s.endpoint, false)
	}
	return nil
}

// endStranded closes out the spans of messages still buffered when
// their mailbox shut down: they will never be delivered, so their
// lifecycle ends as a drop. Without this a closed broker strands its
// undelivered spans in the recorder's bounded in-flight table, starving
// every later Begin against the same recorder. On a crash
// (keepPersisted) spans of persisted messages stay open: Restart
// re-begins them under the same key, keeping the trace continuous.
func (b *Broker) endStranded(mb *mailbox, ep string, keepPersisted bool) {
	if b.spans == obs.NopSpans() {
		return
	}
	now := b.clk.Now()
	for _, e := range mb.drain() {
		if keepPersisted && e.persisted {
			continue
		}
		b.spans.End(e.msg.ID, ep, now, obs.OutcomeDropped)
	}
}

// queueLocked returns (creating if needed) the queue mailbox. Callers
// hold b.mu.
func (b *Broker) queueLocked(name string) *mailbox {
	mb, ok := b.queues[name]
	if !ok {
		mb = newMailbox(b.mbCap)
		b.queues[name] = mb
	}
	return mb
}

// nextMessageID assigns a provider message identifier.
func (b *Broker) nextMessageID() string {
	return fmt.Sprintf("ID:%s-%d", b.name, b.msgSeq.Add(1))
}

// nextID assigns a broker-unique identifier with the given prefix.
func (b *Broker) nextID(prefix string) string {
	return fmt.Sprintf("%s-%s%d", b.name, prefix, b.consumerSeq.Add(1))
}

// nextConsumerID assigns a broker-unique consumer identifier.
func (b *Broker) nextConsumerID() string { return b.nextID("c") }

// throttleSend blocks the caller for the send path's service time.
func (b *Broker) throttleSend() {
	if b.sendBucket == nil {
		return
	}
	if wait := b.sendBucket.Reserve(); wait > 0 {
		b.met.sendThrottle.ObserveDuration(wait)
		b.clk.Sleep(wait)
	}
}

// throttleDeliver blocks the caller for the delivery path's service
// time, including the backlog penalty.
func (b *Broker) throttleDeliver() {
	var wait time.Duration
	if b.deliverBucket != nil {
		wait = b.deliverBucket.Reserve()
	}
	if p := b.profile.BacklogPenalty; p > 0 {
		wait += time.Duration(b.met.backlog.Value()) * p
	}
	if wait > 0 {
		b.met.deliverThrottle.ObserveDuration(wait)
		b.clk.Sleep(wait)
	}
}

// deliveryLatency returns the minimum time a message must have spent in
// the broker before delivery, including jitter.
func (b *Broker) deliveryLatency() time.Duration {
	lat := b.profile.BaseLatency
	if j := b.profile.LatencyJitter; j > 0 {
		b.jitterMu.Lock()
		lat += time.Duration(b.jitter.Float64() * float64(j))
		b.jitterMu.Unlock()
	}
	return lat
}

// noopWait is the completion of a send with nothing left to wait for.
var noopWait = func() error { return nil }

// send routes one message to its destination's mailbox(es) and blocks
// until it is fully accepted (durably recorded, for persistent mode).
func (b *Broker) send(dest jms.Destination, msg *jms.Message, opts jms.SendOptions) error {
	wait, err := b.sendStaged(dest, msg, opts)
	if err != nil {
		return err
	}
	return wait()
}

// sendStaged routes one message to its destination's mailbox(es),
// returning before persistent copies are durable: the returned wait
// closure (call it exactly once) blocks until every copy's stable
// record is committed. The message is stamped with its provider ID,
// timestamp and expiration before return, and the mailbox push happens
// here too, under the same read-side quiesce lock as the blocking path
// — only the group-commit wait moves out, so a pipelined producer can
// keep a window of sends inside one fsync domain. A consumer can
// therefore receive a staged message before its producer's wait
// returns; if the commit then fails, that is the delivery of a failed
// send, which JMS's send indeterminacy already permits (and the
// conformance model already accepts).
func (b *Broker) sendStaged(dest jms.Destination, msg *jms.Message, opts jms.SendOptions) (func() error, error) {
	if dest == nil {
		return nil, fmt.Errorf("%w: no destination", jms.ErrInvalidDestination)
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	now := b.clk.Now()
	m := msg.Clone()
	m.ID = b.nextMessageID()
	m.Destination = dest
	m.Mode = opts.Mode
	m.Priority = opts.Priority
	m.Timestamp = now
	if opts.TTL > 0 {
		m.Expiration = now.Add(opts.TTL)
	} else {
		m.Expiration = time.Time{}
	}
	// Reflect the provider-assigned headers back into the caller's
	// message, as JMS send does.
	msg.ID = m.ID
	msg.Destination = dest
	msg.Mode = opts.Mode
	msg.Priority = opts.Priority
	msg.Timestamp = m.Timestamp
	msg.Expiration = m.Expiration

	if b.traceOn {
		// Establish the message's trace context (fresh unless a wire
		// server or cluster front-end already routed it) and reflect
		// the ID back like the other provider stamps, so the caller
		// can correlate its send with the exported spans.
		tid := obs.StampTrace(m)
		msg.SetProperty(obs.TraceIDProperty, jms.Str(tid))
	}

	b.throttleSend()

	var wait func() error
	var err error
	switch dest.Kind() {
	case jms.KindQueue:
		wait, err = b.enqueueToQueue(dest.Name(), m, now)
	case jms.KindTopic:
		wait, err = b.publishToTopic(dest.Name(), m, now)
	default:
		err = fmt.Errorf("%w: kind %v", jms.ErrInvalidDestination, dest.Kind())
	}
	if err != nil {
		return nil, err
	}
	b.met.sent.Inc()
	return wait, nil
}

func (b *Broker) enqueueToQueue(name string, m *jms.Message, now time.Time) (func() error, error) {
	// Fast path: the queue already exists, so a read lock suffices and
	// sends to distinct queues run fully in parallel. The read lock is
	// held through persist+push: that is the quiesce contract with
	// Crash/Restart/Close (which take the write side), and overlapping
	// read-side holders are exactly what lets the WAL's group committer
	// batch their fsyncs. Queue creation is rare; it briefly upgrades to
	// the write lock and retries.
	for {
		b.mu.RLock()
		if b.closed || b.crashed {
			b.mu.RUnlock()
			return nil, fmt.Errorf("broker %s: %w", b.name, jms.ErrClosed)
		}
		mb, ok := b.queues[name]
		if !ok {
			b.mu.RUnlock()
			b.mu.Lock()
			if !b.closed && !b.crashed {
				b.queueLocked(name)
			}
			b.mu.Unlock()
			continue
		}
		if !mb.tryReserve() {
			// Full mailbox. The wait (or the rejection) happens strictly
			// after RUnlock: blocking while holding the read side would
			// deadlock Crash/Close, whose write-lock quiesce must be able
			// to close the very mailbox this send is waiting on.
			space := mb.spaceChan()
			b.mu.RUnlock()
			if err := b.overloaded(trace.EndpointForQueue(name), space); err != nil {
				return nil, err
			}
			continue
		}
		wait, err := b.enqueueEntry(mb, name, m, now)
		b.mu.RUnlock()
		return wait, err
	}
}

// overloaded handles a send that found its destination mailbox full:
// under OverloadReject it returns a typed error immediately; under
// OverloadBlock it parks on space until occupancy drops (or the mailbox
// closes), then returns nil so the caller's retry loop revalidates the
// world. Callers must NOT hold b.mu.
func (b *Broker) overloaded(endpoint string, space <-chan struct{}) error {
	if b.overload == OverloadReject {
		b.met.overloadRejects.Inc()
		return fmt.Errorf("broker %s: %s mailbox full: %w", b.name, endpoint, jms.ErrOverloaded)
	}
	start := b.clk.Now()
	<-space
	b.met.overloadWait.ObserveDuration(b.clk.Now().Sub(start))
	return nil
}

// enqueueEntry persists (if required) and buffers one message on a
// queue mailbox, consuming the caller's tryReserve claim, and returns
// the durability wait. Callers hold b.mu in read mode. On a staged
// store only the record's ordering happens here — the span's WALWait
// then reports the staging cost, with the true commit wait visible in
// the store's wal.commit_wait_ns histogram.
func (b *Broker) enqueueEntry(mb *mailbox, name string, m *jms.Message, now time.Time) (func() error, error) {
	e := entry{msg: m, enqueuedAt: now}
	ep := trace.EndpointForQueue(name)
	wait := noopWait
	var walWait time.Duration
	if m.Mode == jms.Persistent {
		persistStart := b.clk.Now()
		rec, w, err := b.addStable(ep, m)
		if err != nil {
			mb.unreserve()
			return nil, fmt.Errorf("broker %s: persisting to %s: %w", b.name, ep, err)
		}
		walWait = b.clk.Now().Sub(persistStart)
		e.rec, e.persisted = rec, true
		wait = w
	}
	mb.pushReserved(e)
	b.met.enqueued.Inc()
	b.met.backlog.Inc()
	b.spans.Begin(b.spanStart(m, ep, now, walWait))
	return wait, nil
}

// addStable records one persistent copy on the stable store, staged
// when the store supports it (the wait closure then carries the group
// commit), blocking otherwise.
func (b *Broker) addStable(ep string, m *jms.Message) (store.RecordID, func() error, error) {
	if st, ok := b.stable.(store.Staged); ok {
		return st.AddMessageStaged(ep, m)
	}
	rec, err := b.stable.AddMessage(ep, m)
	if err != nil {
		return 0, nil, err
	}
	return rec, noopWait, nil
}

// spanStart assembles the Begin payload for one enqueued copy; the
// trace-context property lookups run only when tracing is on.
func (b *Broker) spanStart(m *jms.Message, ep string, now time.Time, walWait time.Duration) obs.SpanStart {
	st := obs.SpanStart{
		MsgID:      m.ID,
		Endpoint:   ep,
		SentAt:     m.Timestamp,
		EnqueuedAt: now,
		WALWait:    walWait,
	}
	if b.traceOn {
		st.TraceID = obs.MessageTraceID(m)
		st.Hop = obs.MessageTraceHop(m)
		st.Node = b.name
	}
	return st
}

func (b *Broker) publishToTopic(name string, m *jms.Message, now time.Time) (func() error, error) {
	// The read lock is held through the whole fan-out, for the same
	// quiesce contract as enqueueToQueue; publishes to distinct topics
	// (and queue sends) proceed concurrently. Under a bounded profile
	// the publish first claims one slot on every matching subscription,
	// so admission is all-or-nothing: a publish either fans out to all
	// matching subscribers or (one being full) blocks/rejects without
	// partially delivering.
	for {
		b.mu.RLock()
		if b.closed || b.crashed {
			b.mu.RUnlock()
			return nil, fmt.Errorf("broker %s: %w", b.name, jms.ErrClosed)
		}
		var matched []*subscription
		for _, s := range b.topics[name] {
			if s.accepts(m) {
				matched = append(matched, s)
			}
		}
		full := -1
		for i, s := range matched {
			if !s.mb.tryReserve() {
				full = i
				break
			}
		}
		if full >= 0 {
			for _, s := range matched[:full] {
				s.mb.unreserve()
			}
			space := matched[full].mb.spaceChan()
			ep := matched[full].endpoint
			b.mu.RUnlock()
			if err := b.overloaded(ep, space); err != nil {
				return nil, err
			}
			continue
		}
		var waits []func() error
		for i, s := range matched {
			copyMsg := m.Clone()
			e := entry{msg: copyMsg, enqueuedAt: now}
			var walWait time.Duration
			if m.Mode == jms.Persistent && s.durable {
				persistStart := b.clk.Now()
				rec, w, err := b.addStable(s.endpoint, copyMsg)
				if err != nil {
					// Release the claims not yet converted into entries;
					// copies already fanned out stay delivered, matching
					// the pre-bounded partial-failure behaviour. Copies
					// already staged must still settle: their waits are
					// drained here so each runs exactly once.
					for _, rest := range matched[i:] {
						rest.mb.unreserve()
					}
					b.mu.RUnlock()
					for _, w := range waits {
						_ = w()
					}
					return nil, fmt.Errorf("broker %s: persisting to %s: %w", b.name, s.endpoint, err)
				}
				walWait = b.clk.Now().Sub(persistStart)
				e.rec, e.persisted = rec, true
				if w != nil {
					waits = append(waits, w)
				}
			}
			s.mb.pushReserved(e)
			b.met.enqueued.Inc()
			b.met.backlog.Inc()
			b.spans.Begin(b.spanStart(copyMsg, s.endpoint, now, walWait))
		}
		b.mu.RUnlock()
		if len(waits) == 0 {
			return noopWait, nil
		}
		return func() error {
			var first error
			for _, w := range waits {
				if err := w(); err != nil && first == nil {
					first = err
				}
			}
			return first
		}, nil
	}
}

// ackEntry finalises consumption of one delivered entry, removing its
// stable record if persistent.
func (b *Broker) ackEntry(endpoint string, e entry) error {
	b.met.acked.Inc()
	b.spans.End(e.msg.ID, endpoint, b.clk.Now(), obs.OutcomeAcked)
	if !e.persisted {
		return nil
	}
	if err := b.stable.RemoveMessage(endpoint, e.rec); err != nil {
		return fmt.Errorf("broker %s: acking on %s: %w", b.name, endpoint, err)
	}
	return nil
}

// ackEntries finalises consumption of a batch of delivered entries in
// one pass: every persistent record's remove is staged on the stable
// store first, then the durability waits are drained together, so a
// batch of N acknowledgements shares one group commit instead of
// paying N sequential fsync round trips. On a store without staged
// removes it degrades to the sequential blocking path. Returns the
// first error; later entries are still acknowledged.
func (b *Broker) ackEntries(entries []deliveredEntry) error {
	st, staged := b.stable.(store.Staged)
	if !staged || len(entries) < 2 {
		var first error
		for _, d := range entries {
			if err := b.ackEntry(d.endpoint, d.e); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	now := b.clk.Now()
	waits := make([]func() error, 0, len(entries))
	var first error
	for _, d := range entries {
		b.met.acked.Inc()
		b.spans.End(d.e.msg.ID, d.endpoint, now, obs.OutcomeAcked)
		if !d.e.persisted {
			continue
		}
		wait, err := st.RemoveMessageStaged(d.endpoint, d.e.rec)
		if err != nil {
			if first == nil {
				first = fmt.Errorf("broker %s: acking on %s: %w", b.name, d.endpoint, err)
			}
			continue
		}
		waits = append(waits, wait)
	}
	for _, w := range waits {
		if err := w(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// dropExpired accounts for entries dropped by a mailbox pop because
// their time-to-live elapsed.
func (b *Broker) dropExpired(endpoint string, dropped []entry) {
	if len(dropped) == 0 {
		return
	}
	now := b.clk.Now()
	for _, e := range dropped {
		b.met.backlog.Dec()
		b.met.expired.Inc()
		b.spans.End(e.msg.ID, endpoint, now, obs.OutcomeExpired)
		if e.persisted {
			// Best effort: an expired persistent message's record is
			// removed; failure only delays cleanup until the next
			// recovery, it cannot affect correctness.
			_ = b.stable.RemoveMessage(endpoint, e.rec)
		}
	}
}

// dropEntries accounts for entries discarded outside delivery (deleted
// temporary queues, closed subscriptions): backlog shrinks and their
// spans end as dropped.
func (b *Broker) dropEntries(endpoint string, drained []entry) {
	if len(drained) == 0 {
		return
	}
	now := b.clk.Now()
	b.met.backlog.Add(int64(-len(drained)))
	for _, e := range drained {
		b.spans.End(e.msg.ID, endpoint, now, obs.OutcomeDropped)
	}
}

// connectionClosed removes c from the broker's registries.
func (b *Broker) connectionClosed(c *connection) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.conns, c)
	if c.clientID != "" && b.clientIDs[c.clientID] == c {
		delete(b.clientIDs, c.clientID)
	}
}

// createTempQueue allocates a connection-scoped temporary queue.
func (b *Broker) createTempQueue(c *connection) (string, error) {
	name := "TEMP." + b.nextID("tq")
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed || b.crashed {
		return "", fmt.Errorf("broker %s: %w", b.name, jms.ErrClosed)
	}
	b.queues[name] = newMailbox(b.mbCap)
	b.tempOwners[name] = c
	return name, nil
}

// tempQueueOwner returns the owning connection of a temporary queue.
func (b *Broker) tempQueueOwner(name string) (*connection, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	c, ok := b.tempOwners[name]
	return c, ok
}

// deleteTempQueue removes a temporary queue and its pending messages
// when its owning connection closes.
func (b *Broker) deleteTempQueue(name string) {
	b.mu.Lock()
	mb, ok := b.queues[name]
	delete(b.queues, name)
	delete(b.tempOwners, name)
	b.mu.Unlock()
	if !ok {
		return
	}
	drained := mb.drain()
	ep := trace.EndpointForQueue(name)
	b.dropEntries(ep, drained)
	for _, e := range drained {
		if e.persisted {
			// Best effort, as for expired persistent messages.
			_ = b.stable.RemoveMessage(ep, e.rec)
		}
	}
	mb.close()
}

// registerClientID claims id for connection c.
func (b *Broker) registerClientID(id string, c *connection) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if holder, ok := b.clientIDs[id]; ok && holder != c {
		return jms.ErrClientIDInUse
	}
	b.clientIDs[id] = c
	return nil
}

// openNonDurable creates the artificial subscription backing a
// non-durable subscriber.
func (b *Broker) openNonDurable(topicName, consumerID string, sel *selector.Selector, selExpr string) (*subscription, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed || b.crashed {
		return nil, fmt.Errorf("broker %s: %w", b.name, jms.ErrClosed)
	}
	sub := &subscription{
		endpoint:  trace.EndpointForNonDurable(consumerID),
		topicName: topicName,
		mb:        newMailbox(b.mbCap),
		active:    true,
		sel:       sel,
		selExpr:   selExpr,
	}
	b.subs[sub.endpoint] = sub
	if b.topics[topicName] == nil {
		b.topics[topicName] = map[string]*subscription{}
	}
	b.topics[topicName][sub.endpoint] = sub
	return sub, nil
}

// closeNonDurable terminates a non-durable subscription, dropping its
// pending messages.
func (b *Broker) closeNonDurable(sub *subscription) {
	b.mu.Lock()
	delete(b.subs, sub.endpoint)
	if subs, ok := b.topics[sub.topicName]; ok {
		delete(subs, sub.endpoint)
	}
	b.mu.Unlock()
	b.dropEntries(sub.endpoint, sub.mb.drain())
	sub.mb.close()
}

// openDurable creates or re-activates the durable subscription
// (clientID, name) on topicName. Changing the topic or the selector of
// an existing subscription name is equivalent to unsubscribing and
// resubscribing, as in JMS.
func (b *Broker) openDurable(clientID, name, topicName string, sel *selector.Selector, selExpr string) (*subscription, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed || b.crashed {
		return nil, fmt.Errorf("broker %s: %w", b.name, jms.ErrClosed)
	}
	ep := trace.EndpointForDurable(clientID, name)
	if sub, ok := b.subs[ep]; ok {
		if sub.active {
			return nil, jms.ErrDurableActive
		}
		if sub.topicName == topicName && sub.selExpr == selExpr {
			sub.active = true
			return sub, nil
		}
		// Topic or selector changed: delete the old subscription and
		// fall through to create a fresh one.
		if err := b.deleteDurableLocked(sub); err != nil {
			return nil, err
		}
	}
	// Accepted trade-off: persisting the subscription is a blocking
	// group commit — an fsync on a sync WAL — under the broker write
	// lock, stalling every send/publish for its duration. Durable
	// open/unsubscribe are rare control-plane events, and holding the
	// lock keeps the registry and the stable store in lockstep; moving
	// the persist outside would need a reservation protocol so racing
	// opens/unsubscribes of the same name cannot persist out of order.
	if err := b.stable.AddSubscription(store.SubscriptionRecord{
		ClientID: clientID, Name: name, Topic: topicName, Selector: selExpr,
	}); err != nil {
		return nil, fmt.Errorf("broker %s: recording subscription: %w", b.name, err)
	}
	sub := &subscription{
		endpoint:  ep,
		topicName: topicName,
		durable:   true,
		clientID:  clientID,
		subName:   name,
		mb:        newMailbox(b.mbCap),
		active:    true,
		sel:       sel,
		selExpr:   selExpr,
	}
	b.subs[ep] = sub
	if b.topics[topicName] == nil {
		b.topics[topicName] = map[string]*subscription{}
	}
	b.topics[topicName][ep] = sub
	return sub, nil
}

// deactivateDurable releases the active claim on a durable subscription;
// the subscription keeps accumulating messages.
func (b *Broker) deactivateDurable(sub *subscription) {
	b.mu.Lock()
	defer b.mu.Unlock()
	sub.active = false
}

// unsubscribeDurable deletes the durable subscription (clientID, name).
func (b *Broker) unsubscribeDurable(clientID, name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	ep := trace.EndpointForDurable(clientID, name)
	sub, ok := b.subs[ep]
	if !ok {
		return jms.ErrUnknownSubscription
	}
	if sub.active {
		return jms.ErrDurableActive
	}
	return b.deleteDurableLocked(sub)
}

// deleteDurableLocked removes a durable subscription and its state.
// Callers hold b.mu.
func (b *Broker) deleteDurableLocked(sub *subscription) error {
	if err := b.stable.RemoveSubscription(sub.clientID, sub.subName); err != nil {
		return fmt.Errorf("broker %s: deleting subscription: %w", b.name, err)
	}
	delete(b.subs, sub.endpoint)
	if subs, ok := b.topics[sub.topicName]; ok {
		delete(subs, sub.endpoint)
	}
	b.dropEntries(sub.endpoint, sub.mb.drain())
	sub.mb.close()
	return nil
}
