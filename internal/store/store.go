// Package store provides the stable-storage substrate a JMS provider
// needs for its reliability guarantees: "Persistent messages are
// guaranteed to eventually arrive at its destination(s) even if failures
// (system or communication) occur" and durable subscriptions must
// "retain all the messages while the subscriber was inactive" (§2.1).
//
// Two implementations are provided: an in-memory stable store (survives
// the simulated crash of the broker that owns it, because the crash only
// discards the broker's volatile state) and a file-backed write-ahead
// log that survives real process restarts. The reference provider
// (internal/broker) records every persistent message and every durable
// subscription here, and rebuilds its durable state from Snapshot after
// an injected crash — the paper's §5 future-work feature.
//
// Every mutation is an Op, whose encoding is both the WAL record and the
// replication frame. Each store stages ops through one entry point and
// changes state only through Applier; Store and Staged are written once
// over that entry point.
package store

import (
	"fmt"
	"sort"
	"sync"

	"jmsharness/internal/jms"
)

// RecordID identifies a stored message within its store.
type RecordID uint64

// SubscriptionRecord is the durable-subscription metadata that must
// survive failures.
type SubscriptionRecord struct {
	// ClientID scopes the subscription name, as in JMS.
	ClientID string
	// Name is the application-chosen subscription name.
	Name string
	// Topic is the topic subscribed to.
	Topic string
	// Selector is the subscription's message selector ("" for none); it
	// is part of the durable subscription's identity.
	Selector string
}

// Key returns the identity key of the subscription.
func (r SubscriptionRecord) Key() string { return r.ClientID + ":" + r.Name }

// StoredMessage pairs a stored message with its record ID.
type StoredMessage struct {
	ID  RecordID
	Msg *jms.Message
	// Delivered records that the message was handed to a consumer at
	// least once before the snapshot. Recovery uses it to set the
	// JMSRedelivered flag on messages that survive a crash because they
	// were delivered but never acknowledged.
	Delivered bool
}

// State is a point-in-time snapshot of durable state, used for recovery.
type State struct {
	// Messages maps an endpoint (queue or durable-subscription
	// identifier) to its pending persistent messages in arrival order.
	Messages map[string][]StoredMessage
	// Subscriptions lists the durable subscriptions.
	Subscriptions []SubscriptionRecord
}

// Store is stable storage for a provider's durable state. All methods
// are safe for concurrent use.
type Store interface {
	// AddMessage durably records msg as pending on endpoint.
	AddMessage(endpoint string, msg *jms.Message) (RecordID, error)
	// RemoveMessage durably removes a previously added message (on
	// acknowledge/commit). Removing an unknown ID is an error.
	RemoveMessage(endpoint string, id RecordID) error
	// MarkDelivered durably records that the message was handed to a
	// consumer, so a post-crash redelivery can carry the JMSRedelivered
	// flag. Marking an unknown ID is a no-op (the record may have been
	// acknowledged concurrently); marking twice is idempotent.
	MarkDelivered(endpoint string, id RecordID) error
	// AddSubscription durably records a durable subscription.
	AddSubscription(sub SubscriptionRecord) error
	// RemoveSubscription durably deletes a durable subscription and any
	// messages pending for it.
	RemoveSubscription(clientID, name string) error
	// Snapshot returns the current durable state. The returned state
	// shares no mutable storage with the store.
	Snapshot() (*State, error)
	// Close releases resources. The store must not be used afterwards.
	Close() error
}

// Staged is an optional Store extension for pipelined producers.
// AddMessageStaged behaves like AddMessage except that it returns as
// soon as the record is ordered (applied to in-memory state and queued
// for commit); the returned wait closure blocks until the record is
// durable and must be called exactly once. Callers that need the
// blocking contract simply call wait immediately. Every store in this
// package implements it; stores whose AddMessage is already
// synchronous return a no-op wait.
// RemoveMessageStaged is the same split for acknowledgements: the
// remove is applied and queued, and the wait closure blocks until it
// is durable. A session acknowledging a batch of messages stages every
// remove first and then waits on all of them, so N acks share one
// group commit instead of paying N sequential fsync waits.
type Staged interface {
	AddMessageStaged(endpoint string, msg *jms.Message) (RecordID, func() error, error)
	RemoveMessageStaged(endpoint string, id RecordID) (func() error, error)
}

// noWait is the wait closure of stores whose AddMessage is durable (or
// as durable as it ever gets) before staging returns.
var noWait = func() error { return nil }

// stager is the one mutation entry point of every store in this
// package. stage applies op (assigning the record ID of an
// OpAddMessage, which it returns) and orders it for commit; the
// returned commit's wait blocks until op is durable.
type stager interface {
	stage(op Op) (RecordID, commit, error)
}

// ops writes Store's five mutations and Staged once, over a store's
// stage. Each store embeds it, set to itself.
type ops struct{ s stager }

// AddMessage implements Store.
func (o ops) AddMessage(endpoint string, msg *jms.Message) (RecordID, error) {
	id, c, err := o.s.stage(Op{Kind: OpAddMessage, Endpoint: endpoint, Msg: msg})
	if err == nil {
		err = c.wait()
	}
	if err != nil {
		return 0, err
	}
	return id, nil
}

// AddMessageStaged implements Staged.
func (o ops) AddMessageStaged(endpoint string, msg *jms.Message) (RecordID, func() error, error) {
	id, c, err := o.s.stage(Op{Kind: OpAddMessage, Endpoint: endpoint, Msg: msg})
	if err != nil {
		return 0, nil, err
	}
	return id, c.waitFunc(), nil
}

// RemoveMessage implements Store.
func (o ops) RemoveMessage(endpoint string, id RecordID) error {
	return o.do(Op{Kind: OpRemoveMessage, ID: id, Endpoint: endpoint})
}

// RemoveMessageStaged implements Staged.
func (o ops) RemoveMessageStaged(endpoint string, id RecordID) (func() error, error) {
	_, c, err := o.s.stage(Op{Kind: OpRemoveMessage, ID: id, Endpoint: endpoint})
	if err != nil {
		return nil, err
	}
	return c.waitFunc(), nil
}

// MarkDelivered implements Store.
func (o ops) MarkDelivered(endpoint string, id RecordID) error {
	return o.do(Op{Kind: OpMarkDelivered, ID: id, Endpoint: endpoint})
}

// AddSubscription implements Store.
func (o ops) AddSubscription(sub SubscriptionRecord) error {
	return o.do(Op{Kind: OpAddSubscription, Sub: sub})
}

// RemoveSubscription implements Store.
func (o ops) RemoveSubscription(clientID, name string) error {
	return o.do(Op{Kind: OpRemoveSubscription, ClientID: clientID, Name: name})
}

// do stages op and waits for it: the blocking form of every mutation.
func (o ops) do(op Op) error {
	_, c, err := o.s.stage(op)
	if err != nil {
		return err
	}
	return c.wait()
}

// Memory is an in-memory Store. It models the stable storage of a
// simulated provider: a broker crash discards the broker, not its
// Memory store, so recovery semantics can be tested without disk I/O.
type Memory struct {
	ops
	mu     sync.Mutex
	nextID RecordID
	msgs   map[string]map[RecordID]*jms.Message
	deliv  map[string]map[RecordID]bool
	order  map[string][]RecordID
	subs   map[string]SubscriptionRecord
	closed bool
	// app stages the store's own ops, whose IDs are already this
	// store's record IDs.
	app Applier
	// stream, when set by NewStreamed, receives every mutation before
	// the call that made it returns.
	stream *Stream
}

// NewMemory returns an empty in-memory store.
func NewMemory() *Memory {
	m := &Memory{
		msgs:  map[string]map[RecordID]*jms.Message{},
		deliv: map[string]map[RecordID]bool{},
		order: map[string][]RecordID{},
		subs:  map[string]SubscriptionRecord{},
	}
	m.ops = ops{m}
	m.app = Applier{Dst: m, own: true}
	return m
}

// NewStreamed attaches s to m, so every mutation of m is also published
// to s, giving Memory-backed nodes the same replication feed the WAL
// produces from its group-commit loop (WALOptions.Stream). A Memory
// commits as it applies, so — like the WAL path — a streamed record is
// always durable at the source. Causally related records (an
// acknowledge can only follow the send that produced its ID) publish in
// causal order because each op publishes before its call returns, the
// staged ones included: once staging returns, the broker may hand the
// message to a consumer whose acknowledge publishes a RemoveMessage op,
// and a follower must never see that remove before its add. Closing m
// closes s. Call it before m is shared.
func NewStreamed(m *Memory, s *Stream) *Memory {
	m.stream = s
	return m
}

var (
	_ Store  = (*Memory)(nil)
	_ Staged = (*Memory)(nil)
)

// stage implements stager. A Memory has no commit latency, so its
// commit is always the already-durable zero commit.
func (m *Memory) stage(op Op) (RecordID, commit, error) {
	id, changed, err := m.app.apply(op)
	if err != nil || !changed || m.stream == nil {
		return id, commit{}, err
	}
	if op.Kind == OpAddMessage {
		op.ID = id
	}
	buf := encPool.Get().(*[]byte)
	e := jms.NewEncoder(*buf)
	AppendOp(e, op)
	m.stream.Publish(e.Bytes()) // copies the payload
	*buf = e.Bytes()
	putEnc(buf)
	return id, commit{}, nil
}

// Snapshot implements Store.
func (m *Memory) Snapshot() (*State, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, fmt.Errorf("store: %w", jms.ErrClosed)
	}
	st := &State{Messages: map[string][]StoredMessage{}}
	for ep, ids := range m.order {
		live := m.msgs[ep]
		var out []StoredMessage
		for _, id := range ids {
			if msg, ok := live[id]; ok {
				out = append(out, StoredMessage{ID: id, Msg: msg.Clone(), Delivered: m.deliv[ep][id]})
			}
		}
		if len(out) > 0 {
			st.Messages[ep] = out
		}
	}
	for _, sub := range m.subs {
		st.Subscriptions = append(st.Subscriptions, sub)
	}
	sort.Slice(st.Subscriptions, func(i, j int) bool {
		return st.Subscriptions[i].Key() < st.Subscriptions[j].Key()
	})
	return st, nil
}

// Close implements Store.
func (m *Memory) Close() error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	if m.stream != nil {
		m.stream.Close()
	}
	return nil
}

// Applier replays a stream of ops against Dst, translating the source
// store's record IDs into Dst's. It is the id-mapping core shared by
// WAL replay, live WAL mutations and replication followers, and — with
// translation off — the way a Memory applies its own ops. Not safe for
// concurrent use, except a Memory's own Applier, which keeps no state
// outside Dst's lock.
type Applier struct {
	Dst *Memory
	ids map[string]map[RecordID]RecordID
	// own marks op IDs as Dst's own record IDs: nothing is translated
	// and ids stays nil.
	own bool
}

// Apply applies one op. Mark-delivered of an unknown record is a no-op
// (it may race an acknowledge, exactly as in Store.MarkDelivered);
// removing an unknown record is an error.
func (a *Applier) Apply(op Op) error {
	_, _, err := a.apply(op)
	return err
}

// apply is the one place any store in this package changes state. It
// returns Dst's ID for the op's record and whether the op changed Dst:
// a no-op mark did not, so it needs no log record and no publication.
func (a *Applier) apply(op Op) (RecordID, bool, error) {
	m := a.Dst
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, false, fmt.Errorf("store: %w", jms.ErrClosed)
	}
	ep := op.Endpoint
	switch op.Kind {
	case OpAddMessage:
		m.nextID++
		if m.msgs[ep] == nil {
			m.msgs[ep] = map[RecordID]*jms.Message{}
		}
		m.msgs[ep][m.nextID] = op.Msg.Clone()
		m.order[ep] = append(m.order[ep], m.nextID)
		if !a.own {
			a.Map(ep, op.ID, m.nextID)
		}
		return m.nextID, true, nil
	case OpRemoveMessage:
		id, ok := a.dstID(ep, op.ID)
		if _, live := m.msgs[ep][id]; !ok || !live {
			return 0, false, fmt.Errorf("store: remove unknown record %d on %q", op.ID, ep)
		}
		delete(m.msgs[ep], id)
		delete(m.deliv[ep], id)
		delete(a.ids[ep], op.ID)
		return id, true, nil
	case OpMarkDelivered:
		id, ok := a.dstID(ep, op.ID)
		if _, live := m.msgs[ep][id]; !ok || !live {
			return 0, false, nil // acknowledged concurrently; nothing to mark
		}
		if m.deliv[ep] == nil {
			m.deliv[ep] = map[RecordID]bool{}
		}
		m.deliv[ep][id] = true
		return id, true, nil
	case OpAddSubscription:
		m.subs[op.Sub.Key()] = op.Sub
	case OpRemoveSubscription:
		key := op.ClientID + ":" + op.Name
		if _, ok := m.subs[key]; !ok {
			return 0, false, fmt.Errorf("store: %w: %s", jms.ErrUnknownSubscription, key)
		}
		delete(m.subs, key)
		// Drop pending messages for the subscription's endpoint.
		ep = op.EndpointOf()
		delete(m.msgs, ep)
		delete(m.deliv, ep)
		delete(m.order, ep)
		delete(a.ids, ep)
	default:
		return 0, false, fmt.Errorf("store: unknown op kind %d", op.Kind)
	}
	return 0, true, nil
}

// dstID translates a source ID; an own Applier's IDs need none.
func (a *Applier) dstID(endpoint string, src RecordID) (RecordID, bool) {
	if a.own {
		return src, true
	}
	return a.Lookup(endpoint, src)
}

// Map records a source→destination ID translation.
func (a *Applier) Map(endpoint string, src, dst RecordID) {
	if a.ids == nil {
		a.ids = map[string]map[RecordID]RecordID{}
	}
	if a.ids[endpoint] == nil {
		a.ids[endpoint] = map[RecordID]RecordID{}
	}
	a.ids[endpoint][src] = dst
}

// Lookup translates a source ID.
func (a *Applier) Lookup(endpoint string, src RecordID) (RecordID, bool) {
	m, ok := a.ids[endpoint]
	if !ok {
		return 0, false
	}
	id, ok := m[src]
	return id, ok
}

// Reset drops every translation, for a full resync.
func (a *Applier) Reset() { a.ids = nil }
