package main

import (
	"sync"
	"sync/atomic"
	"time"

	"jmsharness/internal/jms"
	"jmsharness/internal/store"
)

// layers collects the traced run's per-layer samples. Its decorators sit
// on seams the stacks already expose — the store handed to broker.New
// or returned from replica.Options.OpenStore, and the factory handed to
// wire.NewServer or to the in-process clients — and time each call from
// outside. Each decorator implements store.Staged or jms.AsyncProducer
// exactly when the value it wraps does: the broker and the wire server
// discover those by type assertion, and hiding them would send the
// traced run down the blocking path. A nil *layers is the untraced run;
// its wrap methods return their argument unchanged.
type layers struct {
	storeAdd, storeMark, storeRemove samples
	// send and receive time the provider calls a wrapped factory serves:
	// the in-process broker's, as the wire server or the clients see them.
	send, receive    samples
	staged, blocking atomic.Int64 // store mutations by form

	// lastSeq and lastAdd attribute the latest inner-store add to its
	// message, so a blocking send can subtract it; on the replicated
	// stack the rest of the send is the replication barrier.
	mu      sync.Mutex
	lastSeq int64
	lastAdd time.Duration
	// served holds how long the provider behind a wrapped factory took to
	// send each message, by sequence number, until the client looks it up.
	served map[int64]time.Duration
}

// samples is a list of durations in nanoseconds, safe for concurrent use.
type samples struct {
	mu sync.Mutex
	ns []int64
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.ns = append(s.ns, int64(d))
	s.mu.Unlock()
}

// take returns the samples and starts a new list.
func (s *samples) take() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.ns
	s.ns = nil
	return out
}

// reset drops everything recorded so far, such as the warm-up.
func (l *layers) reset() {
	for _, s := range []*samples{&l.storeAdd, &l.storeMark, &l.storeRemove, &l.send, &l.receive} {
		s.take()
	}
	l.staged.Store(0)
	l.blocking.Store(0)
	l.mu.Lock()
	l.served = nil
	l.mu.Unlock()
}

func (l *layers) added(seq int64, start time.Time) {
	d := time.Since(start)
	l.storeAdd.add(d)
	l.mu.Lock()
	l.lastSeq, l.lastAdd = seq, d
	l.mu.Unlock()
}

// addOf returns how long message seq's inner-store add took, if it was
// the latest add.
func (l *layers) addOf(seq int64) (time.Duration, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastAdd, l.lastSeq == seq
}

// sent records that the provider behind a wrapped factory took d to
// send message seq.
func (l *layers) sent(seq int64, d time.Duration) {
	l.send.add(d)
	l.mu.Lock()
	if l.served == nil {
		l.served = map[int64]time.Duration{}
	}
	l.served[seq] = d
	l.mu.Unlock()
}

// sendOf returns, and forgets, how long the provider behind a wrapped
// factory took to send message seq.
func (l *layers) sendOf(seq int64) (time.Duration, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	d, ok := l.served[seq]
	delete(l.served, seq)
	return d, ok
}

// wrapStore times inner's message mutations.
func (l *layers) wrapStore(inner store.Store) store.Store {
	if l == nil {
		return inner
	}
	t := &timedStore{Store: inner, l: l}
	if st, ok := inner.(store.Staged); ok {
		return &timedStagedStore{timedStore: t, staged: st}
	}
	return t
}

type timedStore struct {
	store.Store
	l *layers
}

func (s *timedStore) AddMessage(endpoint string, msg *jms.Message) (store.RecordID, error) {
	start := time.Now()
	id, err := s.Store.AddMessage(endpoint, msg)
	s.l.blocking.Add(1)
	s.l.added(msg.Int64Property(propSeq), start)
	return id, err
}

func (s *timedStore) RemoveMessage(endpoint string, id store.RecordID) error {
	start := time.Now()
	err := s.Store.RemoveMessage(endpoint, id)
	s.l.blocking.Add(1)
	s.l.storeRemove.add(time.Since(start))
	return err
}

func (s *timedStore) MarkDelivered(endpoint string, id store.RecordID) error {
	start := time.Now()
	err := s.Store.MarkDelivered(endpoint, id)
	s.l.blocking.Add(1)
	s.l.storeMark.add(time.Since(start))
	return err
}

// timedStagedStore is a timedStore over a store.Staged. A staged call is
// timed from staging until its wait returns.
type timedStagedStore struct {
	*timedStore
	staged store.Staged
}

func (s *timedStagedStore) AddMessageStaged(endpoint string, msg *jms.Message) (store.RecordID, func() error, error) {
	start := time.Now()
	seq := msg.Int64Property(propSeq)
	id, wait, err := s.staged.AddMessageStaged(endpoint, msg)
	if err != nil {
		return id, wait, err
	}
	s.l.staged.Add(1)
	return id, func() error {
		err := wait()
		s.l.added(seq, start)
		return err
	}, nil
}

func (s *timedStagedStore) RemoveMessageStaged(endpoint string, id store.RecordID) (func() error, error) {
	start := time.Now()
	wait, err := s.staged.RemoveMessageStaged(endpoint, id)
	if err != nil {
		return wait, err
	}
	s.l.staged.Add(1)
	return func() error {
		err := wait()
		s.l.storeRemove.add(time.Since(start))
		return err
	}, nil
}

// wrapFactory times the sends of inner's producers and the receives of
// its consumers.
func (l *layers) wrapFactory(inner jms.ConnectionFactory) jms.ConnectionFactory {
	if l == nil {
		return inner
	}
	return &timedFactory{inner: inner, l: l}
}

type timedFactory struct {
	inner jms.ConnectionFactory
	l     *layers
}

func (f *timedFactory) CreateConnection() (jms.Connection, error) {
	c, err := f.inner.CreateConnection()
	if err != nil {
		return nil, err
	}
	return &timedConn{Connection: c, l: f.l}, nil
}

type timedConn struct {
	jms.Connection
	l *layers
}

func (c *timedConn) CreateSession(transacted bool, ackMode jms.AckMode) (jms.Session, error) {
	s, err := c.Connection.CreateSession(transacted, ackMode)
	if err != nil {
		return nil, err
	}
	return &timedSession{Session: s, l: c.l}, nil
}

// timedSession times the producers and consumers the benchmark and the
// wire server create; durable subscribers and browsers pass through.
type timedSession struct {
	jms.Session
	l *layers
}

func (s *timedSession) CreateProducer(dest jms.Destination) (jms.Producer, error) {
	p, err := s.Session.CreateProducer(dest)
	if err != nil {
		return nil, err
	}
	t := &timedProducer{Producer: p, l: s.l}
	if ap, ok := p.(jms.AsyncProducer); ok {
		return &timedAsyncProducer{timedProducer: t, async: ap}, nil
	}
	return t, nil
}

func (s *timedSession) CreateConsumer(dest jms.Destination) (jms.Consumer, error) {
	return s.timeConsumer(s.Session.CreateConsumer(dest))
}

func (s *timedSession) CreateConsumerWithSelector(dest jms.Destination, selectorExpr string) (jms.Consumer, error) {
	return s.timeConsumer(s.Session.CreateConsumerWithSelector(dest, selectorExpr))
}

func (s *timedSession) timeConsumer(c jms.Consumer, err error) (jms.Consumer, error) {
	if err != nil {
		return nil, err
	}
	return &timedConsumer{Consumer: c, l: s.l}, nil
}

type timedProducer struct {
	jms.Producer
	l *layers
}

func (p *timedProducer) Send(msg *jms.Message, opts jms.SendOptions) error {
	start := time.Now()
	err := p.Producer.Send(msg, opts)
	p.l.sent(msg.Int64Property(propSeq), time.Since(start))
	return err
}

// timedAsyncProducer times a pipelined send from SendAsync until its
// completion resolves.
type timedAsyncProducer struct {
	*timedProducer
	async jms.AsyncProducer
}

func (p *timedAsyncProducer) SendAsync(msg *jms.Message, opts jms.SendOptions) (jms.Completion, error) {
	start := time.Now()
	seq := msg.Int64Property(propSeq)
	done, err := p.async.SendAsync(msg, opts)
	if err != nil {
		return nil, err
	}
	return func() error {
		err := done()
		p.l.sent(seq, time.Since(start))
		return err
	}, nil
}

type timedConsumer struct {
	jms.Consumer
	l *layers
}

func (c *timedConsumer) Receive(timeout time.Duration) (*jms.Message, error) {
	start := time.Now()
	msg, err := c.Consumer.Receive(timeout)
	if msg != nil {
		c.l.receive.add(serviceTime(start, msg))
	}
	return msg, err
}

// serviceTime is how long a receive took to hand msg over once msg was
// available: from the later of the call's start and the message's send
// timestamp.
func serviceTime(start time.Time, msg *jms.Message) time.Duration {
	if msg.Timestamp.After(start) {
		start = msg.Timestamp
	}
	return time.Since(start)
}
