package store

import (
	"errors"
	"fmt"
	"sync"

	"jmsharness/internal/jms"
)

// This file is the store half of destination replication: a committed
// mutation stream a follower can subscribe to, plus the shared record
// codec (Op), which is both the WAL record and the replication frame.
// The WAL publishes into a Stream from its group-commit loop (so a
// record is only ever streamed after it is durable), and a Memory built
// by NewStreamed publishes each op before its call returns, with the
// same contract.

// OpKind tags one durable mutation. The values double as the WAL's
// on-disk record type bytes, so a WAL payload and a replication-stream
// payload are the same bytes.
type OpKind byte

const (
	OpAddMessage OpKind = iota + 1
	OpRemoveMessage
	OpAddSubscription
	OpRemoveSubscription
	OpMarkDelivered
)

// Op is one decoded durable mutation.
type Op struct {
	Kind OpKind
	// ID is the originating store's record ID for message ops. An
	// Applier maps it to the destination store's own ID space.
	ID       RecordID
	Endpoint string
	Msg      *jms.Message       // OpAddMessage only
	Sub      SubscriptionRecord // OpAddSubscription only
	ClientID string             // OpRemoveSubscription only
	Name     string             // OpRemoveSubscription only
}

// AppendOp encodes op into e in the shared record format: 1 type byte
// followed by type-specific fields.
func AppendOp(e *jms.Encoder, op Op) {
	e.Byte(byte(op.Kind))
	switch op.Kind {
	case OpAddMessage:
		e.Uvarint(uint64(op.ID))
		e.String(op.Endpoint)
		op.Msg.EncodeTo(e)
	case OpRemoveMessage, OpMarkDelivered:
		e.Uvarint(uint64(op.ID))
		e.String(op.Endpoint)
	case OpAddSubscription:
		e.String(op.Sub.ClientID)
		e.String(op.Sub.Name)
		e.String(op.Sub.Topic)
		e.String(op.Sub.Selector)
	case OpRemoveSubscription:
		e.String(op.ClientID)
		e.String(op.Name)
	}
}

// DecodeOp parses one record payload.
func DecodeOp(payload []byte) (Op, error) {
	if len(payload) == 0 {
		return Op{}, errors.New("store: empty record")
	}
	op := Op{Kind: OpKind(payload[0])}
	d := jms.NewDecoder(payload[1:])
	switch op.Kind {
	case OpAddMessage:
		op.ID = RecordID(d.Uvarint())
		op.Endpoint = d.String()
		var msg jms.Message
		msg.DecodeFrom(d)
		op.Msg = &msg
	case OpRemoveMessage, OpMarkDelivered:
		op.ID = RecordID(d.Uvarint())
		op.Endpoint = d.String()
	case OpAddSubscription:
		op.Sub = SubscriptionRecord{
			ClientID: d.String(), Name: d.String(), Topic: d.String(), Selector: d.String(),
		}
	case OpRemoveSubscription:
		op.ClientID, op.Name = d.String(), d.String()
	default:
		return Op{}, fmt.Errorf("store: unknown record type %d", payload[0])
	}
	if err := d.Err(); err != nil {
		return Op{}, err
	}
	return op, nil
}

// EndpointOf returns the endpoint a message op targets, or the durable
// subscription endpoint for subscription ops ("" when the op has no
// endpoint identity). Replication uses it to pick the op's follower.
func (op Op) EndpointOf() string {
	switch op.Kind {
	case OpAddMessage, OpRemoveMessage, OpMarkDelivered:
		return op.Endpoint
	case OpAddSubscription:
		return "sub:" + op.Sub.ClientID + ":" + op.Sub.Name
	case OpRemoveSubscription:
		return "sub:" + op.ClientID + ":" + op.Name
	}
	return ""
}

// ErrStreamTrimmed reports that a subscriber's position was trimmed out
// of the stream's retained window; the subscriber must full-resync.
var ErrStreamTrimmed = errors.New("store: stream position trimmed")

// ErrStreamClosed reports the stream was closed.
var ErrStreamClosed = errors.New("store: stream closed")

// StreamRecord is one committed record with its stream sequence number.
// Sequence numbers start at 1 and are dense.
type StreamRecord struct {
	Seq     uint64
	Payload []byte // immutable after publication
}

// Stream is an in-order log of committed store records that followers
// subscribe to. Publishers append only records that are already durable
// in the source store, so a subscriber replaying the stream can never
// observe a record the source might lose.
type Stream struct {
	mu     sync.Mutex
	recs   []StreamRecord
	base   uint64 // highest trimmed-away sequence number; recs start at base+1
	bytes  int64  // total payload bytes retained
	subs   map[*StreamSub]struct{}
	closed bool
}

// NewStream returns an empty stream.
func NewStream() *Stream {
	return &Stream{subs: map[*StreamSub]struct{}{}}
}

// Publish appends payloads (copied) in order, assigning sequence
// numbers, and wakes subscribers. It must be called only after the
// records are committed in the source store.
func (s *Stream) Publish(payloads ...[]byte) {
	if len(payloads) == 0 {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	seq := s.base + uint64(len(s.recs))
	for _, p := range payloads {
		seq++
		cp := make([]byte, len(p))
		copy(cp, p)
		s.recs = append(s.recs, StreamRecord{Seq: seq, Payload: cp})
		s.bytes += int64(len(cp))
	}
	for sub := range s.subs {
		sub.wake()
	}
	s.mu.Unlock()
}

// LastSeq returns the sequence number of the newest published record
// (0 when nothing was ever published).
func (s *Stream) LastSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.base + uint64(len(s.recs))
}

// Bytes returns the total payload bytes currently retained.
func (s *Stream) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// SizeOfRange returns the payload bytes of retained records in
// (after, LastSeq] — a follower's byte lag at position after.
func (s *Stream) SizeOfRange(after uint64) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, r := range s.recs {
		if r.Seq > after {
			n += int64(len(r.Payload))
		}
	}
	return n
}

// OldestRetained returns the highest trimmed-away sequence number:
// retained records start at OldestRetained()+1, and Subscribe at any
// position below it fails with ErrStreamTrimmed. Zero means the full
// history is retained.
func (s *Stream) OldestRetained() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.base
}

// TrimTo discards retained records with Seq ≤ seq. Subscribers behind
// the trim point get ErrStreamTrimmed and must full-resync.
func (s *Stream) TrimTo(seq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq <= s.base {
		return
	}
	last := s.base + uint64(len(s.recs))
	if seq > last {
		seq = last
	}
	drop := int(seq - s.base)
	for _, r := range s.recs[:drop] {
		s.bytes -= int64(len(r.Payload))
	}
	s.recs = append([]StreamRecord(nil), s.recs[drop:]...)
	s.base = seq
}

// Subscribe returns a subscriber positioned just after sequence number
// after (0 replays from the beginning). Fails with ErrStreamTrimmed if
// that position is no longer retained.
func (s *Stream) Subscribe(after uint64) (*StreamSub, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrStreamClosed
	}
	if after < s.base {
		return nil, fmt.Errorf("%w: want records after %d, retained start at %d", ErrStreamTrimmed, after, s.base+1)
	}
	sub := &StreamSub{s: s, next: after + 1, notify: make(chan struct{}, 1)}
	s.subs[sub] = struct{}{}
	return sub, nil
}

// Close wakes and invalidates all subscribers.
func (s *Stream) Close() {
	s.mu.Lock()
	s.closed = true
	for sub := range s.subs {
		sub.wake()
	}
	s.subs = map[*StreamSub]struct{}{}
	s.mu.Unlock()
}

// StreamSub is one subscriber's cursor into a Stream.
type StreamSub struct {
	s      *Stream
	next   uint64
	notify chan struct{}
}

func (sub *StreamSub) wake() {
	select {
	case sub.notify <- struct{}{}:
	default:
	}
}

// Next returns the batch of records after the cursor, advancing it.
// With no records pending it blocks until a publish, a Stream close, or
// a receive on stop. Returns (nil, nil) when stopped.
func (sub *StreamSub) Next(stop <-chan struct{}) ([]StreamRecord, error) {
	for {
		sub.s.mu.Lock()
		if sub.next <= sub.s.base {
			sub.s.mu.Unlock()
			return nil, ErrStreamTrimmed
		}
		start := int(sub.next - sub.s.base - 1)
		if start < len(sub.s.recs) {
			batch := sub.s.recs[start:]
			sub.next = sub.s.base + uint64(len(sub.s.recs)) + 1
			sub.s.mu.Unlock()
			return batch, nil
		}
		if sub.s.closed {
			sub.s.mu.Unlock()
			return nil, ErrStreamClosed
		}
		sub.s.mu.Unlock()
		select {
		case <-sub.notify:
		case <-stop:
			return nil, nil
		}
	}
}

// Close detaches the subscriber from the stream.
func (sub *StreamSub) Close() {
	sub.s.mu.Lock()
	delete(sub.s.subs, sub)
	sub.s.mu.Unlock()
}
