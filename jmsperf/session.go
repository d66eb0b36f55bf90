package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jmsharness/internal/jms"
	"jmsharness/internal/obs"
	"jmsharness/internal/trace"
)

const (
	// producerID names the workload's one producer in message properties
	// and trace events.
	producerID = "p0"
	// warmupBatch is how many warm-up messages are sent before they are
	// received; warmupWait bounds each warm-up receive.
	warmupBatch = 16
	warmupWait  = 10 * time.Second
	// receivePoll bounds each measured Receive, so the consumer notices
	// the producer has finished and cuts slices on time.
	receivePoll = 50 * time.Millisecond
	// subWindows is how many equal slices of a measured window the
	// consumer cuts its CPU and delivery counts at; an end-to-end metric
	// reports the median over slices, so a burst of host noise moves at
	// most one slice.
	subWindows = 15
)

// session is one set-up stack with its producer and consumers connected
// and warmed up. The producer and the consumers use one connection each.
type session struct {
	w     *workload
	st    *stack
	l     *layers      // nil outside the traced run
	log   trace.Logger // events for the model cross-check; nil outside the traced run
	seed  uint64
	dest  jms.Destination
	opts  jms.SendOptions
	conns []jms.Connection
	prod  jms.Producer
	cons  []jms.Consumer
	chk   *checker
	sent  int64 // sequence number of the last message sent
	// drain bounds how long the consumer waits, once the producer has
	// stopped, for deliveries that never come; only a lossy provider
	// waits it out.
	drain time.Duration
}

// open builds the workload's stack in dir, connects the clients and runs
// the warm-up batch.
func open(w *workload, l *layers, log trace.Logger, dir string, seed uint64) (*session, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st, err := w.build(l, dir, seed)
	if err != nil {
		return nil, fmt.Errorf("building the stack: %w", err)
	}
	s := &session{
		w: w, st: st, l: l, log: log, seed: seed,
		dest:  w.destination(seed),
		opts:  jms.SendOptions{Mode: w.mode, Priority: jms.PriorityDefault},
		chk:   newChecker(seed, w.body, w.groups()),
		drain: 5 * time.Second,
	}
	if err := s.connect(); err != nil {
		s.close()
		return nil, fmt.Errorf("connecting: %w", err)
	}
	if err := s.warmup(); err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

func (s *session) connect() error {
	newConn := func() (jms.Connection, error) {
		c, err := s.st.factory.CreateConnection()
		if err == nil {
			s.conns = append(s.conns, c)
		}
		return c, err
	}
	pc, err := newConn()
	if err != nil {
		return err
	}
	ps, err := pc.CreateSession(false, jms.AckAuto)
	if err != nil {
		return err
	}
	if s.prod, err = ps.CreateProducer(s.dest); err != nil {
		return err
	}
	cc, err := newConn()
	if err != nil {
		return err
	}
	for g := range s.w.groups() {
		cs, err := cc.CreateSession(false, jms.AckAuto)
		if err != nil {
			return err
		}
		c, err := cs.CreateConsumer(s.dest)
		if err != nil {
			return err
		}
		s.cons = append(s.cons, c)
		s.logConsumer(trace.EventConsumerOpen, g)
	}
	return cc.Start()
}

func (s *session) close() {
	for g := range s.cons {
		s.logConsumer(trace.EventConsumerClose, g)
	}
	for _, c := range s.conns {
		_ = c.Close()
	}
	s.st.close()
}

// message builds message seq; the seed and seq fix its body bytes.
func (s *session) message(seq int64) *jms.Message {
	body := make([]byte, s.w.body)
	fillBody(body, s.seed, seq)
	msg := jms.NewBytesMessage(body)
	msg.SetProperty(propProducer, jms.Str(producerID))
	msg.SetProperty(propSeq, jms.Int64(seq))
	return msg
}

// warmup sends the workload's warm-up messages warmupBatch at a time and
// receives each batch on every consumer group before sending the next.
func (s *session) warmup() error {
	ap, async := s.prod.(jms.AsyncProducer)
	type staged struct {
		seq  int64
		msg  *jms.Message
		done jms.Completion
	}
	batch := make([]staged, 0, warmupBatch)
	for left := s.w.warmup; left > 0; left -= len(batch) {
		batch = batch[:0]
		for range min(warmupBatch, left) {
			seq := s.sent + 1
			msg := s.message(seq)
			s.logSend(trace.EventSendStart, seq, msg, nil)
			done := jms.CompletedSend
			var err error
			if async {
				done, err = ap.SendAsync(msg, s.opts)
			} else {
				err = s.prod.Send(msg, s.opts)
			}
			if err != nil {
				s.logSend(trace.EventSendEnd, seq, msg, err)
				return err
			}
			s.sent = seq
			batch = append(batch, staged{seq, msg, done})
		}
		for _, b := range batch {
			err := b.done()
			s.logSend(trace.EventSendEnd, b.seq, b.msg, err)
			if err != nil {
				return err
			}
		}
		for range batch {
			for g, c := range s.cons {
				msg, err := c.Receive(warmupWait)
				if err != nil {
					return err
				}
				if msg == nil {
					return fmt.Errorf("consumer %d received nothing within %v", g, warmupWait)
				}
				s.deliver(g, msg)
			}
		}
	}
	return nil
}

// measurement is what one measured window observed. Samples are in
// nanoseconds; each *At slice holds its samples' offsets into the window.
type measurement struct {
	d            time.Duration
	sent         int64   // messages sent in the window
	deliveries   int64   // deliveries of those messages, whenever received
	e2e, e2eAt   []int64 // per delivery from the message's origin (see produce), at receipt
	send, sendAt []int64 // per send until it returned or its completion resolved, at its start
	late         []int64 // open loop: how late each send started against its due time
	receive      []int64 // traced run: Receive calls, from the message's availability
	barrier      []int64 // traced run: each blocking send minus its inner-store add
	overhead     []int64 // traced run: each send minus the same message's send behind the wire server
	backlogMax   int64   // traced run: peak broker backlog seen after each send
	degrades     int     // replication links degraded during the window
	use          usage   // what the process used from window start to drain end
	// cuts are taken at the window's start, at each slice boundary, and
	// once the drain has ended.
	cuts []cut
}

// cut is a reading of the clock, the process CPU time and the
// measurement's delivery count at one instant.
type cut struct {
	at         time.Time
	cpu        time.Duration
	deliveries int64
}

// window is the state the producer and the consumer share while one
// window is measured.
type window struct {
	first    int64         // sequence number of the window's first message
	t0, end  time.Time     // the window; sends start only inside it
	interval time.Duration // open loop: spacing of due times; 0 for a closed loop
	// origins holds, by sequence slot, when each message's latency
	// starts (ns after t0): the open loop's whole window, or a ring of
	// twice the closed loop's window.
	origins  []atomic.Int64
	received atomic.Int64  // closed loop: window messages received
	space    chan struct{} // closed loop: a receive made room; closed when the consumer returns
	final    atomic.Int64  // last sequence number sent, valid once done is set
	done     atomic.Bool
}

func (win *window) slot(seq int64) *atomic.Int64 {
	return &win.origins[(seq-win.first)%int64(len(win.origins))]
}

var errConsumerStopped = errors.New("the consumer stopped")

// measure offers the workload's load for d and then drains it: the
// producer runs on its own goroutine, the consumer on the caller's.
func (s *session) measure(d time.Duration) (*measurement, error) {
	s.st.reg.Reset()
	if s.l != nil {
		s.l.reset()
	}
	eventsBefore := 0
	if s.st.events != nil {
		eventsBefore = len(s.st.events())
	}
	m := &measurement{d: d}
	win := &window{first: s.sent + 1, space: make(chan struct{}, 1)}
	if s.w.rate > 0 {
		win.interval = time.Duration(float64(time.Second) / s.w.rate)
		n := int(d/win.interval) + 1
		win.origins = make([]atomic.Int64, n)
		m.send, m.sendAt = make([]int64, 0, n), make([]int64, 0, n)
		m.late = make([]int64, 0, n)
		m.e2e, m.e2eAt = make([]int64, 0, n*len(s.cons)), make([]int64, 0, n*len(s.cons))
	} else {
		win.origins = make([]atomic.Int64, 2*s.w.window)
	}
	runtime.GC()
	before := readUsage()
	win.t0 = time.Now()
	win.end = win.t0.Add(d)
	m.cuts = append(m.cuts, cut{at: win.t0, cpu: before.cpu})
	var wg sync.WaitGroup
	var prodErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		prodErr = s.produce(win, m)
	}()
	consErr := s.consume(win, m)
	wg.Wait()
	after := readUsage()
	m.use = after.since(before)
	m.cuts = append(m.cuts, cut{at: time.Now(), cpu: after.cpu, deliveries: m.deliveries})
	m.sent = s.sent - win.first + 1
	if s.st.events != nil {
		for _, ev := range s.st.events()[eventsBefore:] {
			if strings.Contains(ev, ": degraded") {
				m.degrades++
			}
		}
	}
	if err := errors.Join(prodErr, consErr); err != nil {
		return nil, err
	}
	return m, nil
}

// produce sends the window's messages: on the open loop's schedule, or
// whenever the closed loop's window has room. A pipelined producer keeps
// up to the window's worth of completions pending and settles the oldest
// first.
func (s *session) produce(win *window, m *measurement) (err error) {
	defer func() {
		win.final.Store(s.sent)
		win.done.Store(true)
	}()
	ap, async := s.prod.(jms.AsyncProducer)
	type inflight struct {
		seq   int64
		msg   *jms.Message
		start time.Time
		done  jms.Completion
	}
	var pending []inflight
	// record samples the send of message seq, which lasted took. The traced
	// run also takes the wire's share of it: the send less the same
	// message's send behind the wire server.
	record := func(seq int64, start time.Time, took time.Duration) {
		m.send = append(m.send, int64(took))
		m.sendAt = append(m.sendAt, int64(start.Sub(win.t0)))
		if s.l == nil {
			return
		}
		if served, ok := s.l.sendOf(seq); ok {
			m.overhead = append(m.overhead, int64(took-served))
		}
	}
	settle := func() error {
		f := pending[0]
		pending = pending[1:]
		err := f.done()
		record(f.seq, f.start, time.Since(f.start))
		s.logSend(trace.EventSendEnd, f.seq, f.msg, err)
		return err
	}
	defer func() {
		for len(pending) > 0 {
			if serr := settle(); serr != nil && err == nil {
				err = serr
			}
		}
	}()
	var backlog *obs.Gauge
	if s.l != nil {
		backlog = s.st.reg.Gauge("broker.backlog")
	}
	// closes fires when the window ends, so a closed loop whose window
	// stays full, as on a provider that loses messages, still stops.
	closes := time.NewTimer(time.Until(win.end))
	defer closes.Stop()
	free := win.t0 // when the previous send returned
	for i := int64(0); ; i++ {
		seq := win.first + i
		var due time.Time
		if win.interval > 0 {
			due = win.t0.Add(time.Duration(i) * win.interval)
			if !due.Before(win.end) {
				return nil
			}
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
		} else {
			for i-win.received.Load() >= int64(s.w.window) && time.Now().Before(win.end) {
				if len(pending) > 0 {
					if err := settle(); err != nil {
						return err
					}
					continue
				}
				select {
				case _, ok := <-win.space:
					if !ok {
						return errConsumerStopped
					}
				case <-closes.C:
					return nil
				}
			}
			if !time.Now().Before(win.end) {
				return nil
			}
		}
		start := time.Now()
		// A closed loop's latency starts at the send call. An open loop's
		// starts when the message fell due if the previous send was still
		// running then, so a stall is charged to every message queued
		// behind it; lateness past a free generator is timer slack, the
		// benchmark's own, and is charged to no one.
		origin := start
		if win.interval > 0 {
			m.late = append(m.late, int64(start.Sub(due)))
			if free.After(due) {
				origin = due
			}
		}
		win.slot(seq).Store(int64(origin.Sub(win.t0)))
		msg := s.message(seq)
		s.logSend(trace.EventSendStart, seq, msg, nil)
		if async {
			done, err := ap.SendAsync(msg, s.opts)
			if err != nil {
				s.logSend(trace.EventSendEnd, seq, msg, err)
				return err
			}
			s.sent = seq
			pending = append(pending, inflight{seq, msg, start, done})
			if len(pending) >= max(s.w.window, 1) {
				if err := settle(); err != nil {
					return err
				}
			}
		} else {
			err := s.prod.Send(msg, s.opts)
			took := time.Since(start)
			s.logSend(trace.EventSendEnd, seq, msg, err)
			if err != nil {
				return err
			}
			s.sent = seq
			record(seq, start, took)
			if s.l != nil {
				if add, ok := s.l.addOf(seq); ok {
					m.barrier = append(m.barrier, int64(took-add))
				}
			}
		}
		free = time.Now()
		if backlog != nil {
			m.backlogMax = max(m.backlogMax, backlog.Value())
		}
	}
}

// consume receives until every group has every message the producer
// sent, or until the producer has stopped and nothing has arrived for
// s.drain. It cuts the CPU and delivery counts at each slice boundary.
func (s *session) consume(win *window, m *measurement) error {
	defer close(win.space)
	idle := time.Now()
	slice := 1
	for {
		progressed := false
		for g, c := range s.cons {
			if win.done.Load() && s.chk.caughtUp(g, win.final.Load()) {
				continue
			}
			start := time.Now()
			msg, err := c.Receive(receivePoll)
			if err != nil {
				return fmt.Errorf("consumer %d: %w", g, err)
			}
			now := time.Now()
			if slice < subWindows && !now.Before(win.t0.Add(time.Duration(slice)*m.d/subWindows)) {
				m.cuts = append(m.cuts, cut{at: now, cpu: cpuTime(), deliveries: m.deliveries})
				slice++
			}
			if msg == nil {
				continue
			}
			progressed = true
			seq := s.deliver(g, msg)
			if seq < win.first || win.interval > 0 && seq-win.first >= int64(len(win.origins)) {
				continue
			}
			at := int64(now.Sub(win.t0))
			m.e2e = append(m.e2e, at-win.slot(seq).Load())
			m.e2eAt = append(m.e2eAt, at)
			m.deliveries++
			if s.l != nil {
				m.receive = append(m.receive, int64(serviceTime(start, msg)))
			}
			if g == 0 && win.interval == 0 {
				win.received.Add(1)
				select {
				case win.space <- struct{}{}:
				default:
				}
			}
		}
		switch {
		case progressed || !win.done.Load():
			idle = time.Now()
		case s.caughtUp(win.final.Load()):
			return nil
		case time.Since(idle) > s.drain:
			return nil
		}
	}
}

// caughtUp reports whether every group has received every message
// through final.
func (s *session) caughtUp(final int64) bool {
	for g := range s.cons {
		if !s.chk.caughtUp(g, final) {
			return false
		}
	}
	return true
}

// deliver checks one delivery to consumer group g and logs it for the
// model cross-check; it returns the message's sequence number.
func (s *session) deliver(g int, msg *jms.Message) int64 {
	seq := s.chk.deliver(g, msg)
	if s.log != nil {
		producer := msg.StringProperty(propProducer)
		s.log.Log(trace.Event{
			Type:        trace.EventDeliver,
			Consumer:    consumerName(g),
			Producer:    producer,
			Endpoint:    s.cons[g].EndpointID(),
			Dest:        s.dest.String(),
			MsgUID:      trace.MessageUID(producer, msg.Int64Property(propSeq)),
			MsgSeq:      msg.Int64Property(propSeq),
			Priority:    msg.Priority,
			Mode:        msg.Mode,
			BodyBytes:   msg.BodySize(),
			Checksum:    trace.BodyChecksum(msg.Body),
			Redelivered: msg.Redelivered,
		})
	}
	return seq
}

func consumerName(g int) string { return fmt.Sprintf("c%d", g) }

func (s *session) logSend(typ trace.EventType, seq int64, msg *jms.Message, err error) {
	if s.log == nil {
		return
	}
	ev := trace.Event{
		Type:      typ,
		Producer:  producerID,
		Dest:      s.dest.String(),
		MsgUID:    trace.MessageUID(producerID, seq),
		MsgSeq:    seq,
		Priority:  s.opts.Priority,
		Mode:      s.opts.Mode,
		BodyBytes: msg.BodySize(),
		Checksum:  trace.BodyChecksum(msg.Body),
	}
	if err != nil {
		ev.Err = err.Error()
	}
	s.log.Log(ev)
}

func (s *session) logConsumer(typ trace.EventType, g int) {
	if s.log == nil {
		return
	}
	s.log.Log(trace.Event{Type: typ, Consumer: consumerName(g), Endpoint: s.cons[g].EndpointID(), Dest: s.dest.String()})
}

// account adds the session's delivery check to rep: every message sent
// owes one delivery to each consumer group.
func (s *session) account(rep *report) {
	misses := s.chk.misses(s.sent)
	rep.Attempted += s.sent * int64(1+len(s.cons))
	rep.Failed += misses
	if misses > 0 {
		rep.Correct = false
		rep.note("%v", s.chk.verdict(s.sent))
	}
}

// minSlice is the fewest samples a slice's percentile is taken over, so
// a slice's p99 still has ten samples above it.
const minSlice = 1000

// sliced is the median over time slices of the window of the q-quantile
// of samples v taken at offsets at. It cuts as many slices, up to
// subWindows, as leave minSlice samples in each; samples past the window
// (the drain) fall in the last slice.
func (m *measurement) sliced(v, at []int64, q float64) float64 {
	k := min(subWindows, max(1, len(v)/minSlice))
	parts := make([][]int64, k)
	for i, x := range v {
		j := min(max(int(at[i]*int64(k)/int64(m.d)), 0), k-1)
		parts[j] = append(parts[j], x)
	}
	qs := make([]float64, 0, k)
	for _, p := range parts {
		if len(p) > 0 {
			qs = append(qs, quantile(p, q))
		}
	}
	return median(qs)
}

// perSlice returns, for each slice between cuts, the deliveries per
// second and the CPU milliseconds per 1000 deliveries. The last slice
// runs to the end of the drain.
func (m *measurement) perSlice() (rates, cpuPerK []float64) {
	for i := 1; i < len(m.cuts); i++ {
		a, b := m.cuts[i-1], m.cuts[i]
		n := b.deliveries - a.deliveries
		rates = append(rates, float64(n)/b.at.Sub(a.at).Seconds())
		if n > 0 {
			cpuPerK = append(cpuPerK, float64(b.cpu-a.cpu)/float64(time.Millisecond)*1000/float64(n))
		}
	}
	return rates, cpuPerK
}
