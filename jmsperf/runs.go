package main

import (
	"fmt"
	"path/filepath"
	"time"

	"jmsharness/internal/jms"
	"jmsharness/internal/model"
	"jmsharness/internal/obs"
	"jmsharness/internal/trace"
)

const (
	// setupRuns is how many times an end-to-end run sets the stack up;
	// it reports the median set-up time and measures on the last one.
	setupRuns = 5
	// idleWindow is how long a traced run watches the set-up stack idle.
	idleWindow = time.Second
)

// runEndToEnd sets the stack up setupRuns times, measures the last
// set-up for d with nothing traced, and reports the end-to-end metrics.
func runEndToEnd(w *workload, seed uint64, d time.Duration, dir string) (*report, error) {
	var s *session
	setups := make([]float64, 0, setupRuns)
	for i := range setupRuns {
		if s != nil {
			s.close()
		}
		start := time.Now()
		var err error
		if s, err = open(w, nil, nil, filepath.Join(dir, fmt.Sprint("setup", i)), seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer s.close()
	m, err := s.measure(d)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	s.account(rep)
	rates, cpuPerK := m.perSlice()
	rep.set("setup_s", "s", median(setups))
	rep.set("e2e_p50_ms", "ms", m.sliced(m.e2e, m.e2eAt, 0.50)/1e6)
	rep.set("e2e_p99_ms", "ms", m.sliced(m.e2e, m.e2eAt, 0.99)/1e6)
	rep.set("send_p50_ms", "ms", m.sliced(m.send, m.sendAt, 0.50)/1e6)
	rep.set("send_p99_ms", "ms", m.sliced(m.send, m.sendAt, 0.99)/1e6)
	rep.set("delivered_per_s", "1/s", median(rates))
	rep.set("cpu_ms_per_kmsg", "ms/kmsg", median(cpuPerK))
	rep.set("allocs_per_msg", "allocs/msg", float64(m.use.mallocs)/float64(m.deliveries))
	rep.set("peak_rss_mb", "MB", peakRSSMB())
	rep.set("ok_frac", "ratio", 1-float64(rep.Failed)/float64(rep.Attempted))
	rep.note("samples: e2e=%d send=%d late=%d in %d slices (percentiles use up to %d of at least %d samples each); set-ups %.3f s",
		len(m.e2e), len(m.send), len(m.late), len(rates), subWindows, minSlice, setups)
	return rep, nil
}

// cpuPerK is the process CPU in milliseconds per 1000 deliveries.
func (m *measurement) cpuPerK() float64 {
	return float64(m.use.cpu) / float64(time.Millisecond) * 1000 / float64(m.deliveries)
}

// runTraced measures half of d on an untraced stack — the baseline for
// the tracing overhead, the runtime counters and the generator — then
// sets the stack up again with the layer decorators, logs every event
// for the model cross-check, and measures the other half.
func runTraced(w *workload, seed uint64, d time.Duration, dir string) (*report, error) {
	rep := newReport()
	s, err := open(w, nil, nil, filepath.Join(dir, "untraced"), seed)
	if err != nil {
		return nil, err
	}
	base, err := s.measure(d / 2)
	if err == nil {
		s.account(rep)
	}
	s.close()
	if err != nil {
		return nil, err
	}

	events := trace.NewCollector("jmsperf", nil)
	s, err = open(w, &layers{}, events, filepath.Join(dir, "traced"), seed)
	if err != nil {
		return nil, err
	}
	defer s.close()
	idle := idleCPU(idleWindow)
	tr, err := s.measure(d / 2)
	if err != nil {
		return nil, err
	}
	s.account(rep)
	verdict, err := model.Check(trace.Merge([][]trace.Event{events.Events()}, nil), model.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("model check: %w", err)
	}
	if inline := s.chk.verdict(s.sent); (inline == nil) != verdict.OK() {
		return nil, fmt.Errorf("the in-line checker and model.Check disagree: in-line %v; model:\n%s", inline, verdict)
	}
	codec, err := measureCodec(s.message(1), s.dest, s.opts)
	if err != nil {
		return nil, err
	}
	s.layerMetrics(rep, base, tr, idle, codec)
	return rep, nil
}

// layerMetrics fills rep with the per-layer metrics; a layer the
// workload bypasses reads 0. base is the untraced half and tr the traced
// half.
func (s *session) layerMetrics(rep *report, base, tr *measurement, idle float64, codec codecCost) {
	l, reg := s.l, s.st.reg
	hist := func(name string) obs.HistogramSnapshot { return reg.Histogram(name, nil).Snapshot() }
	count := func(name string) float64 { return float64(reg.Counter(name).Value()) }
	us := func(ns float64) float64 { return ns / 1e3 }

	rep.set("jms.encode_ns", "ns", codec.encodeNs)
	rep.set("jms.decode_ns", "ns", codec.decodeNs)
	rep.set("jms.clone_ns", "ns", codec.cloneNs)
	rep.set("jms.allocs_per_roundtrip", "allocs", codec.allocs)

	serverSend := quantile(l.send.take(), 0.50)
	rep.set("broker.send_us_p50", "us", us(serverSend))
	rep.set("broker.receive_us_p50", "us", us(quantile(l.receive.take(), 0.50)))
	sojourn := hist("broker.sojourn_ns")
	rep.set("broker.sojourn_us_p50", "us", us(float64(sojourn.P50)))
	rep.set("broker.sojourn_us_p99", "us", us(float64(sojourn.P99)))
	rep.set("broker.backlog_max", "count", float64(tr.backlogMax))

	adds := l.storeAdd.take()
	storeAdd := quantile(adds, 0.50)
	rep.set("store.add_us_p50", "us", us(storeAdd))
	rep.set("store.add_us_p99", "us", us(quantile(adds, 0.99)))
	rep.set("store.mark_delivered_us_p50", "us", us(quantile(l.storeMark.take(), 0.50)))
	rep.set("store.remove_us_p50", "us", us(quantile(l.storeRemove.take(), 0.50)))
	staged, blocking := l.staged.Load(), l.blocking.Load()
	rep.set("store.staged_frac", "ratio", float64(staged)/float64(staged+blocking))

	batch := hist("wal.commit_batch")
	rep.set("wal.fsyncs_per_kmsg", "1/kmsg", perK(batch.Count, tr.sent))
	rep.set("wal.batch_mean", "records", batch.Mean)
	rep.set("wal.commit_wait_us_p50", "us", us(float64(hist("wal.commit_wait_ns").P50)))
	rep.set("wal.sync_us_p50", "us", us(float64(hist("wal.sync_ns").P50)))

	clientSend := quantile(tr.send, 0.50)
	wired := count("wire.requests") > 0
	var wireServer, overhead, receive float64
	if wired {
		wireServer = serverSend
		overhead = quantile(tr.overhead, 0.50)
		receive = quantile(tr.receive, 0.50)
	}
	rep.set("wire.server_send_us_p50", "us", us(wireServer))
	rep.set("wire.send_overhead_us_p50", "us", us(overhead))
	rep.set("wire.receive_us_p50", "us", us(receive))
	rep.set("wire.requests_per_msg", "req/msg", count("wire.requests")/float64(tr.sent))
	rep.set("wire.bytes_per_msg", "B/msg", (count("wire.bytes_in")+count("wire.bytes_out"))/float64(tr.sent))

	rep.set("cluster.route_us_p50", "us", us(float64(hist("cluster.route_ns").P50)))
	var barrier50, barrier99 float64
	if s.st.events != nil {
		barrier50, barrier99 = quantile(tr.barrier, 0.50), quantile(tr.barrier, 0.99)
	}
	rep.set("replica.barrier_us_p50", "us", us(barrier50))
	rep.set("replica.barrier_us_p99", "us", us(barrier99))
	rep.set("replica.sync_timeouts_per_kmsg", "1/kmsg", perK(int64(tr.degrades), tr.sent))
	rep.set("replica.unquorate_writes", "count", count("replica.unquorate_writes"))
	rep.set("replica.idle_cpu_ms_per_s", "ms/s", idle)

	rep.set("runtime.gc_cycles_per_kmsg", "1/kmsg", perK(int64(base.use.gcCycles), base.deliveries))
	rep.set("runtime.alloc_bytes_per_msg", "B/msg", float64(base.use.allocBytes)/float64(base.deliveries))
	rep.set("runtime.gc_cpu_frac", "ratio", base.use.gcCPU/base.use.cpu.Seconds())

	rep.set("gen.late_p99_ms", "ms", quantile(base.late, 0.99)/1e6)
	tracing := (tr.cpuPerK()/base.cpuPerK() - 1) * 100
	rep.set("trace.overhead_pct", "%", tracing)
	clientSend99 := quantile(tr.send, 0.99)
	rep.set("trace.send_p50_ms", "ms", clientSend/1e6)
	rep.set("trace.send_p99_ms", "ms", clientSend99/1e6)

	rep.note("samples: send=%d e2e=%d store.add=%d wire.overhead=%d barrier=%d; untraced late=%d",
		len(tr.send), len(tr.e2e), len(adds), len(tr.overhead), len(tr.barrier), len(base.late))
	if wired {
		// The store add and the rest of the server send sum to the server
		// send by construction, but the wire overhead is a median of
		// per-message differences, so the residual is a real check.
		sum := serverSend + overhead
		rep.note("send_p50 %.1f us against store.add %.1f + rest of server send %.1f + wire overhead %.1f = %.1f us: residual %+.1f%% of send_p50; tracing overhead %.1f%%",
			us(clientSend), us(storeAdd), us(serverSend-storeAdd), us(overhead), us(sum), (clientSend-sum)/clientSend*100, tracing)
	}
	if s.st.events != nil {
		rep.note("send_p99 %.1f us; replica.barrier_p99 %.1f us", us(clientSend99), us(barrier99))
	}
}

// codecCost is the codec's cost on one message shape.
type codecCost struct{ encodeNs, decodeNs, cloneNs, allocs float64 }

const (
	codecIters  = 5000
	codecRounds = 5
)

// Sinks keep the codec loops' results live.
var (
	sinkBytes []byte
	sinkMsg   *jms.Message
)

// measureCodec times Message.MarshalBinary, UnmarshalBinary and Clone on
// msg stamped with the headers a provider sets: the median over
// codecRounds rounds of codecIters calls each.
func measureCodec(msg *jms.Message, dest jms.Destination, opts jms.SendOptions) (codecCost, error) {
	msg.ID = "ID:jmsperf-1"
	msg.Destination = dest
	msg.Mode = opts.Mode
	msg.Priority = opts.Priority
	msg.Timestamp = time.Now()
	data, err := msg.MarshalBinary()
	if err != nil {
		return codecCost{}, err
	}
	encode := func() (err error) {
		sinkBytes, err = msg.MarshalBinary()
		return err
	}
	decode := func() error {
		var m jms.Message
		err := m.UnmarshalBinary(data)
		sinkMsg = &m
		return err
	}
	clone := func() error {
		sinkMsg = msg.Clone()
		return nil
	}
	perCall := func(f func() error) (float64, error) {
		rounds := make([]float64, 0, codecRounds)
		for range codecRounds {
			start := time.Now()
			for range codecIters {
				if err := f(); err != nil {
					return 0, err
				}
			}
			rounds = append(rounds, float64(time.Since(start))/codecIters)
		}
		return median(rounds), nil
	}
	var c codecCost
	if c.encodeNs, err = perCall(encode); err != nil {
		return c, err
	}
	if c.decodeNs, err = perCall(decode); err != nil {
		return c, err
	}
	if c.cloneNs, err = perCall(clone); err != nil {
		return c, err
	}
	before := readUsage().mallocs
	for range codecIters {
		_ = encode()
		_ = decode()
	}
	c.allocs = float64(readUsage().mallocs-before) / codecIters
	return c, nil
}
