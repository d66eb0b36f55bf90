package main

import (
	"fmt"
	"path/filepath"
	"time"

	"jmsharness/internal/broker"
	"jmsharness/internal/jms"
	"jmsharness/internal/obs"
	"jmsharness/internal/replica"
	"jmsharness/internal/store"
	"jmsharness/internal/wire"
)

// workload is one traffic mix: how the load is offered and which stack
// carries it. BENCHMARK.json and NOTES.md record why each was chosen.
type workload struct {
	name string
	// rate > 0 offers an open loop: message i of the window is due i/rate
	// seconds after the window opens and is sent then, however late the
	// previous send returned. rate == 0 runs a closed loop that keeps at
	// most window messages sent but not yet received.
	rate   float64
	window int
	mode   jms.DeliveryMode
	body   int
	// subscribers > 0 publishes to a topic read by that many non-durable
	// subscribers; 0 sends to one queue.
	subscribers int
	// warmup is the closed-loop batch that ends every set-up, so lazy
	// initialisation, pool fills and heap growth finish before timing.
	warmup int
	build  func(l *layers, dir string, seed uint64) (*stack, error)
}

// stack is the provider one session runs against.
type stack struct {
	factory jms.ConnectionFactory // what the benchmark's clients connect to
	reg     *obs.Registry         // the instruments of every layer in the stack
	events  func() []string       // replication event log; nil without replication
	close   func()
}

const (
	// pipeWindow is the credit window the pipelined wire producer asks for.
	pipeWindow = 256
	// walShards gives the segmented WAL one commit loop per CPU of the
	// two-CPU reference host.
	walShards = 2
	// syncTimeout is the semisync barrier budget the quorum experiment
	// uses; a lost barrier wakeup stalls a write for this long.
	syncTimeout = 25 * time.Millisecond
)

var workloads = []*workload{
	{name: "persist-queue-wire", rate: 500, mode: jms.Persistent, body: 1024, warmup: 4096, build: buildQueueWire},
	{name: "persist-pipe-saturate", window: pipeWindow, mode: jms.Persistent, body: 256, warmup: 256, build: buildPipe},
	{name: "replicated-quorum", rate: 200, mode: jms.Persistent, body: 1024, warmup: 4096, build: buildQuorum},
	{name: "transient-fanout", rate: 5000, mode: jms.NonPersistent, body: 1024, subscribers: 2, warmup: 16384, build: buildFanout},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// groups is how many consumer groups receive each message.
func (w *workload) groups() int {
	if w.subscribers > 0 {
		return w.subscribers
	}
	return 1
}

// destination derives the destination's name from the seed, so the seed
// also picks the destination's WAL shard and replica placement.
func (w *workload) destination(seed uint64) jms.Destination {
	name := fmt.Sprintf("jmsperf.%08x", mix64(seed)>>32)
	if w.subscribers > 0 {
		return jms.Topic(name)
	}
	return jms.Queue(name)
}

// buildQueueWire: blocking clients over TCP loopback to a broker whose
// stable store is one fsync'd WAL.
func buildQueueWire(l *layers, dir string, _ uint64) (*stack, error) {
	reg := obs.NewRegistry()
	wal, err := store.OpenWAL(filepath.Join(dir, "queue.wal"), store.WALOptions{Sync: true, Metrics: reg})
	if err != nil {
		return nil, err
	}
	return wireStack(reg, wal, l, 0)
}

// buildPipe: pipelined clients over TCP loopback to a broker on a
// segmented, fsync'd WAL.
func buildPipe(l *layers, dir string, _ uint64) (*stack, error) {
	reg := obs.NewRegistry()
	sw, err := store.OpenSharded(filepath.Join(dir, "pipe.wal"), walShards, store.WALOptions{Sync: true, Metrics: reg})
	if err != nil {
		return nil, err
	}
	return wireStack(reg, sw, l, pipeWindow)
}

// wireStack fronts a broker on stable with a wire server on loopback;
// its clients pipeline up to pipe sends, or block on each when pipe is 0.
func wireStack(reg *obs.Registry, stable store.Store, l *layers, pipe int) (*stack, error) {
	b, err := broker.New(broker.Options{Name: "jmsperf", Stable: l.wrapStore(stable), Metrics: reg})
	if err != nil {
		_ = stable.Close()
		return nil, err
	}
	srv, err := wire.NewServer(l.wrapFactory(b), "127.0.0.1:0")
	if err != nil {
		_ = b.Close()
		_ = stable.Close()
		return nil, err
	}
	srv.WithMetrics(reg).Start()
	return &stack{
		factory: wire.NewFactory(srv.Addr()).WithPipelining(pipe),
		reg:     reg,
		close: func() {
			_ = srv.Close()
			_ = b.Close()
			_ = stable.Close()
		},
	}, nil
}

// buildQuorum: a three-node replicated cluster in this process, every
// destination followed by two nodes that must both acknowledge (R=2,
// Q=2), on streamed memory stores — no WAL and no client wire.
func buildQuorum(l *layers, _ string, seed uint64) (*stack, error) {
	reg := obs.NewRegistry()
	m, err := replica.NewLocal(3, replica.Options{
		Metrics:           reg,
		Seed:              seed,
		SyncTimeout:       syncTimeout,
		ReplicationFactor: 2,
		QuorumSize:        2,
		OpenStore: func(int) (store.Store, *store.Stream, error) {
			s := store.NewStream()
			return l.wrapStore(store.NewStreamed(store.NewMemory(), s)), s, nil
		},
	})
	if err != nil {
		return nil, err
	}
	return &stack{factory: m.Cluster(), reg: reg, events: m.Events, close: func() { _ = m.Close() }}, nil
}

// buildFanout: one in-process broker; the clients call it directly.
func buildFanout(l *layers, _ string, _ uint64) (*stack, error) {
	reg := obs.NewRegistry()
	b, err := broker.New(broker.Options{Name: "jmsperf", Stable: l.wrapStore(store.NewMemory()), Metrics: reg})
	if err != nil {
		return nil, err
	}
	return &stack{factory: l.wrapFactory(b), reg: reg, close: func() { _ = b.Close() }}, nil
}
