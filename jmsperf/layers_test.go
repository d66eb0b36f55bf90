package main

import (
	"testing"
	"time"

	"jmsharness/internal/broker"
	"jmsharness/internal/faults"
	"jmsharness/internal/jms"
	"jmsharness/internal/store"
)

func TestDecoratorsForwardOptionalInterfaces(t *testing.T) {
	l := &layers{}
	if _, ok := l.wrapStore(store.NewMemory()).(store.Staged); !ok {
		t.Error("the timed Memory store hides store.Staged")
	}
	blockingOnly := struct{ store.Store }{store.NewMemory()}
	if _, ok := l.wrapStore(blockingOnly).(store.Staged); ok {
		t.Error("the timed blocking-only store claims store.Staged")
	}

	b, err := broker.New(broker.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for _, tc := range []struct {
		name  string
		inner jms.ConnectionFactory
		async bool
	}{
		{"broker", b, true},
		{"blocking-only", faults.NewDropper(b, 0), false},
	} {
		conn, err := l.wrapFactory(tc.inner).CreateConnection()
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		sess, err := conn.CreateSession(false, jms.AckAuto)
		if err != nil {
			t.Fatal(err)
		}
		prod, err := sess.CreateProducer(jms.Queue("q"))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := prod.(jms.AsyncProducer); ok != tc.async {
			t.Errorf("%s: timed producer implements jms.AsyncProducer = %v, want %v", tc.name, ok, tc.async)
		}
	}
}

// The traced persist-pipe-saturate stack must keep the staged,
// group-committed path: a decorator hiding store.Staged or
// jms.AsyncProducer would leave every WAL commit with one record.
func TestTracedRunKeepsGroupCommit(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pipelined WAL stack for about two seconds")
	}
	type means struct{ burst, window float64 }
	run := func(l *layers) means {
		s, err := open(workloadByName("persist-pipe-saturate"), l, nil, t.TempDir(), 3)
		if err != nil {
			t.Fatal(err)
		}
		defer s.close()
		batchMean := func() float64 { return s.st.reg.Histogram("wal.commit_batch", nil).Snapshot().Mean }

		// A burst of pipelined sends with nothing consumed: on the staged
		// path many records share each fsync.
		s.st.reg.Reset()
		ap, ok := s.prod.(jms.AsyncProducer)
		if !ok {
			t.Fatal("the pipelined producer is not a jms.AsyncProducer")
		}
		var pending []jms.Completion
		for range pipeWindow {
			s.sent++
			done, err := ap.SendAsync(s.message(s.sent), s.opts)
			if err != nil {
				t.Fatal(err)
			}
			pending = append(pending, done)
		}
		for _, done := range pending {
			if err := done(); err != nil {
				t.Fatal(err)
			}
		}
		var m means
		m.burst = batchMean()

		if _, err := s.measure(time.Second); err != nil {
			t.Fatal(err)
		}
		m.window = batchMean()
		return m
	}
	untraced, traced := run(nil), run(&layers{})
	t.Logf("wal.batch_mean untraced %+v, traced %+v", untraced, traced)
	// The blocking path commits exactly one record per fsync; the staged
	// path batches even when the race detector slows staging down.
	if untraced.burst < 2 || traced.burst < 2 {
		t.Errorf("burst commit batches: untraced %.1f, traced %.1f records; want both ≥ 2", untraced.burst, traced.burst)
	}
	if traced.window < untraced.window/2 || traced.window > untraced.window*2 {
		t.Errorf("measured-window wal.batch_mean: traced %.2f against untraced %.2f", traced.window, untraced.window)
	}
}
