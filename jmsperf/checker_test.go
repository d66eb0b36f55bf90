package main

import (
	"strings"
	"testing"
	"time"

	"jmsharness/internal/broker"
	"jmsharness/internal/faults"
	"jmsharness/internal/jms"
	"jmsharness/internal/model"
	"jmsharness/internal/trace"
)

// queueWorkload is a short queue workload on an in-process broker, seen
// through inject when it is not nil: an open loop, or a closed loop of
// that bound when window > 0.
func queueWorkload(inject func(jms.ConnectionFactory) jms.ConnectionFactory, window int) *workload {
	w := &workload{
		name: "test-queue", rate: 2000, mode: jms.NonPersistent, body: 64,
		build: func(*layers, string, uint64) (*stack, error) {
			b, err := broker.New(broker.Options{Name: "test"})
			if err != nil {
				return nil, err
			}
			st := &stack{factory: b, reg: b.Metrics(), close: func() { _ = b.Close() }}
			if inject != nil {
				st.factory = inject(b)
			}
			return st, nil
		},
	}
	if window > 0 {
		w.rate, w.window = 0, window
	}
	return w
}

// Every fault the internal/faults providers inject must be flagged by the
// in-line checker and by model.Check alike, and a clean stack by neither.
func TestCheckerFlagsInjectedFaults(t *testing.T) {
	for _, tc := range []struct {
		name   string
		inject func(jms.ConnectionFactory) jms.ConnectionFactory
		window int    // > 0 runs a closed loop of this bound
		want   string // what the in-line verdict must report; "" for a clean run
	}{
		{name: "clean"},
		{name: "drop", inject: func(f jms.ConnectionFactory) jms.ConnectionFactory { return faults.NewDropper(f, 37) }, want: "lost"},
		// Lost messages fill a closed loop's window for good; the producer
		// must still stop when the window ends.
		{name: "drop-closed", inject: func(f jms.ConnectionFactory) jms.ConnectionFactory { return faults.NewDropper(f, 37) }, window: 8, want: "lost"},
		{name: "duplicate", inject: func(f jms.ConnectionFactory) jms.ConnectionFactory { return faults.NewDuplicator(f, 37) }, want: "duplicated"},
		{name: "reorder", inject: func(f jms.ConnectionFactory) jms.ConnectionFactory { return faults.NewReorderer(f, 37) }, want: "reordered"},
		{name: "corrupt", inject: func(f jms.ConnectionFactory) jms.ConnectionFactory { return faults.NewCorrupter(f, 37) }, want: "corrupt body"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			events := trace.NewCollector("test", nil)
			s, err := open(queueWorkload(tc.inject, tc.window), nil, events, t.TempDir(), 7)
			if err != nil {
				t.Fatal(err)
			}
			defer s.close()
			s.drain = 200 * time.Millisecond
			if _, err := s.measure(300 * time.Millisecond); err != nil {
				t.Fatal(err)
			}
			inline := s.chk.verdict(s.sent)
			report, err := model.Check(trace.Merge([][]trace.Event{events.Events()}, nil), model.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if tc.want == "" {
				if inline != nil || !report.OK() {
					t.Fatalf("clean stack flagged: in-line %v; model:\n%s", inline, report)
				}
				return
			}
			if inline == nil || !strings.Contains(inline.Error(), tc.want) {
				t.Errorf("in-line verdict %v, want it to report %q", inline, tc.want)
			}
			if report.OK() {
				t.Errorf("model.Check passed a stack whose deliveries are %s", tc.want)
			}
		})
	}
}
