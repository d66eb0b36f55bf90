package store

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"jmsharness/internal/jms"
	"jmsharness/internal/obs"
)

// opTarget is one store under TestOpSequenceAcrossStores: the stream it
// publishes to and its wal.records counter, each nil when it has none.
type opTarget struct {
	name    string
	s       Store
	stream  *Stream
	records *obs.Counter
}

func openOpTargets(t *testing.T) []*opTarget {
	t.Helper()
	walTarget := func(name string, open func(path string, opts WALOptions) (Store, error)) *opTarget {
		reg, stream := obs.NewRegistry(), NewStream()
		s, err := open(filepath.Join(t.TempDir(), name+".wal"), WALOptions{Metrics: reg, Stream: stream})
		if err != nil {
			t.Fatal(err)
		}
		return &opTarget{name: name, s: s, stream: stream, records: reg.Counter("wal.records")}
	}
	stream := NewStream()
	return []*opTarget{
		{name: "memory", s: NewMemory()},
		{name: "streamed", s: NewStreamed(NewMemory(), stream), stream: stream},
		walTarget("wal", func(p string, o WALOptions) (Store, error) { return OpenWAL(p, o) }),
		walTarget("sharded", func(p string, o WALOptions) (Store, error) { return OpenSharded(p, 2, o) }),
	}
}

// published drains every payload the stream retains.
func published(t *testing.T, s *Stream) [][]byte {
	t.Helper()
	sub, err := s.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	stop := make(chan struct{})
	close(stop) // drain what is retained, never block
	var out [][]byte
	for {
		recs, err := sub.Next(stop)
		if err != nil {
			t.Fatal(err)
		}
		if recs == nil {
			return out
		}
		for _, r := range recs {
			out = append(out, r.Payload)
		}
	}
}

// sameState reports how two snapshots differ, or nil.
func sameState(a, b *State) error {
	if len(a.Messages) != len(b.Messages) {
		return fmt.Errorf("%d vs %d endpoints", len(a.Messages), len(b.Messages))
	}
	for ep, am := range a.Messages {
		bm := b.Messages[ep]
		if len(am) != len(bm) {
			return fmt.Errorf("%s: %d vs %d messages", ep, len(am), len(bm))
		}
		for i := range am {
			if am[i].ID != bm[i].ID || am[i].Delivered != bm[i].Delivered || !am[i].Msg.Equal(bm[i].Msg) {
				return fmt.Errorf("%s message %d: %+v vs %+v", ep, i, am[i], bm[i])
			}
		}
	}
	if !reflect.DeepEqual(a.Subscriptions, b.Subscriptions) {
		return fmt.Errorf("subscriptions %v vs %v", a.Subscriptions, b.Subscriptions)
	}
	return nil
}

// TestOpSequenceAcrossStores runs one op sequence through every store in
// the package and requires the same outcome of each step, the same
// snapshot, and — where a stream is attached — the same published
// records, byte for byte.
func TestOpSequenceAcrossStores(t *testing.T) {
	add := func(ep, text string, want RecordID) func(Store) error {
		return func(s Store) error {
			id, err := s.AddMessage(ep, msg(text))
			if err == nil && id != want {
				return fmt.Errorf("got id %d, want %d", id, want)
			}
			return err
		}
	}
	addStaged := func(ep, text string, want RecordID) func(Store) error {
		return func(s Store) error {
			id, wait, err := s.(Staged).AddMessageStaged(ep, msg(text))
			if err != nil {
				return err
			}
			if err := wait(); err != nil {
				return err
			}
			if id != want {
				return fmt.Errorf("got id %d, want %d", id, want)
			}
			return nil
		}
	}
	removeStaged := func(ep string, id RecordID) func(Store) error {
		return func(s Store) error {
			wait, err := s.(Staged).RemoveMessageStaged(ep, id)
			if err != nil {
				return err
			}
			return wait()
		}
	}
	sub := SubscriptionRecord{ClientID: "c", Name: "s", Topic: "t", Selector: "p > 1"}
	const subEP = "sub:c:s"
	steps := []struct {
		name  string
		do    func(Store) error
		fails bool
		// noRecord marks a step that must leave the log and stream alone.
		noRecord bool
	}{
		{name: "add a1", do: add("queue:a", "a1", 1)},
		{name: "staged add a2", do: addStaged("queue:a", "a2", 2)},
		{name: "add b1", do: add("queue:b", "b1", 3)},
		{name: "add subscription", do: func(s Store) error { return s.AddSubscription(sub) }},
		{name: "add backlog 1", do: add(subEP, "s1", 4)},
		{name: "add backlog 2", do: addStaged(subEP, "s2", 5)},
		{name: "mark a1", do: func(s Store) error { return s.MarkDelivered("queue:a", 1) }},
		{name: "mark backlog 1", do: func(s Store) error { return s.MarkDelivered(subEP, 4) }},
		{name: "remove a2", do: func(s Store) error { return s.RemoveMessage("queue:a", 2) }},
		{name: "staged remove b1", do: removeStaged("queue:b", 3)},
		{name: "mark unknown id", do: func(s Store) error { return s.MarkDelivered("queue:a", 99) }, noRecord: true},
		{name: "mark removed id", do: func(s Store) error { return s.MarkDelivered("queue:a", 2) }, noRecord: true},
		{name: "remove unknown id", do: func(s Store) error { return s.RemoveMessage("queue:a", 99) }, fails: true, noRecord: true},
		{name: "remove on unknown endpoint", do: func(s Store) error { return s.RemoveMessage("queue:z", 1) }, fails: true, noRecord: true},
		{name: "staged remove unknown id", do: removeStaged("queue:b", 3), fails: true, noRecord: true},
		{name: "add after backlog", do: add("queue:b", "b2", 6)},
		{name: "remove subscription", do: func(s Store) error { return s.RemoveSubscription("c", "s") }},
		{name: "remove unknown subscription", do: func(s Store) error { return s.RemoveSubscription("c", "s") }, fails: true, noRecord: true},
	}

	targets := openOpTargets(t)
	for _, st := range steps {
		for _, tg := range targets {
			var recordsBefore int64
			if tg.records != nil {
				recordsBefore = tg.records.Value()
			}
			var pubBefore uint64
			if tg.stream != nil {
				pubBefore = tg.stream.LastSeq()
			}
			err := st.do(tg.s)
			if (err != nil) != st.fails {
				t.Errorf("%s on %s: err = %v, want failure %v", st.name, tg.name, err, st.fails)
			}
			if tg.records != nil && st.noRecord && tg.records.Value() != recordsBefore {
				t.Errorf("%s on %s wrote %d WAL records, want none", st.name, tg.name, tg.records.Value()-recordsBefore)
			}
			if tg.stream != nil {
				want := pubBefore + 1
				if st.noRecord {
					want = pubBefore
				}
				// Every mutation publishes before its call returns.
				if got := tg.stream.LastSeq(); got != want {
					t.Errorf("%s on %s: stream at %d after the call, want %d", st.name, tg.name, got, want)
				}
			}
		}
	}

	ref, err := targets[0].s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ref.Messages["queue:a"]) + len(ref.Messages["queue:b"]); got != 2 || len(ref.Messages) != 2 || len(ref.Subscriptions) != 0 {
		t.Fatalf("reference snapshot %+v, want a1 and b2 only", ref)
	}
	if !ref.Messages["queue:a"][0].Delivered {
		t.Error("a1 lost its delivered mark")
	}
	var refPub [][]byte
	for _, tg := range targets[1:] {
		snap, err := tg.s.Snapshot()
		if err != nil {
			t.Fatalf("%s snapshot: %v", tg.name, err)
		}
		if err := sameState(ref, snap); err != nil {
			t.Errorf("%s snapshot differs from memory: %v", tg.name, err)
		}
		pub := published(t, tg.stream)
		if refPub == nil {
			refPub = pub
			continue
		}
		if len(pub) != len(refPub) {
			t.Errorf("%s published %d records, %s %d", tg.name, len(pub), targets[1].name, len(refPub))
			continue
		}
		for i := range pub {
			if !bytes.Equal(pub[i], refPub[i]) {
				t.Errorf("%s published record %d differs from %s's", tg.name, i+1, targets[1].name)
			}
		}
	}

	for _, tg := range targets {
		if err := tg.s.Close(); err != nil {
			t.Fatalf("%s close: %v", tg.name, err)
		}
		for _, st := range steps {
			if err := st.do(tg.s); !errors.Is(err, jms.ErrClosed) {
				t.Errorf("%s after close on %s: err = %v, want ErrClosed", st.name, tg.name, err)
			}
		}
		if _, err := tg.s.Snapshot(); !errors.Is(err, jms.ErrClosed) {
			t.Errorf("snapshot after close on %s: err = %v, want ErrClosed", tg.name, err)
		}
	}
}

// TestStreamedMemoryConcurrentWriters drives a streamed Memory from
// several goroutines at once. Each writer's ops publish before its calls
// return, so replaying the stream on a follower never meets a remove or
// mark ahead of its add, and ends in the source's state.
func TestStreamedMemoryConcurrentWriters(t *testing.T) {
	const writers, rounds = 4, 50
	stream := NewStream()
	s := NewStreamed(NewMemory(), stream)
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ep := fmt.Sprintf("queue:%d", g)
			for r := 0; r < rounds; r++ {
				gone, err := s.AddMessage(ep, msg(fmt.Sprintf("%d-%d-gone", g, r)))
				if err != nil {
					t.Error(err)
					return
				}
				kept, wait, err := s.AddMessageStaged(ep, msg(fmt.Sprintf("%d-%d", g, r)))
				if err == nil {
					err = wait()
				}
				if err == nil {
					err = s.MarkDelivered(ep, kept)
				}
				if err == nil {
					err = s.RemoveMessage(ep, gone)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	follower := Applier{Dst: NewMemory()}
	for i, p := range published(t, stream) {
		op, err := DecodeOp(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := follower.Apply(op); err != nil {
			t.Fatalf("follower apply of record %d: %v", i+1, err)
		}
	}
	src, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got, err := follower.Dst.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < writers; g++ {
		ep := fmt.Sprintf("queue:%d", g)
		if len(got.Messages[ep]) != rounds || len(src.Messages[ep]) != rounds {
			t.Fatalf("%s: follower %d, source %d messages, want %d", ep, len(got.Messages[ep]), len(src.Messages[ep]), rounds)
		}
		for i, m := range got.Messages[ep] {
			if !m.Delivered || !m.Msg.Equal(src.Messages[ep][i].Msg) {
				t.Fatalf("%s message %d: follower %+v, source %+v", ep, i, m, src.Messages[ep][i])
			}
		}
	}
}
