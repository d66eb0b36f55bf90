package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"

	"jmsharness/internal/jms"
)

// Properties every benchmark message carries.
const (
	propProducer = "producer"
	propSeq      = "seq"
)

// maxGap bounds how many skipped sequence numbers one stream tracks; a
// jump past it counts as a foreign message instead.
const maxGap = 1 << 16

// checker verifies every delivery in line: each consumer group receives
// every message exactly once, in the producer's order, with the body
// the producer sent. It keeps a few counters per (producer, group)
// stream rather than a record per message, so checking does not grow
// the heap the benchmark measures; bodies are compared against one
// regenerated from the seed.
type checker struct {
	seed    uint64
	scratch []byte
	streams []stream
}

// stream is one consumer group's view of the producer's sequence.
type stream struct {
	next                             int64              // next sequence number expected in order
	gaps                             map[int64]struct{} // numbers skipped over and not yet delivered
	dup, reordered, corrupt, foreign int64
}

func newChecker(seed uint64, body, groups int) *checker {
	c := &checker{seed: seed, scratch: make([]byte, body), streams: make([]stream, groups)}
	for i := range c.streams {
		c.streams[i] = stream{next: 1, gaps: map[int64]struct{}{}}
	}
	return c
}

// deliver checks one delivery to consumer group g and returns the
// message's sequence number, or 0 for a message the producer never sent.
func (c *checker) deliver(g int, msg *jms.Message) int64 {
	st := &c.streams[g]
	seq := msg.Int64Property(propSeq)
	if seq <= 0 || seq-st.next > maxGap || msg.StringProperty(propProducer) != producerID {
		st.foreign++
		return 0
	}
	fillBody(c.scratch, c.seed, seq)
	if body, ok := msg.Body.(jms.BytesBody); !ok || !bytes.Equal(body, c.scratch) {
		st.corrupt++
	}
	switch {
	case seq == st.next:
		st.next++
	case seq > st.next:
		for n := st.next; n < seq; n++ {
			st.gaps[n] = struct{}{}
		}
		st.next = seq + 1
	default:
		if _, ok := st.gaps[seq]; ok {
			delete(st.gaps, seq)
			st.reordered++
		} else {
			st.dup++
		}
	}
	return seq
}

// caughtUp reports whether group g has received every message through
// final.
func (c *checker) caughtUp(g int, final int64) bool {
	st := &c.streams[g]
	return st.next > final && len(st.gaps) == 0
}

// lost is how many messages through final the group never received.
func (st *stream) lost(final int64) int64 {
	n := int64(len(st.gaps))
	if st.next <= final {
		n += final - st.next + 1
	}
	return n
}

// misses counts the broken delivery obligations across every group,
// given the last sequence number sent.
func (c *checker) misses(final int64) int64 {
	var n int64
	for i := range c.streams {
		st := &c.streams[i]
		n += st.lost(final) + st.dup + st.reordered + st.corrupt + st.foreign
	}
	return n
}

// verdict describes every broken obligation, or returns nil.
func (c *checker) verdict(final int64) error {
	var found []string
	for g := range c.streams {
		st := &c.streams[g]
		for _, f := range []struct {
			n    int64
			what string
		}{
			{st.lost(final), "lost"},
			{st.dup, "duplicated"},
			{st.reordered, "reordered"},
			{st.corrupt, "corrupt body"},
			{st.foreign, "foreign"},
		} {
			if f.n > 0 {
				found = append(found, fmt.Sprintf("group %d: %d %s", g, f.n, f.what))
			}
		}
	}
	if len(found) == 0 {
		return nil
	}
	return fmt.Errorf("delivery check failed: %s", strings.Join(found, ", "))
}

// fillBody writes message seq's body: splitmix64 output seeded by the
// run's seed and seq, so the consumer can regenerate it.
func fillBody(b []byte, seed uint64, seq int64) {
	x := seed ^ mix64(uint64(seq))
	var word [8]byte
	for i := 0; i < len(b); i += 8 {
		x += 0x9e3779b97f4a7c15
		binary.LittleEndian.PutUint64(word[:], mix64(x))
		copy(b[i:], word[:])
	}
}

// mix64 is the splitmix64 finaliser.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
