package store

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync/atomic"
)

// ShardedWAL is a segmented write-ahead log: N WAL shards, each with its
// own file, group-commit goroutine and fsync domain, striped by
// endpoint. Splitting the log turns the single-fsync funnel of a WAL
// into per-shard commit loops that sync in parallel, which is what the
// saturation experiment needs to push persistent sends past one disk
// queue's worth of throughput.
//
// Correctness relies on two invariants:
//
//   - Everything with an ordering relationship shares a shard. All
//     records of one endpoint — a message add, its delivered mark, its
//     remove, and (for durable subscriptions) the subscription record
//     itself, which hashes under the same "sub:<clientID>:<name>" key
//     the Op codec's EndpointOf produces — land in one shard, so each
//     shard's log replays its endpoints exactly as a single WAL would.
//
//   - Record IDs come from one global sequence shared by every shard
//     (see WAL.sharedID). Recovery raises the sequence to the maximum
//     ID found in any shard, so IDs stay unique and monotonic across
//     the whole store and the merged recovery state orders records by
//     a single global sequence.
//
// Shard files are named <path>.s<i>; the shard count is fixed at open
// time and must match across reopens — opening with a different count
// changes the endpoint striping and would strand records in files the
// new layout never reads.
type ShardedWAL struct {
	ops
	shards []*WAL
	stream *Stream
	seq    atomic.Uint64
}

// OpenSharded opens (or creates) a segmented WAL of n shards rooted at
// path, replaying every shard to rebuild durable state. All shards
// share opts.Metrics (their instruments aggregate under the same wal.*
// names — the group-commit batch histogram reports batches from every
// shard) and opts.Stream (committed records from all shards publish
// into the one replication feed).
func OpenSharded(path string, n int, opts WALOptions) (*ShardedWAL, error) {
	if n < 1 {
		return nil, fmt.Errorf("store: sharded WAL needs >= 1 shard, got %d", n)
	}
	s := &ShardedWAL{stream: opts.Stream}
	s.ops = ops{s}
	for i := 0; i < n; i++ {
		w, err := openWAL(shardPath(path, i), opts, &s.seq, false)
		if err != nil {
			for _, open := range s.shards {
				_ = open.Close()
			}
			return nil, err
		}
		s.shards = append(s.shards, w)
	}
	return s, nil
}

// shardPath names shard i's log file.
func shardPath(path string, i int) string { return fmt.Sprintf("%s.s%d", path, i) }

var (
	_ Store  = (*ShardedWAL)(nil)
	_ Staged = (*ShardedWAL)(nil)
)

// Shards returns the shard count.
func (s *ShardedWAL) Shards() int { return len(s.shards) }

// shardFor routes an endpoint to its shard. FNV-1a keeps the routing
// deterministic across reopens, which is what pins an endpoint's
// records to one file for the lifetime of the store.
func (s *ShardedWAL) shardFor(endpoint string) *WAL {
	if len(s.shards) == 1 {
		return s.shards[0]
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(endpoint))
	return s.shards[h.Sum32()%uint32(len(s.shards))]
}

// stage implements stager. An op routes by its endpoint, and a
// subscription op by the same "sub:<clientID>:<name>" key its messages
// use, keeping a durable subscription and its backlog in one shard.
func (s *ShardedWAL) stage(op Op) (RecordID, commit, error) {
	return s.shardFor(op.EndpointOf()).stage(op)
}

// Snapshot implements Store: the merge of every shard's snapshot.
// Endpoints are disjoint across shards, so the merge is a union;
// subscriptions re-sort by key so the merged order is deterministic
// regardless of shard layout.
func (s *ShardedWAL) Snapshot() (*State, error) {
	merged := &State{Messages: map[string][]StoredMessage{}}
	for _, w := range s.shards {
		st, err := w.Snapshot()
		if err != nil {
			return nil, err
		}
		for ep, msgs := range st.Messages {
			merged.Messages[ep] = msgs
		}
		merged.Subscriptions = append(merged.Subscriptions, st.Subscriptions...)
	}
	sort.Slice(merged.Subscriptions, func(i, j int) bool {
		return merged.Subscriptions[i].Key() < merged.Subscriptions[j].Key()
	})
	return merged, nil
}

// Compact rewrites every shard's log to live state only. A cross-shard
// barrier runs first: every shard flushes its commit pipeline before
// any shard rewrites its file, so the set of compacted logs reflects a
// single consistent cut — a caller whose writes (possibly spread over
// several shards) all returned before Compact finds every one of them
// in the compacted state, never a prefix.
func (s *ShardedWAL) Compact() error {
	for _, w := range s.shards {
		if err := w.barrier(); err != nil {
			return err
		}
	}
	for _, w := range s.shards {
		if err := w.Compact(); err != nil {
			return err
		}
	}
	return nil
}

// Close implements Store. Every shard flushes and closes; the shared
// stream (which no single shard owns) closes exactly once afterwards.
func (s *ShardedWAL) Close() error {
	var first error
	for _, w := range s.shards {
		if err := w.Close(); err != nil && first == nil {
			first = err
		}
	}
	if s.stream != nil {
		s.stream.Close()
	}
	return first
}
