package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"jmsharness/internal/jms"
	"jmsharness/internal/obs"
)

// WAL is a file-backed Store built on a write-ahead log. Every mutation
// is appended as a checksummed record and made durable (when Sync is
// enabled) before the mutating call returns; OpenWAL replays the log,
// tolerating a torn final record.
//
// Durability is group-committed: mutating calls apply their record to
// the in-memory mirror under the store lock, hand the encoded record to
// a committer goroutine, and block until the batch containing their
// record has been written and fsynced. Concurrent writers therefore
// share one write+fsync instead of paying one each — the classic group
// commit — without weakening the contract that AddMessage does not
// return before its record is on disk. Record order in the log matches
// mirror-apply order (both happen under the store lock), so replay
// reconstructs exactly the mirrored state.
//
// Record framing: uvarint payload length | payload | crc32(payload).
// Payload: 1 type byte followed by type-specific fields in the shared
// binary encoding (jms.Encoder).
type WAL struct {
	ops
	path string
	sync bool

	mu     sync.Mutex
	f      *os.File // swapped by Compact; committer access is ordered via reqCh
	mirror *Memory  // in-memory mirror for reads and snapshotting
	nextID RecordID
	closed bool
	// failMu guards failed separately from mu because the committer
	// records commit errors while a mu holder may be blocked waiting on
	// the committer itself — Compact waits on its flush barrier under
	// mu, and a mutator can block sending into a full reqCh under mu.
	// If the committer took mu to set failed, either state would be a
	// deadlock that wedges the WAL and everything behind it.
	failMu sync.Mutex
	// failed is the sticky first commit error: once a write or fsync
	// fails the log's tail is suspect, so every later mutation is
	// refused rather than risking divergence between mirror and disk.
	// Snapshot is refused too: the mirror may hold records whose commit
	// failed — state the caller was explicitly told is not durable.
	failed error
	// app applies records to the mirror, translating WAL record IDs to
	// mirror IDs so the two stay consistent across compaction. The WAL
	// assigns its own IDs.
	app Applier
	// stream, when set, receives every committed record payload from
	// the group-commit loop — after the batch is durable, before its
	// waiters are released — so replication followers never see a
	// record that a crash could still lose.
	stream *Stream
	// ownsStream marks the WAL responsible for closing stream. A WAL
	// opened as one shard of a ShardedWAL shares the stream with its
	// siblings, and the sharded wrapper closes it exactly once.
	ownsStream bool
	// sharedID, when set, is a record-ID source shared with sibling
	// shards: AddMessage draws from it instead of the private nextID so
	// IDs are unique and monotonic across the whole sharded store, which
	// is what lets recovery order records from different shard files by
	// a single global sequence.
	sharedID *atomic.Uint64

	// reqCh feeds the committer goroutine. Sends happen only under mu,
	// which makes closing the channel in Close safe and gives the log
	// the same total order as the mirror.
	reqCh chan walCommit
	// committerDone is closed when the committer goroutine has drained
	// reqCh and exited.
	committerDone chan struct{}

	met walMetrics
}

// walCommit is one record awaiting group commit. A nil payload is a
// flush barrier: it carries no bytes but its done channel fires only
// after everything enqueued before it is durable.
type walCommit struct {
	payload []byte
	done    chan error
}

// walMetrics instruments the committer (metric names under "wal.*").
type walMetrics struct {
	batch      *obs.Histogram // records per group commit
	syncNs     *obs.Histogram // fsync latency, ns
	commitWait *obs.Histogram // AddMessage wait for durability, ns
	records    *obs.Counter   // records appended
}

// CommitBatchBounds are the bucket upper bounds for the
// "wal.commit_batch" histogram: powers of two spanning 1..1024 records
// per fsync.
func CommitBatchBounds() []int64 {
	out := make([]int64, 0, 11)
	for b := int64(1); b <= 1024; b *= 2 {
		out = append(out, b)
	}
	return out
}

// maxCommitBatch bounds how many records one group commit may coalesce,
// keeping a single batch's buffer (and the latency of the callers at
// its head) bounded under extreme writer counts.
const maxCommitBatch = 512

// WALOptions configures OpenWAL.
type WALOptions struct {
	// Sync forces an fsync per commit batch, matching the durability of
	// a real persistent-mode provider. Disable for unit tests only.
	Sync bool
	// Metrics receives the WAL's instruments ("wal.commit_batch",
	// "wal.sync_ns", "wal.records"). Nil means a private registry.
	Metrics *obs.Registry
	// Stream, when non-nil, receives every committed record payload
	// (replayed history first, then live records from the group-commit
	// loop) for replication followers to subscribe to.
	Stream *Stream
}

// OpenWAL opens (or creates) the log at path, replaying existing records
// to rebuild durable state.
func OpenWAL(path string, opts WALOptions) (*WAL, error) {
	return openWAL(path, opts, nil, true)
}

// openWAL is the shared constructor: sharedID and ownsStream distinguish
// a standalone WAL from one shard of a ShardedWAL.
func openWAL(path string, opts WALOptions, sharedID *atomic.Uint64, ownsStream bool) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening WAL %s: %w", path, err)
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	w := &WAL{
		path:          path,
		sync:          opts.Sync,
		f:             f,
		mirror:        NewMemory(),
		stream:        opts.Stream,
		ownsStream:    ownsStream,
		sharedID:      sharedID,
		reqCh:         make(chan walCommit, maxCommitBatch),
		committerDone: make(chan struct{}),
		met: walMetrics{
			batch:      reg.Histogram("wal.commit_batch", CommitBatchBounds()),
			syncNs:     reg.Histogram("wal.sync_ns", nil),
			commitWait: reg.Histogram("wal.commit_wait_ns", nil),
			records:    reg.Counter("wal.records"),
		},
	}
	w.ops = ops{w}
	w.app.Dst = w.mirror
	if err := w.replay(); err != nil {
		_ = f.Close()
		return nil, err
	}
	go w.commitLoop()
	return w, nil
}

var (
	_ Store  = (*WAL)(nil)
	_ Staged = (*WAL)(nil)
)

// replay scans the log, applying records to the mirror. A torn final
// record (short read or bad checksum at the tail) truncates the log to
// the last good record, mirroring standard WAL recovery.
func (w *WAL) replay() error {
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: seeking WAL: %w", err)
	}
	data, err := io.ReadAll(w.f)
	if err != nil {
		return fmt.Errorf("store: reading WAL: %w", err)
	}
	pos := 0
	goodEnd := 0
	var replayed [][]byte
	for pos < len(data) {
		payload, next, ok := readFrame(data, pos)
		if !ok {
			break // torn tail
		}
		if err := w.apply(payload); err != nil {
			return fmt.Errorf("store: WAL record at offset %d: %w", pos, err)
		}
		if w.stream != nil {
			replayed = append(replayed, payload)
		}
		pos = next
		goodEnd = next
	}
	if w.stream != nil {
		// Seed the stream with the durable history so a follower that
		// resyncs from offset zero receives the full state.
		w.stream.Publish(replayed...)
	}
	if goodEnd < len(data) {
		if err := w.f.Truncate(int64(goodEnd)); err != nil {
			return fmt.Errorf("store: truncating torn WAL tail: %w", err)
		}
	}
	if _, err := w.f.Seek(int64(goodEnd), io.SeekStart); err != nil {
		return fmt.Errorf("store: seeking WAL end: %w", err)
	}
	return nil
}

// readFrame parses one frame starting at pos, returning the payload and
// the offset after the frame. ok is false for a truncated or corrupt
// frame.
func readFrame(data []byte, pos int) (payload []byte, next int, ok bool) {
	n, sz := binary.Uvarint(data[pos:])
	if sz <= 0 {
		return nil, 0, false
	}
	if n > uint64(len(data)) {
		return nil, 0, false
	}
	start := pos + sz
	end := start + int(n)
	if end+4 > len(data) {
		return nil, 0, false
	}
	payload = data[start:end]
	want := binary.LittleEndian.Uint32(data[end : end+4])
	if crc32.ChecksumIEEE(payload) != want {
		return nil, 0, false
	}
	return payload, end + 4, true
}

// appendFrame appends one framed record to buf and returns the extended
// buffer. Reusing buf across records amortises the frame-encoding
// allocations that a per-record binary.AppendUvarint(nil, …) would pay.
func appendFrame(buf, payload []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
}

// apply interprets one record payload against the mirror.
func (w *WAL) apply(payload []byte) error {
	op, err := DecodeOp(payload)
	if err != nil {
		return err
	}
	if err := w.app.Apply(op); err != nil {
		return err
	}
	if op.Kind == OpAddMessage && op.ID > w.nextID {
		w.nextID = op.ID
	}
	if op.Kind == OpAddMessage && w.sharedID != nil {
		// Raise the shared global sequence to at least this record's ID
		// so IDs allocated after recovery stay above every replayed
		// record in every shard.
		for {
			cur := w.sharedID.Load()
			if uint64(op.ID) <= cur || w.sharedID.CompareAndSwap(cur, uint64(op.ID)) {
				break
			}
		}
	}
	return nil
}

// nextRecordID allocates the next message record ID. Callers hold w.mu.
func (w *WAL) nextRecordID() RecordID {
	if w.sharedID != nil {
		return RecordID(w.sharedID.Add(1))
	}
	w.nextID++
	return w.nextID
}

// commitLoop is the committer goroutine: it drains reqCh, coalescing
// every record available (up to maxCommitBatch) into a single
// write+fsync, then releases all of the batch's waiters at once. It
// must never acquire w.mu: waiters can hold w.mu while blocked on the
// committer (see failMu), so it reports errors via setFailed only.
func (w *WAL) commitLoop() {
	defer close(w.committerDone)
	var frame []byte       // reused frame-encoding buffer
	var published [][]byte // reused stream-publication scratch
	// sticky is the committer's copy of the first commit error. A
	// failed write can leave a torn frame mid-log, and replay stops at
	// the first bad frame — so appending records already buffered in
	// reqCh past that hole would acknowledge writes that silently
	// vanish on recovery. Once set, every later dequeued commit is
	// refused with the original error instead of written.
	var sticky error
	pending := make([]walCommit, 0, maxCommitBatch)
	for req := range w.reqCh {
		pending = append(pending[:0], req)
	drain:
		for len(pending) < maxCommitBatch {
			select {
			case more, ok := <-w.reqCh:
				if !ok {
					break drain
				}
				pending = append(pending, more)
			default:
				break drain
			}
		}
		err := sticky
		if err == nil {
			frame = frame[:0]
			records := 0
			for _, c := range pending {
				if c.payload == nil {
					continue // flush barrier
				}
				frame = appendFrame(frame, c.payload)
				records++
			}
			if records > 0 {
				if _, werr := w.f.Write(frame); werr != nil {
					err = fmt.Errorf("store: appending WAL records: %w", werr)
				} else if w.sync {
					start := time.Now()
					if serr := w.f.Sync(); serr != nil {
						err = fmt.Errorf("store: syncing WAL: %w", serr)
					}
					w.met.syncNs.ObserveDuration(time.Since(start))
				}
				w.met.batch.Observe(int64(records))
				w.met.records.Add(int64(records))
			}
			if err != nil {
				sticky = err
				w.setFailed(err)
			} else if w.stream != nil && records > 0 {
				// Publish the now-durable batch before releasing its
				// waiters: a caller observing its own write complete can
				// rely on the record already being in the stream, which
				// is what lets semi-synchronous replication wait on the
				// stream's LastSeq after a store call returns.
				published = published[:0]
				for _, c := range pending {
					if c.payload != nil {
						published = append(published, c.payload)
					}
				}
				w.stream.Publish(published...)
			}
		}
		for _, c := range pending {
			c.done <- err
		}
	}
}

// commit enqueues one encoded record (or a nil-payload barrier) for
// group commit. Callers hold w.mu for the enqueue — guaranteeing log
// order matches mirror order — and must release it before waiting on
// the returned channel.
func (w *WAL) commitLocked(payload []byte) chan error {
	done := make(chan error, 1)
	w.reqCh <- walCommit{payload: payload, done: done}
	return done
}

// setFailed records the sticky first commit error. Called from the
// committer, so it must not touch w.mu (see failMu).
func (w *WAL) setFailed(err error) {
	w.failMu.Lock()
	if w.failed == nil {
		w.failed = err
	}
	w.failMu.Unlock()
}

// failedErr returns the sticky commit error, or nil.
func (w *WAL) failedErr() error {
	w.failMu.Lock()
	defer w.failMu.Unlock()
	return w.failed
}

// checkOpenLocked verifies the WAL accepts mutations. Callers hold w.mu.
func (w *WAL) checkOpenLocked() error {
	if w.closed {
		return fmt.Errorf("store: %w", jms.ErrClosed)
	}
	return w.failedErr()
}

// encPool recycles record-payload buffers across mutations.
var encPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 256); return &b },
}

// putEnc returns a payload buffer to the pool, dropping oversized ones
// so a single huge message body does not pin memory forever.
func putEnc(buf *[]byte) {
	if cap(*buf) <= 1<<16 {
		*buf = (*buf)[:0]
		encPool.Put(buf)
	}
}

// commit is a staged op's durability handle. The zero commit is
// already durable: a store without commit latency returns it.
type commit struct {
	done chan error // fires once the op's group commit is on disk
	buf  *[]byte    // the op's pooled payload buffer, recycled once durable
	// timer, when set, observes how long the wait blocked: for an
	// added message that is the "WAL-commit wait" hop of its
	// distributed trace.
	timer *obs.Histogram
}

// wait blocks until the op is durable and returns its commit error.
// Call it exactly once.
func (c commit) wait() error {
	if c.done == nil {
		return nil
	}
	var start time.Time
	if c.timer != nil {
		start = time.Now()
	}
	err := <-c.done
	if c.timer != nil {
		c.timer.ObserveDuration(time.Since(start))
	}
	putEnc(c.buf)
	return err
}

// waitFunc returns wait as the closure Staged hands out.
func (c commit) waitFunc() func() error {
	if c.done == nil {
		return noWait
	}
	return c.wait
}

// stage implements stager: the op is applied to the mirror and
// enqueued for group commit under w.mu, which keeps log order equal to
// mirror order, and the returned commit waits for its batch to be on
// disk. Only the durability wait is left to the caller, which is what
// lets a pipelined producer keep many appends in flight inside one
// fsync domain and a session fold N acknowledgements into one group
// commit. A mark of an unknown record changes nothing and writes no
// record.
func (w *WAL) stage(op Op) (RecordID, commit, error) {
	buf := encPool.Get().(*[]byte)
	w.mu.Lock()
	if err := w.checkOpenLocked(); err != nil {
		w.mu.Unlock()
		putEnc(buf)
		return 0, commit{}, err
	}
	if op.Kind == OpAddMessage {
		op.ID = w.nextRecordID()
	}
	_, changed, err := w.app.apply(op)
	if err != nil || !changed {
		if err != nil && op.Kind == OpAddMessage && w.sharedID == nil {
			w.nextID--
		}
		w.mu.Unlock()
		putEnc(buf)
		return 0, commit{}, err
	}
	e := jms.NewEncoder(*buf)
	AppendOp(e, op)
	*buf = e.Bytes()
	c := commit{done: w.commitLocked(*buf), buf: buf}
	w.mu.Unlock()
	if op.Kind == OpAddMessage {
		c.timer = w.met.commitWait
	}
	return op.ID, c, nil
}

// Snapshot implements Store. The snapshot's record IDs are WAL record
// IDs, valid for RemoveMessage on this store.
func (w *WAL) Snapshot() (*State, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil, fmt.Errorf("store: %w", jms.ErrClosed)
	}
	if err := w.failedErr(); err != nil {
		// A failed commit leaves its record in the mirror even though
		// the caller was told the write failed; serving that state
		// would present reads that were never durable.
		return nil, err
	}
	st, err := w.mirror.Snapshot()
	if err != nil {
		return nil, err
	}
	// Translate mirror IDs back to WAL IDs.
	for ep, msgs := range st.Messages {
		reverse := map[RecordID]RecordID{}
		for walID, mirrorID := range w.app.ids[ep] {
			reverse[mirrorID] = walID
		}
		for i := range msgs {
			walID, ok := reverse[msgs[i].ID]
			if !ok {
				return nil, fmt.Errorf("store: mirror record %d on %q has no WAL id", msgs[i].ID, ep)
			}
			msgs[i].ID = walID
		}
	}
	return st, nil
}

// barrier blocks until every record enqueued before the call is durable
// (or returns the sticky commit failure). ShardedWAL uses it to align
// all shards on a consistent cut before compacting any of them.
func (w *WAL) barrier() error {
	w.mu.Lock()
	if err := w.checkOpenLocked(); err != nil {
		w.mu.Unlock()
		return err
	}
	done := w.commitLocked(nil)
	w.mu.Unlock()
	return <-done
}

// Compact rewrites the log to contain only live state, bounding log
// growth. Record IDs remain valid.
func (w *WAL) Compact() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.checkOpenLocked(); err != nil {
		return err
	}
	// Flush the committer pipeline: everything applied to the mirror
	// must be in the old log before we snapshot and swap files,
	// otherwise an in-flight record could land in the new log twice or
	// reference state the compacted log no longer carries. Holding w.mu
	// blocks new enqueues while the barrier drains.
	if err := <-w.commitLocked(nil); err != nil {
		return err
	}
	st, err := w.mirror.Snapshot()
	if err != nil {
		return err
	}
	tmpPath := w.path + ".compact"
	tmp, err := os.Create(tmpPath)
	if err != nil {
		return fmt.Errorf("store: creating compaction file: %w", err)
	}
	defer os.Remove(tmpPath)
	var frame []byte
	writeRec := func(payload []byte) error {
		frame = appendFrame(frame[:0], payload)
		_, err := tmp.Write(frame)
		return err
	}
	for _, sub := range st.Subscriptions {
		e := jms.NewEncoder(nil)
		AppendOp(e, Op{Kind: OpAddSubscription, Sub: sub})
		if err := writeRec(e.Bytes()); err != nil {
			_ = tmp.Close()
			return fmt.Errorf("store: compacting: %w", err)
		}
	}
	reverse := map[string]map[RecordID]RecordID{}
	for ep, m := range w.app.ids {
		reverse[ep] = map[RecordID]RecordID{}
		for walID, mirrorID := range m {
			reverse[ep][mirrorID] = walID
		}
	}
	for ep, msgs := range st.Messages {
		for _, sm := range msgs {
			walID := reverse[ep][sm.ID]
			e := jms.NewEncoder(make([]byte, 0, 64+sm.Msg.BodySize()))
			AppendOp(e, Op{Kind: OpAddMessage, ID: walID, Endpoint: ep, Msg: sm.Msg})
			if err := writeRec(e.Bytes()); err != nil {
				_ = tmp.Close()
				return fmt.Errorf("store: compacting: %w", err)
			}
			if sm.Delivered {
				e := jms.NewEncoder(make([]byte, 0, 32))
				AppendOp(e, Op{Kind: OpMarkDelivered, ID: walID, Endpoint: ep})
				if err := writeRec(e.Bytes()); err != nil {
					_ = tmp.Close()
					return fmt.Errorf("store: compacting: %w", err)
				}
			}
		}
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		return fmt.Errorf("store: syncing compaction file: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: closing compaction file: %w", err)
	}
	if err := os.Rename(tmpPath, w.path); err != nil {
		return fmt.Errorf("store: installing compacted WAL: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("store: closing old WAL: %w", err)
	}
	f, err := os.OpenFile(w.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: reopening compacted WAL: %w", err)
	}
	// The committer observes the new file handle because its next batch
	// is ordered after this critical section: enqueues happen under
	// w.mu, and the channel send/receive pair carries the write.
	w.f = f
	return nil
}

// Close implements Store. Pending group commits are flushed before the
// file closes.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	// Safe: every send on reqCh happens under w.mu, and closed=true
	// stops new ones.
	close(w.reqCh)
	w.mu.Unlock()
	<-w.committerDone
	if w.stream != nil && w.ownsStream {
		w.stream.Close()
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("store: closing WAL: %w", err)
	}
	return nil
}
