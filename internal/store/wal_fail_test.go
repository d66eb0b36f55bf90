package store

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"jmsharness/internal/jms"
	"jmsharness/internal/obs"
)

// newTestWAL wires a WAL struct around f the way OpenWAL does, without
// starting the committer goroutine, so tests control when (and against
// what file state) commits run.
func newTestWAL(path string, f *os.File) *WAL {
	reg := obs.NewRegistry()
	w := &WAL{
		path:          path,
		sync:          true,
		f:             f,
		mirror:        NewMemory(),
		reqCh:         make(chan walCommit, maxCommitBatch),
		committerDone: make(chan struct{}),
		met: walMetrics{
			batch:   reg.Histogram("wal.commit_batch", CommitBatchBounds()),
			syncNs:  reg.Histogram("wal.sync_ns", nil),
			records: reg.Counter("wal.records"),
		},
	}
	w.ops = ops{w}
	w.app.Dst = w.mirror
	return w
}

// encAdd encodes one add-message payload, as the mutators do.
func encAdd(id uint64, m *jms.Message) []byte {
	e := jms.NewEncoder(nil)
	AppendOp(e, Op{Kind: OpAddMessage, ID: RecordID(id), Endpoint: "queue:q", Msg: m})
	return e.Bytes()
}

// TestWALCommitErrorReleasesWaiterHoldingMu regression-tests the
// committer-vs-mu deadlock: a waiter may legitimately hold w.mu while
// blocked on its done channel (Compact does exactly this for its flush
// barrier, and a mutator can hold w.mu while enqueueing into a full
// reqCh), so on a commit error the committer must release the batch's
// waiters without ever acquiring w.mu. The old code took w.mu to set
// the sticky failure before delivering, which wedged forever here.
func TestWALCommitErrorReleasesWaiterHoldingMu(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fail.wal")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := newTestWAL(path, f)
	// Sabotage the file so the first batch's write fails.
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	w.mu.Lock()
	done := w.commitLocked(encAdd(1, msg("doomed")))
	go w.commitLoop()
	// Wait for the commit result while still holding w.mu, mirroring
	// Compact's barrier wait.
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("commit against a closed file reported success")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("deadlock: committer never delivered the commit error to a waiter holding w.mu")
	}
	w.mu.Unlock()

	// The failure is sticky for mutations and reads alike: the mirror
	// may hold the record the caller was just told failed.
	if _, err := w.AddMessage("queue:q", msg("after")); err == nil {
		t.Fatal("AddMessage after a commit failure reported success")
	}
	if _, err := w.Snapshot(); err == nil {
		t.Fatal("Snapshot after a commit failure reported success")
	}
	_ = w.Close() // file already closed; only the goroutine shutdown matters
}

// TestWALCommitErrorRefusesLaterBatches proves that once a batch fails,
// records buffered behind it are refused rather than written: a failed
// write can leave a torn frame mid-log, and replay stops at the first
// bad frame, so anything appended past the hole would be acknowledged
// yet silently lost on recovery.
func TestWALCommitErrorRefusesLaterBatches(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fail.wal")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := newTestWAL(path, f)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	w.mu.Lock()
	done1 := w.commitLocked(encAdd(1, msg("first")))
	w.mu.Unlock()
	go w.commitLoop()
	if err := <-done1; err == nil {
		t.Fatal("commit against a closed file reported success")
	}

	// Heal the file handle: if the committer still wrote post-failure
	// batches, this record would land on disk and be acknowledged.
	// The swap is ordered before the committer's next batch by the
	// reqCh send below.
	healed, err := os.Create(filepath.Join(dir, "healed.wal"))
	if err != nil {
		t.Fatal(err)
	}
	w.f = healed

	w.mu.Lock()
	done2 := w.commitLocked(encAdd(2, msg("second")))
	w.mu.Unlock()
	if err := <-done2; err == nil {
		t.Fatal("commit queued behind a failed batch reported success")
	}
	st, err := healed.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != 0 {
		t.Fatalf("committer wrote %d bytes after a failed batch", st.Size())
	}
	_ = w.Close()
}
