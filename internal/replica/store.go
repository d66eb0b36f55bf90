package replica

import (
	"sync"

	"jmsharness/internal/jms"
	"jmsharness/internal/store"
)

// replicatedStore decorates a node's stable store with the semisync
// replication barrier: every mutation first commits locally (and
// publishes to the node's committed-record stream), then blocks until
// the endpoint's follower has acknowledged the stream through that
// record. The stream sequence to wait for is read *after* the inner
// call returns — both the WAL group-commit loop and a streamed Memory
// (store.NewStreamed) publish before releasing the caller, so LastSeq()
// is guaranteed to cover this mutation.
type replicatedStore struct {
	inner  store.Store
	stream *store.Stream
	m      *Manager
	node   int
	// cutMu makes snapshotCut an atomic cut of the record stream: every
	// mutation holds the read side across the inner call (which commits
	// AND publishes before returning), so the write side observes a
	// store with no mutation between commit and publication — the
	// snapshot then corresponds exactly to stream position LastSeq().
	cutMu sync.RWMutex
}

var _ store.Store = (*replicatedStore)(nil)

func (r *replicatedStore) barrier(endpoint string) error {
	return r.m.waitReplicated(r.node, endpoint, r.stream.LastSeq())
}

// snapshotCut returns the store's state together with the stream
// sequence it is exactly consistent with: every record ≤ cut is
// reflected in the state, no record > cut is. Senders use it to resync
// a follower whose replay window was trimmed away.
func (r *replicatedStore) snapshotCut() (*store.State, uint64, error) {
	r.cutMu.Lock()
	defer r.cutMu.Unlock()
	snap, err := r.inner.Snapshot()
	if err != nil {
		return nil, 0, err
	}
	return snap, r.stream.LastSeq(), nil
}

func (r *replicatedStore) AddMessage(endpoint string, msg *jms.Message) (store.RecordID, error) {
	var id store.RecordID
	err := r.write(endpoint, func() (err error) {
		id, err = r.inner.AddMessage(endpoint, msg)
		return err
	})
	return id, err
}

func (r *replicatedStore) RemoveMessage(endpoint string, id store.RecordID) error {
	return r.write(endpoint, func() error { return r.inner.RemoveMessage(endpoint, id) })
}

func (r *replicatedStore) MarkDelivered(endpoint string, id store.RecordID) error {
	return r.write(endpoint, func() error { return r.inner.MarkDelivered(endpoint, id) })
}

func (r *replicatedStore) AddSubscription(sub store.SubscriptionRecord) error {
	return r.write("sub:"+sub.ClientID+":"+sub.Name, func() error { return r.inner.AddSubscription(sub) })
}

func (r *replicatedStore) RemoveSubscription(clientID, name string) error {
	return r.write("sub:"+clientID+":"+name, func() error { return r.inner.RemoveSubscription(clientID, name) })
}

// write runs one mutation of the inner store under the read side of
// cutMu, then holds the caller at the replication barrier for the
// mutation's endpoint.
func (r *replicatedStore) write(endpoint string, mutate func() error) error {
	r.cutMu.RLock()
	err := mutate()
	r.cutMu.RUnlock()
	if err != nil {
		return err
	}
	return r.barrier(endpoint)
}

func (r *replicatedStore) Snapshot() (*store.State, error) { return r.inner.Snapshot() }

func (r *replicatedStore) Close() error { return r.inner.Close() }
