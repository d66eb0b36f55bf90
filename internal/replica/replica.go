// Package replica adds per-destination replication and automated
// failover to the broker cluster: every destination gets a primary (its
// consistent-hash owner) plus ReplicationFactor followers — the next R
// distinct nodes in the key's ring-walk order — that consume the
// primary's committed record stream (sends, acknowledges,
// delivered-markers, expirations) over dedicated TCP replication links
// with sequence numbers, acked offsets and crc-checked frames.
//
// Replication is semi-synchronous with quorum acknowledgement: a store
// mutation returns to the producer only after its record is durable
// locally AND acknowledged by QuorumSize of the destination's
// followers. A follower that cannot acknowledge within SyncTimeout
// degrades its link — the write barrier stops counting it until it
// catches back up (availability over strict sync, as in MySQL
// semisync) — and when enough links degrade that the quorum is
// unreachable the write proceeds under visibly reduced cover
// (replica.unquorate_writes counts it; /clusterz shows quorum unmet),
// never silently: one partitioned link cannot drop all redundancy the
// way a single-follower scheme does.
//
// Failure detection is witness-based and partition-tolerant. Every
// node runs its own probe loop against each peer, dialing through the
// same (chaos-wrappable) links replication uses; probes piggyback the
// prober's suspicion bitmap and the pong returns the responder's, so
// each node accumulates its peers' votes only over links that actually
// work. A node is declared dead — and promote() fires — only when a
// majority of the live witnesses agree, so a one-way partition of a
// single observer can never false-promote a primary the rest of the
// cluster still reaches. On promotion the most-caught-up live follower
// (highest replication cursor for the dead source) is elected the new
// primary per endpoint, pinned into the routing ring, and the
// remaining followers force-resync to it; the routing ring remaps
// (cluster.MarkNodeDown) and the dead node is fenced so a zombie
// primary cannot accept writes under stale routing. Reconnecting
// clients land on the promoted follower; messages the old primary had
// handed out but not seen acknowledged arrive flagged JMSRedelivered,
// so the conformance model's duplicate/FIFO exemptions apply exactly as
// in single-node crash recovery.
package replica

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jmsharness/internal/broker"
	"jmsharness/internal/cluster"
	"jmsharness/internal/obs"
	"jmsharness/internal/store"
)

// ErrHalted is returned to a producer whose record could not be
// replicated because its node's replication was stopped (the node was
// declared dead mid-write). The record is durable locally but was never
// acknowledged to the client — the classic indeterminate send.
var ErrHalted = errors.New("replica: replication halted")

// Options configures NewLocal.
type Options struct {
	// Profile, Placement, Metrics, Spans and Seed are handed to
	// cluster.NewLocal. Placement must implement RankedPlacement for
	// follower selection; nil means the default hash ring.
	Profile   broker.Profile
	Placement cluster.Placement
	Metrics   *obs.Registry
	Spans     obs.SpanRecorder
	Seed      uint64
	// HeartbeatEvery is the failure detector's probe interval (default
	// 100ms); HeartbeatMisses the consecutive misses that declare a
	// node dead (default 5). Detection budget ≈ Every × Misses. The
	// defaults are deliberately conservative — a false positive fences
	// a healthy node permanently, so the budget must absorb scheduler
	// and fsync stalls on a loaded host; controlled experiments pass
	// tighter values explicitly.
	HeartbeatEvery  time.Duration
	HeartbeatMisses int
	// SyncTimeout bounds how long a producer waits for its record's
	// quorum of follower acknowledgements before the slow links degrade
	// (default 2s).
	SyncTimeout time.Duration
	// ReplicationFactor is how many distinct follower nodes every
	// destination fans out to — the next R live nodes in its ring-walk
	// order after the primary (default 1, clamped to n-1). QuorumSize
	// is how many of those followers must acknowledge a record before
	// the semisync barrier releases (default: a majority of the factor,
	// ceil(R/2); clamped to [1, ReplicationFactor]). A write whose
	// quorum becomes unreachable — enough links degraded, partitioned
	// or detached — proceeds under reduced cover and is counted in
	// replica.unquorate_writes, so redundancy loss is visible before it
	// becomes data loss.
	ReplicationFactor int
	QuorumSize        int
	// OpenStore supplies node i's stable store and the committed-record
	// stream feeding its replication links. Nil means an in-memory
	// store publishing to its stream (store.NewStreamed); a WAL-backed
	// node passes store.WALOptions.Stream instead.
	OpenStore func(i int) (store.Store, *store.Stream, error)
	// WrapLink rewrites the dial address of the from→to replication
	// link, letting experiments interpose a chaos proxy on inter-node
	// links. Nil means direct connection. Called on every dial.
	WrapLink func(from, to int, addr string) string
}

// replNode is one node's replication state. The state this node holds
// as a follower of its peers lives in its repServer, one store per
// source, so resyncing one peer never disturbs another's data.
type replNode struct {
	name string
	// stable is the node's replicated store (what its broker writes
	// through); stream its committed-record feed.
	stable  *replicatedStore
	stream  *store.Stream
	broker  *broker.Broker
	server  *repServer
	senders map[int]*sender

	// ackMu/ackCh wake the node's quorum barriers (waitReplicated)
	// whenever any of its links makes progress; every sender broadcast
	// feeds it.
	ackMu sync.Mutex
	ackCh chan struct{}
}

// ackWake returns the channel the next link-progress broadcast closes.
// Grab it before observing link state so no wakeup can be lost.
func (n *replNode) ackWake() chan struct{} {
	n.ackMu.Lock()
	defer n.ackMu.Unlock()
	return n.ackCh
}

// wakeWaiters wakes every quorum barrier blocked on this node's links.
func (n *replNode) wakeWaiters() {
	n.ackMu.Lock()
	close(n.ackCh)
	n.ackCh = make(chan struct{})
	n.ackMu.Unlock()
}

// Manager owns a replicated local cluster: the cluster itself, one
// replication server and follower store per node, the inter-node
// senders, and the failure detector.
type Manager struct {
	opts  Options
	c     *cluster.Cluster
	nodes []*replNode

	promotions         atomic.Int64
	lastPromotionEpoch atomic.Int64

	met struct {
		promotions *obs.Counter
		lag        *obs.Gauge
		unquorate  *obs.Counter
	}

	// det holds each node's private witness view (probe misses and
	// peer votes); det[i] is updated only by probes and pongs that
	// traversed node i's own links.
	det []*peerView

	// pmu serializes promotions.
	pmu sync.Mutex

	mu        sync.Mutex
	endpoints map[string]bool // endpoints observed in replication traffic
	events    []string
	closed    bool

	stop chan struct{}
}

// NewLocal builds an n-node replicated cluster of in-process brokers
// (n ≥ 2 for replication to exist; n == 1 degenerates to a plain
// cluster). Close shuts everything down.
func NewLocal(n int, opts Options) (*Manager, error) {
	if n <= 0 {
		return nil, fmt.Errorf("replica: need n > 0 nodes, got %d", n)
	}
	if opts.HeartbeatEvery <= 0 {
		opts.HeartbeatEvery = 100 * time.Millisecond
	}
	if opts.HeartbeatMisses <= 0 {
		opts.HeartbeatMisses = 5
	}
	if opts.SyncTimeout <= 0 {
		opts.SyncTimeout = 2 * time.Second
	}
	if opts.ReplicationFactor < 1 {
		opts.ReplicationFactor = 1
	}
	if max := n - 1; max > 0 && opts.ReplicationFactor > max {
		opts.ReplicationFactor = max
	}
	if opts.QuorumSize < 1 {
		opts.QuorumSize = (opts.ReplicationFactor + 1) / 2
	}
	if opts.QuorumSize > opts.ReplicationFactor {
		opts.QuorumSize = opts.ReplicationFactor
	}
	if opts.OpenStore == nil {
		opts.OpenStore = func(int) (store.Store, *store.Stream, error) {
			s := store.NewStream()
			return store.NewStreamed(store.NewMemory(), s), s, nil
		}
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &Manager{
		opts:      opts,
		nodes:     make([]*replNode, n),
		endpoints: map[string]bool{},
		det:       make([]*peerView, n),
		stop:      make(chan struct{}),
	}
	for i := range m.det {
		m.det[i] = newPeerView(n)
	}
	m.met.promotions = reg.Counter("replica.promotions")
	m.met.lag = reg.Gauge("replica.lag_records")
	m.met.unquorate = reg.Counter("replica.unquorate_writes")

	fail := func(err error) (*Manager, error) {
		m.teardown()
		return nil, err
	}
	stables := make([]store.Store, n)
	for i := 0; i < n; i++ {
		base, stream, err := opts.OpenStore(i)
		if err != nil {
			return fail(err)
		}
		node := &replNode{
			stream:  stream,
			senders: map[int]*sender{},
			ackCh:   make(chan struct{}),
		}
		node.stable = &replicatedStore{inner: base, stream: stream, m: m, node: i}
		m.nodes[i] = node
		stables[i] = node.stable
	}
	c, err := cluster.NewLocal(n, cluster.LocalOptions{
		NamePrefix: "replica",
		Profile:    opts.Profile,
		Stables:    stables,
		Placement:  opts.Placement,
		Metrics:    opts.Metrics,
		Spans:      opts.Spans,
		Seed:       opts.Seed,
	})
	if err != nil {
		return fail(err)
	}
	m.c = c
	for i := 0; i < n; i++ {
		m.nodes[i].name = c.NodeName(i)
		b, ok := c.NodeFactory(i).(*broker.Broker)
		if !ok {
			_ = c.Close()
			return fail(fmt.Errorf("replica: node %d is not an in-process broker", i))
		}
		m.nodes[i].broker = b
	}
	// Servers start only after every node's broker handle is in place,
	// so liveness probes never observe a half-built manager.
	for i := 0; i < n; i++ {
		srv, err := newRepServer(m, i)
		if err != nil {
			return fail(err)
		}
		m.nodes[i].server = srv
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			s := newSender(m, i, j)
			m.nodes[i].senders[j] = s
			go s.run()
		}
	}
	c.SetReplicationStatus(m.replicationStatus)
	// One witness loop per node: each probes its peers over its own
	// links and promotes only on a majority of live witnesses, so the
	// detector has no single point of failure (and no magically
	// partition-proof view).
	for i := 0; i < n; i++ {
		go m.detectFrom(i)
	}
	return m, nil
}

// Cluster returns the replicated cluster; it implements
// jms.ConnectionFactory and the harness's NodeCrasher, so a harness run
// against it can kill a node and exercise promotion end to end.
func (m *Manager) Cluster() *cluster.Cluster { return m.c }

// Promotions returns how many follower promotions have happened.
func (m *Manager) Promotions() int64 { return m.promotions.Load() }

// Events returns the replication event log (promotions, degradations,
// resyncs), oldest first.
func (m *Manager) Events() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.events...)
}

// event appends one timestamped line to the event log.
func (m *Manager) event(format string, args ...any) {
	m.mu.Lock()
	m.events = append(m.events, fmt.Sprintf(format, args...))
	m.mu.Unlock()
}

// observeEndpoint records an endpoint seen in replication traffic, for
// the /clusterz destination table.
func (m *Manager) observeEndpoint(ep string) {
	m.mu.Lock()
	if !m.endpoints[ep] {
		m.endpoints[ep] = true
	}
	m.mu.Unlock()
}

// rankedFor maps a stored endpoint to its live node ranking using the
// router's own key derivation: "queue:<name>" is already the queue's
// placement key; "sub:<clientID>:<subName>" maps to the durable key.
// Unknown endpoint shapes get no replication.
func (m *Manager) rankedFor(ep string) []int {
	if name, ok := strings.CutPrefix(ep, "queue:"); ok {
		return m.c.RankedLiveQueue(name)
	}
	if rest, ok := strings.CutPrefix(ep, "sub:"); ok {
		if cid, sub, ok := strings.Cut(rest, ":"); ok {
			return m.c.RankedLiveDurable(cid, sub)
		}
	}
	return nil
}

// followersFor returns the nodes that must replicate endpoint ep for
// the copy held on node from: the first ReplicationFactor live nodes
// in ep's ranking that are not from itself, in ranking order. Empty
// when no other node is live (single survivor).
func (m *Manager) followersFor(from int, ep string) []int {
	out := make([]int, 0, m.opts.ReplicationFactor)
	for _, n := range m.rankedFor(ep) {
		if n != from {
			out = append(out, n)
			if len(out) >= m.opts.ReplicationFactor {
				break
			}
		}
	}
	return out
}

// followerFor is the most-preferred follower, -1 when none exists.
func (m *Manager) followerFor(from int, ep string) int {
	if fs := m.followersFor(from, ep); len(fs) > 0 {
		return fs[0]
	}
	return -1
}

// shipsTo reports whether the from→to link carries endpoint ep under
// the current follower assignment.
func (m *Manager) shipsTo(from int, ep string, to int) bool {
	for _, n := range m.followersFor(from, ep) {
		if n == to {
			return true
		}
	}
	return false
}

// waitReplicated blocks until node from's committed records up to seq
// are acknowledged by a quorum of ep's followers, the quorum becomes
// unreachable (enough links degraded or detached: the write proceeds
// under visibly reduced cover), or the node's replication halts
// (ErrHalted: the producer must not see the write succeed). The
// semisync write barrier.
func (m *Manager) waitReplicated(from int, ep string, seq uint64) error {
	m.observeEndpoint(ep)
	targets := m.followersFor(from, ep)
	if len(targets) == 0 {
		return nil
	}
	need := m.opts.QuorumSize
	if need > len(targets) {
		need = len(targets)
	}
	node := m.nodes[from]
	timer := time.NewTimer(m.opts.SyncTimeout)
	defer timer.Stop()
	for {
		// Grab the wake channel before observing link state, so a
		// concurrent ack between observation and select still wakes us.
		wake := node.ackWake()
		acked, reachable := 0, 0
		var waiting []*sender
		halted := false
		for _, to := range targets {
			s := node.senders[to]
			if s == nil {
				continue
			}
			s.mu.Lock()
			switch {
			case s.halted:
				halted = true
			case s.peerDead || s.degraded:
				// Detached from the barrier until it catches back up;
				// contributes nothing to the quorum.
			case s.ackedThroughLocked() >= seq:
				acked++
				reachable++
			default:
				reachable++
				waiting = append(waiting, s)
			}
			s.mu.Unlock()
		}
		switch {
		case halted:
			return ErrHalted
		case acked >= need:
			return nil
		case reachable < need:
			// The quorum is unreachable right now. Degrade visibly —
			// the write is acknowledged with less cover than configured
			// — rather than blocking availability on links that will
			// not answer.
			m.met.unquorate.Inc()
			return nil
		}
		select {
		case <-wake:
		case <-timer.C:
			// The shared sync budget expired: degrade every link still
			// owing an ack (they re-attach when caught up), which
			// resolves the barrier one way or the other on the next
			// pass.
			for _, s := range waiting {
				s.setDegraded()
			}
		}
	}
}

// linkAddr resolves the dial address of the from→to replication link,
// applying the chaos interposition hook when configured.
func (m *Manager) linkAddr(from, to int) string {
	addr := m.nodes[to].server.Addr()
	if m.opts.WrapLink != nil {
		return m.opts.WrapLink(from, to, addr)
	}
	return addr
}

// promote fails node dead over to its followers: for every endpoint
// the dead node owned, the most-caught-up live follower (highest
// replication cursor for the dead source) is elected its new primary,
// adopts the replicated backlog and is pinned into the routing ring;
// routing then remaps (MarkNodeDown fences the dead node and bumps the
// epoch), and every surviving replication link resyncs against the new
// follower assignment.
func (m *Manager) promote(dead int) {
	m.pmu.Lock()
	defer m.pmu.Unlock()
	if m.c.NodeDown(dead) || m.isClosed() {
		return
	}
	deadName := m.nodes[dead].name
	m.event("detector: node %s declared dead", deadName)
	// Seal first: every live node permanently stops applying records
	// from the dead source, so the adoption snapshots below are final
	// even if a zombie sender is still flushing. Records sealed out
	// were never acknowledged to their producers (their semisync waits
	// end in ErrHalted below), so dropping them loses nothing acked.
	for j := range m.nodes {
		if j != dead {
			m.nodes[j].server.sealSource(deadName)
		}
	}
	// Election and adoption next, while RankedLive still ranks the dead
	// node primary. Snapshot every live node's follower state for the
	// dead source together with its cumulative apply cursor; for each
	// endpoint the dead node owned, the live holder with the highest
	// cursor — the most-caught-up follower — is elected its new
	// primary. (Followers of one source apply its records in sequence
	// order, so a higher cursor holds a superset of a lower one's
	// applied prefix; the laggard's copy is discarded and rebuilt by the
	// post-promotion resync.) The winner adopts the backlog into its own
	// broker — re-persisting it through its own replicated store, which
	// re-covers the data on the winner's followers — and is pinned into
	// the routing ring, since the most-caught-up node is not necessarily
	// the ring's next-live node.
	subsets := m.electAdopters(dead)
	for j := range m.nodes {
		subset := subsets[j]
		if subset == nil {
			continue
		}
		if err := m.nodes[j].broker.Adopt(subset); err != nil {
			m.event("promotion: adopt on %s failed: %v", m.nodes[j].name, err)
			continue
		}
		m.event("promotion: %s adopted %d endpoints from %s",
			m.nodes[j].name, len(subset.Messages)+len(subset.Subscriptions), m.nodes[dead].name)
	}
	// Release every producer blocked on replication involving the dead
	// node — its own senders halt with an error (in-flight unreplicated
	// records must NOT be acknowledged to producers), links toward it
	// detach (their records re-cover via the resync below).
	for i, node := range m.nodes {
		for to, s := range node.senders {
			if i == dead {
				s.halt()
			} else if to == dead {
				s.markPeerDead()
			}
		}
	}
	// Now flip routing: fences the dead node, remaps its destinations.
	epoch := m.c.MarkNodeDown(dead)
	m.lastPromotionEpoch.Store(epoch)
	m.promotions.Add(1)
	m.met.promotions.Inc()
	m.event("promotion: routing epoch %d, node %s fenced", epoch, m.nodes[dead].name)
	// Follower assignments changed for every endpoint the dead node
	// owned or followed; surviving links full-resync so the new
	// followers receive the history they skipped.
	for i, node := range m.nodes {
		if i == dead || m.c.NodeDown(i) {
			continue
		}
		for to, s := range node.senders {
			if to == dead || m.c.NodeDown(to) {
				continue
			}
			s.forceResync()
		}
	}
}

// electAdopters builds the per-node adoption sets for a promotion: for
// every endpoint the dead node owned (ranking it primary), the live
// follower holding it with the highest replication cursor for the dead
// source wins, ranking order breaking ties. The winner is pinned into
// the cluster's routing (PinQueue/PinDurable) so sends, receives and
// the post-promotion follower fan-out all agree on the new primary.
func (m *Manager) electAdopters(dead int) map[int]*store.State {
	deadName := m.nodes[dead].name
	type holder struct {
		snap   *store.State
		cursor uint64
	}
	holders := map[int]*holder{}
	for j := range m.nodes {
		if j == dead || m.c.NodeDown(j) {
			continue
		}
		snap, err := m.nodes[j].server.snapshotSource(deadName)
		if err != nil {
			m.event("promotion: snapshot on %s failed: %v", m.nodes[j].name, err)
			continue
		}
		if snap == nil {
			continue
		}
		holders[j] = &holder{snap: snap, cursor: m.nodes[j].server.lastAppliedFrom(deadName)}
	}
	owns := func(ep string) bool {
		ranked := m.rankedFor(ep)
		return len(ranked) > 0 && ranked[0] == dead
	}
	// mostCaughtUp walks ep's ranking (which covers every live node) so
	// equal cursors resolve to the ring's preferred follower.
	mostCaughtUp := func(ep string, has func(*store.State) bool) int {
		best, bestCursor := -1, uint64(0)
		for _, j := range m.rankedFor(ep) {
			h := holders[j]
			if j == dead || h == nil || !has(h.snap) {
				continue
			}
			if best == -1 || h.cursor > bestCursor {
				best, bestCursor = j, h.cursor
			}
		}
		return best
	}
	subsets := map[int]*store.State{}
	ensure := func(j int) *store.State {
		if subsets[j] == nil {
			subsets[j] = &store.State{Messages: map[string][]store.StoredMessage{}}
		}
		return subsets[j]
	}
	pin := func(ep string, j int) {
		if name, ok := strings.CutPrefix(ep, "queue:"); ok {
			m.c.PinQueue(name, j)
		} else if rest, ok := strings.CutPrefix(ep, "sub:"); ok {
			if cid, sub, ok := strings.Cut(rest, ":"); ok {
				m.c.PinDurable(cid, sub, j)
			}
		}
	}
	// Deterministic endpoint order: the union of every holder's
	// endpoints, sorted. Ownership is decided for every endpoint BEFORE
	// any pin lands — a pin reorders the ranking, which would flip
	// owns() for an endpoint whose messages were just adopted but whose
	// subscription record is still pending.
	msgEps := map[string]bool{}
	subEps := map[string]bool{}
	for _, h := range holders {
		for ep := range h.snap.Messages {
			msgEps[ep] = true
		}
		for _, sub := range h.snap.Subscriptions {
			subEps["sub:"+sub.ClientID+":"+sub.Name] = true
		}
	}
	owned := map[string]bool{}
	for ep := range msgEps {
		owned[ep] = owns(ep)
	}
	for ep := range subEps {
		if _, ok := owned[ep]; !ok {
			owned[ep] = owns(ep)
		}
	}
	for _, ep := range sortedKeys(msgEps) {
		if !owned[ep] || subEps[ep] {
			continue // sub endpoints: one election below covers both
		}
		j := mostCaughtUp(ep, func(s *store.State) bool { return len(s.Messages[ep]) > 0 })
		if j < 0 {
			continue
		}
		ensure(j).Messages[ep] = holders[j].snap.Messages[ep]
		pin(ep, j)
	}
	// A durable subscription and its backlog must land on ONE node: a
	// single election covers the subscription record and any pending
	// messages, so the pin, the record and the backlog always agree.
	for _, ep := range sortedKeys(subEps) {
		if !owned[ep] {
			continue
		}
		hasSub := func(s *store.State) bool {
			for _, sub := range s.Subscriptions {
				if "sub:"+sub.ClientID+":"+sub.Name == ep {
					return true
				}
			}
			return false
		}
		j := mostCaughtUp(ep, func(s *store.State) bool {
			return hasSub(s) || len(s.Messages[ep]) > 0
		})
		if j < 0 {
			continue
		}
		for _, sub := range holders[j].snap.Subscriptions {
			if "sub:"+sub.ClientID+":"+sub.Name == ep {
				ensure(j).Subscriptions = append(ensure(j).Subscriptions, sub)
				break
			}
		}
		if msgs := holders[j].snap.Messages[ep]; len(msgs) > 0 {
			ensure(j).Messages[ep] = msgs
		}
		pin(ep, j)
	}
	return subsets
}

// sortedKeys returns a set's keys in sorted order.
func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sortStrings(out)
	return out
}

// updateLag refreshes the replica.lag_records gauge with the worst
// per-link record lag.
func (m *Manager) updateLag() {
	var worst int64
	for i, node := range m.nodes {
		if m.c != nil && m.c.NodeDown(i) {
			continue
		}
		for to, s := range node.senders {
			if m.c != nil && m.c.NodeDown(to) {
				continue
			}
			if lag := s.lagRecords(); lag > worst {
				worst = lag
			}
		}
	}
	m.met.lag.Set(worst)
}

// streamTrimBatch is how many fully acknowledged records accumulate
// before a retention trim runs, amortizing TrimTo's copy of the
// retained suffix across many acks.
const streamTrimBatch = 256

// maybeTrim advances node from's committed-record stream retention to
// the lowest acknowledged position across its live links — the minimum
// over ALL of the node's followers, so with a multi-follower fan-out a
// lagging (even degraded) second follower pins retention and catches
// up by ordinary replay instead of being snapshot-resync'd on every
// trim. Halted or detached links never acknowledge again and must not
// pin retention forever, and a link awaiting reset rebuilds from a
// snapshot cut rather than the retained history, so none of those
// constrain the floor. A link the trim outruns anyway (racing a
// mid-reset session) fails its subscribe with ErrStreamTrimmed and
// converges through the snapshot resync path.
func (m *Manager) maybeTrim(from int) {
	node := m.nodes[from]
	floor := node.stream.LastSeq()
	for _, s := range node.senders {
		s.mu.Lock()
		live := !s.halted && !s.peerDead && !s.needReset
		acked := s.ackedThroughLocked()
		s.mu.Unlock()
		if live && acked < floor {
			floor = acked
		}
	}
	if floor >= node.stream.OldestRetained()+streamTrimBatch {
		node.stream.TrimTo(floor)
	}
}

// replicationStatus builds the /clusterz Replication section: the
// quorum configuration, aggregated witness suspicion (worst miss count
// and current vote tally per node), and per-destination quorum cover —
// every follower with its acked offset and link health, plus whether
// enough healthy links exist right now to satisfy the quorum. Lost
// redundancy is visible here before it becomes lost data.
func (m *Manager) replicationStatus() *cluster.ReplicationStatus {
	st := &cluster.ReplicationStatus{
		Promotions:         m.promotions.Load(),
		LastPromotionEpoch: m.lastPromotionEpoch.Load(),
		ReplicationFactor:  m.opts.ReplicationFactor,
		QuorumSize:         m.opts.QuorumSize,
	}
	m.mu.Lock()
	eps := make([]string, 0, len(m.endpoints))
	for ep := range m.endpoints {
		eps = append(eps, ep)
	}
	m.mu.Unlock()
	// Suspicion is the aggregate of the per-node witness views: a node
	// is suspected when any live peer is currently missing its probes;
	// Votes counts the witnesses already past their promotion
	// threshold, showing how close the quorum is to firing.
	threshold := m.opts.HeartbeatMisses
	for t := range m.nodes {
		if m.c.NodeDown(t) {
			continue
		}
		worst, votes := 0, 0
		for w := range m.nodes {
			if w == t || m.c.NodeDown(w) {
				continue
			}
			m.det[w].mu.Lock()
			miss := m.det[w].misses[t]
			m.det[w].mu.Unlock()
			if miss > worst {
				worst = miss
			}
			if miss >= threshold {
				votes++
			}
		}
		if worst > 0 {
			st.Suspected = append(st.Suspected, cluster.NodeSuspicion{
				Node: m.nodes[t].name, Misses: worst, Votes: votes,
			})
		}
	}
	for i := 1; i < len(st.Suspected); i++ {
		for j := i; j > 0 && st.Suspected[j].Node < st.Suspected[j-1].Node; j-- {
			st.Suspected[j], st.Suspected[j-1] = st.Suspected[j-1], st.Suspected[j]
		}
	}
	sortStrings(eps)
	for _, ep := range eps {
		ranked := m.rankedFor(ep)
		if len(ranked) == 0 {
			continue
		}
		primary := ranked[0]
		dr := cluster.DestinationReplica{Endpoint: ep, Primary: primary, Follower: -1}
		targets := m.followersFor(primary, ep)
		healthy := 0
		for _, to := range targets {
			s := m.nodes[primary].senders[to]
			if s == nil {
				continue
			}
			fs := cluster.FollowerStatus{
				Node:     to,
				Acked:    m.nodes[to].server.lastAppliedFrom(m.nodes[primary].name),
				Degraded: s.isDegraded(),
			}
			if !fs.Degraded {
				healthy++
			}
			dr.Followers = append(dr.Followers, fs)
		}
		if len(targets) > 0 {
			dr.Follower = targets[0]
		}
		need := m.opts.QuorumSize
		if need > len(targets) {
			need = len(targets)
		}
		dr.QuorumSize = need
		dr.QuorumMet = len(targets) > 0 && healthy >= need
		st.Destinations = append(st.Destinations, dr)
	}
	for i, node := range m.nodes {
		if m.c.NodeDown(i) {
			continue
		}
		for to, s := range node.senders {
			if m.c.NodeDown(to) {
				continue
			}
			st.Links = append(st.Links, cluster.ReplicaLink{
				From:       node.name,
				To:         m.nodes[to].name,
				LagRecords: s.lagRecords(),
				LagBytes:   s.lagBytes(),
				Degraded:   s.isDegraded(),
			})
		}
	}
	return st
}

// sortStrings is sort.Strings without dragging sort into every file.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func (m *Manager) isClosed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// Close stops the detector, halts every link (releasing blocked
// producers), closes the replication servers, the cluster and the
// stores.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()
	close(m.stop)
	return m.teardown()
}

// teardown releases everything that has been constructed so far (also
// the error path of NewLocal, where later fields may be nil).
func (m *Manager) teardown() error {
	for _, node := range m.nodes {
		if node == nil {
			continue
		}
		for _, s := range node.senders {
			s.halt()
		}
	}
	var first error
	for _, node := range m.nodes {
		if node == nil || node.server == nil {
			continue
		}
		node.server.Close()
	}
	if m.c != nil {
		if err := m.c.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, node := range m.nodes {
		if node == nil || node.stable == nil {
			continue
		}
		if err := node.stable.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// brokerOf returns node i's broker, nil while construction is still in
// flight (the replication servers start before the cluster exists).
func (m *Manager) brokerOf(i int) *broker.Broker {
	if i < 0 || i >= len(m.nodes) || m.nodes[i] == nil {
		return nil
	}
	return m.nodes[i].broker
}
