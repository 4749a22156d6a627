package stats

import (
	"fmt"
	"sync/atomic"
)

// Cluster-layer counters. The cluster router serves every command one of
// two ways — a VAS switch onto a co-resident shard's store, or a urpc call
// to a remote shard node — and the whole point of the layer (paper §5.3,
// Figure 7) is comparing what the two modes cost. The sink therefore keeps,
// besides per-node routing counts, a cycle histogram per mode: the worker
// core's simulated-cycle delta across one request, so the local and remote
// distributions can be read side by side from one snapshot.

// clusterCounters is the sink's cluster-layer block.
type clusterCounters struct {
	local    atomic.Uint64 // commands served on the shared-VAS fast path
	remote   atomic.Uint64 // commands served over urpc
	timeouts atomic.Uint64 // remote commands whose retries were exhausted

	localCycles  Hist // worker-core cycles per locally-served command
	remoteCycles Hist // worker-core cycles per remotely-served command
	urpcCycles   Hist // cycles of the urpc Call alone (transfer + dispatch + server work)

	// Replication and failover activity (replicated clusters only).
	ships         atomic.Uint64 // checkpoint generations shipped to replicas
	shipBytes     atomic.Uint64 // segment-image payload bytes moved
	shipFailures  atomic.Uint64 // ships abandoned (transport or checkpoint failure)
	probes        atomic.Uint64 // health probes sent
	probeFailures atomic.Uint64 // probes that timed out, were dropped, or hit a dead node
	promotions    atomic.Uint64 // replicas promoted to serve a dead node's range
	deltaReplayed atomic.Uint64 // post-checkpoint delta entries replayed at promotion
	lostUpdates   atomic.Uint64 // updates lost to delta-window overflow or replay failure

	// Elastic-membership activity (slot migrations, node join/leave).
	slotMoves        atomic.Uint64 // slots whose ownership flipped after a full copy
	slotMoveFailures atomic.Uint64 // migrations aborted and rolled back
	migKeysMoved     atomic.Uint64 // keys copied into migration targets
	migBytes         atomic.Uint64 // key+value payload bytes streamed during migrations
	migDeltaReplayed atomic.Uint64 // writes replayed from migration delta logs
	movedRetries     atomic.Uint64 // -MOVED refusals sent to commands racing a flip
	nodesAdded       atomic.Uint64 // nodes joined mid-run
	nodesRemoved     atomic.Uint64 // nodes drained and retired mid-run

	// COW-fork activity (fork-based checkpoint shipping + follower reads).
	forks           atomic.Uint64 // frozen views forked off live shards
	forkReleases    atomic.Uint64 // frozen views released and reclaimed
	forkInvalidates atomic.Uint64 // views fenced off by promotion or slot flip
	followerReads   atomic.Uint64 // read commands served from a frozen view
	staleRejected   atomic.Uint64 // follower reads refused with -STALE past the bound

	shipNs Hist // wall ns per fork-based image extraction + apply, off-mutex

	// Overload protection (deadline budgets, breakers, degradation).
	deadlineExpired  atomic.Uint64 // commands refused with -DEADLINE (budget exhausted)
	shed             atomic.Uint64 // remote dispatches refused fast by an open breaker
	degradedReads    atomic.Uint64 // reads served stale because the primary was overloaded
	breakerOpens     atomic.Uint64 // breaker transitions into open
	breakerHalfOpens atomic.Uint64 // breaker transitions into half-open
	breakerCloses    atomic.Uint64 // breaker transitions back to closed

	budgetRemaining Hist // cycles left on the budget when a budgeted command finished

	nodes    atomic.Pointer[[]NodeCounters]
	slotKeys atomic.Pointer[[]atomic.Uint64]
}

// NodeCounters is one shard node's routing activity: how many commands the
// router served against it locally, remotely, and how many remote calls
// timed out. Multi-key commands count once per node they touch.
type NodeCounters struct {
	local    atomic.Uint64
	remote   atomic.Uint64
	timeouts atomic.Uint64
}

// InstallClusterNodes sizes the per-node counter table. Safe on nil.
func (s *Sink) InstallClusterNodes(n int) {
	if s == nil {
		return
	}
	table := make([]NodeCounters, n)
	s.cluster.nodes.Store(&table)
}

// EnsureClusterNodes grows the per-node counter table to hold at least n
// nodes, preserving existing totals — the install path for nodes joining a
// live cluster, where a fresh table would zero history. Increments racing
// the copy can be lost; the counters are advisory. Safe on nil.
func (s *Sink) EnsureClusterNodes(n int) {
	if s == nil {
		return
	}
	old := s.cluster.nodes.Load()
	if old != nil && len(*old) >= n {
		return
	}
	table := make([]NodeCounters, n)
	if old != nil {
		for i := range *old {
			table[i].local.Store((*old)[i].local.Load())
			table[i].remote.Store((*old)[i].remote.Load())
			table[i].timeouts.Store((*old)[i].timeouts.Load())
		}
	}
	s.cluster.nodes.Store(&table)
}

// InstallClusterSlots sizes the per-slot key-count table (one entry per
// placement slot; each records the key count observed when that slot last
// migrated). Safe on nil.
func (s *Sink) InstallClusterSlots(n int) {
	if s == nil {
		return
	}
	table := make([]atomic.Uint64, n)
	s.cluster.slotKeys.Store(&table)
}

func (s *Sink) clusterNode(node int) *NodeCounters {
	nodes := s.cluster.nodes.Load()
	if nodes == nil || node < 0 || node >= len(*nodes) {
		return nil
	}
	return &(*nodes)[node]
}

// ClusterLocal records one command (or one node's share of a multi-key
// command) served on the shared-VAS fast path, with the worker-core cycles
// it cost. Safe on nil.
func (s *Sink) ClusterLocal(node int, cycles uint64) {
	if s == nil {
		return
	}
	s.cluster.local.Add(1)
	s.cluster.localCycles.Observe(cycles)
	if nc := s.clusterNode(node); nc != nil {
		nc.local.Add(1)
	}
}

// ClusterRemote records one command (or one node's share of a multi-key
// command) served over urpc, with the worker-core cycles it cost end to
// end, and traces it. Safe on nil.
func (s *Sink) ClusterRemote(node int, cycles uint64) {
	if s == nil {
		return
	}
	s.cluster.remote.Add(1)
	s.cluster.remoteCycles.Observe(cycles)
	if nc := s.clusterNode(node); nc != nil {
		nc.remote.Add(1)
	}
	s.Trace(Event{Kind: EvRemoteCall, Core: -1, A: uint64(node), B: cycles})
}

// ClusterURPCCall records the cycle cost of one urpc round trip by itself
// (cache-line transfers, dispatch, and the server-side execution, but not
// the router's serialize/route work around it). Safe on nil.
func (s *Sink) ClusterURPCCall(cycles uint64) {
	if s != nil {
		s.cluster.urpcCycles.Observe(cycles)
	}
}

// ClusterTimeout records one remote call abandoned after retry exhaustion.
// Safe on nil.
func (s *Sink) ClusterTimeout(node int) {
	if s == nil {
		return
	}
	s.cluster.timeouts.Add(1)
	if nc := s.clusterNode(node); nc != nil {
		nc.timeouts.Add(1)
	}
}

// ClusterShip records one checkpoint generation shipped to a node's
// replica, with the image payload bytes moved, and traces it. Safe on nil.
func (s *Sink) ClusterShip(node int, bytes uint64) {
	if s == nil {
		return
	}
	s.cluster.ships.Add(1)
	s.cluster.shipBytes.Add(bytes)
	s.Trace(Event{Kind: EvCheckpointShip, Core: -1, A: uint64(node), B: bytes})
}

// ClusterShipFailure records one abandoned checkpoint ship. Safe on nil.
func (s *Sink) ClusterShipFailure(node int) {
	if s != nil {
		s.cluster.shipFailures.Add(1)
	}
}

// ClusterProbe records one health probe and its outcome. Safe on nil.
func (s *Sink) ClusterProbe(ok bool) {
	if s == nil {
		return
	}
	s.cluster.probes.Add(1)
	if !ok {
		s.cluster.probeFailures.Add(1)
	}
}

// ClusterNodeState traces a node health-state transition. Safe on nil.
func (s *Sink) ClusterNodeState(node int, state string) {
	if s != nil {
		s.Trace(Event{Kind: EvNodeState, Core: -1, A: uint64(node), Label: state})
	}
}

// ClusterPromotion records one replica promotion: how many buffered delta
// entries were replayed onto the standby and how many updates were lost
// (delta-window overflow or replay failure). Safe on nil.
func (s *Sink) ClusterPromotion(node int, replayed, lost uint64) {
	if s == nil {
		return
	}
	s.cluster.promotions.Add(1)
	s.cluster.deltaReplayed.Add(replayed)
	s.cluster.lostUpdates.Add(lost)
	ev := Event{Kind: EvPromotion, Core: -1, A: uint64(node), B: replayed}
	if lost > 0 {
		ev.Label = fmt.Sprintf("%d", lost)
	}
	s.Trace(ev)
}

// ClusterLostUpdates adds updates that can no longer be recovered — a range
// degraded with a non-empty delta buffer. Safe on nil.
func (s *Sink) ClusterLostUpdates(count uint64) {
	if s != nil && count > 0 {
		s.cluster.lostUpdates.Add(count)
	}
}

// ClusterPromotionsTotal returns the running promotion count — a single
// atomic load, safe to poll while the cluster runs.
func (s *Sink) ClusterPromotionsTotal() uint64 {
	if s == nil {
		return 0
	}
	return s.cluster.promotions.Load()
}

// ClusterShipsTotal returns the running count of shipped generations.
func (s *Sink) ClusterShipsTotal() uint64 {
	if s == nil {
		return 0
	}
	return s.cluster.ships.Load()
}

// ClusterRemoteTotal returns the running count of remotely-served commands.
// A single atomic load — safe to poll while the cluster runs, unlike a full
// Snapshot of a live machine.
func (s *Sink) ClusterRemoteTotal() uint64 {
	if s == nil {
		return 0
	}
	return s.cluster.remote.Load()
}

// ClusterLocalTotal returns the running count of locally-served commands.
func (s *Sink) ClusterLocalTotal() uint64 {
	if s == nil {
		return 0
	}
	return s.cluster.local.Load()
}

// ClusterSlotMoved records one completed slot migration: keys and payload
// bytes streamed to the new owner, delta-log writes replayed during the
// copy, and the slot's key count at flip time. Traced. Safe on nil.
func (s *Sink) ClusterSlotMoved(slot, src, dst int, keys, bytes, replayed uint64) {
	if s == nil {
		return
	}
	s.cluster.slotMoves.Add(1)
	s.cluster.migKeysMoved.Add(keys)
	s.cluster.migBytes.Add(bytes)
	s.cluster.migDeltaReplayed.Add(replayed)
	if table := s.cluster.slotKeys.Load(); table != nil && slot >= 0 && slot < len(*table) {
		(*table)[slot].Store(keys)
	}
	s.Trace(Event{Kind: EvSlotMove, Core: -1, A: uint64(slot), B: keys,
		Label: fmt.Sprintf("%d->%d", src, dst)})
}

// ClusterSlotMoveFailed records one migration aborted and rolled back;
// the source stays authoritative. Traced with the reason. Safe on nil.
func (s *Sink) ClusterSlotMoveFailed(slot, src, dst int, reason string) {
	if s == nil {
		return
	}
	s.cluster.slotMoveFailures.Add(1)
	s.Trace(Event{Kind: EvSlotMoveFailed, Core: -1, A: uint64(slot),
		Label: fmt.Sprintf("%d->%d: %s", src, dst, reason)})
}

// ClusterMovedRetry records one -MOVED refusal sent to a command that raced
// a slot flip (the client retries against the new table). Safe on nil.
func (s *Sink) ClusterMovedRetry() {
	if s != nil {
		s.cluster.movedRetries.Add(1)
	}
}

// ClusterNodeAdded records and traces a node joining the live cluster.
// Safe on nil.
func (s *Sink) ClusterNodeAdded(node int) {
	if s == nil {
		return
	}
	s.cluster.nodesAdded.Add(1)
	s.Trace(Event{Kind: EvNodeAdded, Core: -1, A: uint64(node)})
}

// ClusterNodeRemoved records and traces a node drained and retired from the
// live cluster. Safe on nil.
func (s *Sink) ClusterNodeRemoved(node int) {
	if s == nil {
		return
	}
	s.cluster.nodesRemoved.Add(1)
	s.Trace(Event{Kind: EvNodeRemoved, Core: -1, A: uint64(node)})
}

// ClusterFork records one frozen view forked off node's live shard at
// generation gen, and traces it. Safe on nil.
func (s *Sink) ClusterFork(node int, gen uint64) {
	if s == nil {
		return
	}
	s.cluster.forks.Add(1)
	s.Trace(Event{Kind: EvFork, Core: -1, A: uint64(node), B: gen})
}

// ClusterForkRelease records one frozen view released: its private frames
// went back to the allocator. Traced. Safe on nil.
func (s *Sink) ClusterForkRelease(node int, gen uint64) {
	if s == nil {
		return
	}
	s.cluster.forkReleases.Add(1)
	s.Trace(Event{Kind: EvForkRelease, Core: -1, A: uint64(node), B: gen})
}

// ClusterForkInvalidate records views fenced off a node by a promotion or
// slot-migration flip. Traced with the reason. Safe on nil.
func (s *Sink) ClusterForkInvalidate(node int, views uint64, reason string) {
	if s == nil {
		return
	}
	s.cluster.forkInvalidates.Add(views)
	s.Trace(Event{Kind: EvForkInvalidate, Core: -1, A: uint64(node), B: views, Label: reason})
}

// ClusterFollowerRead records one read command answered from a frozen view
// (or warm standby) instead of the primary. Safe on nil.
func (s *Sink) ClusterFollowerRead() {
	if s != nil {
		s.cluster.followerReads.Add(1)
	}
}

// ClusterStaleRejected records one follower read refused with -STALE because
// the freshest view exceeded the staleness bound. Safe on nil.
func (s *Sink) ClusterStaleRejected() {
	if s != nil {
		s.cluster.staleRejected.Add(1)
	}
}

// ClusterDeadlineExpired records one command refused with -DEADLINE: its
// cycle budget ran out before (or during) a dispatch. Safe on nil.
func (s *Sink) ClusterDeadlineExpired() {
	if s != nil {
		s.cluster.deadlineExpired.Add(1)
	}
}

// ClusterShed records one remote dispatch refused fast because node's
// breaker was open — no channel wait, no retry ladder. Safe on nil.
func (s *Sink) ClusterShed(node int) {
	if s == nil {
		return
	}
	s.cluster.shed.Add(1)
	if nc := s.clusterNode(node); nc != nil {
		nc.timeouts.Add(1)
	}
}

// ClusterDegradedRead records one read served from a frozen view because the
// primary was overloaded (breaker open or queue past the watermark) — the
// graceful-degradation counterpart of a plain follower read. Safe on nil.
func (s *Sink) ClusterDegradedRead() {
	if s != nil {
		s.cluster.degradedReads.Add(1)
	}
}

// ClusterBreaker records and traces one circuit-breaker transition on node.
// Safe on nil.
func (s *Sink) ClusterBreaker(node int, from, to string) {
	if s == nil {
		return
	}
	switch to {
	case "open":
		s.cluster.breakerOpens.Add(1)
	case "half-open":
		s.cluster.breakerHalfOpens.Add(1)
	case "closed":
		s.cluster.breakerCloses.Add(1)
	}
	s.Trace(Event{Kind: EvBreakerState, Core: -1, A: uint64(node), Label: from + "->" + to})
}

// ClusterBudgetRemaining observes the cycles left on a command's deadline
// budget when it finished — the margin distribution that shows how close
// the cluster runs to its deadlines. Safe on nil.
func (s *Sink) ClusterBudgetRemaining(cycles uint64) {
	if s != nil {
		s.cluster.budgetRemaining.Observe(cycles)
	}
}

// ClusterDegradedReadsTotal returns the running count of overload-degraded
// reads — a single atomic load, safe to poll while the cluster runs.
func (s *Sink) ClusterDegradedReadsTotal() uint64 {
	if s == nil {
		return 0
	}
	return s.cluster.degradedReads.Load()
}

// ClusterBreakerOpensTotal returns the running count of breaker transitions
// into open.
func (s *Sink) ClusterBreakerOpensTotal() uint64 {
	if s == nil {
		return 0
	}
	return s.cluster.breakerOpens.Load()
}

// ClusterShipDuration records the wall-clock nanoseconds one fork-based ship
// spent extracting and applying the image — all off the node mutex. Safe on
// nil.
func (s *Sink) ClusterShipDuration(ns uint64) {
	if s != nil {
		s.cluster.shipNs.Observe(ns)
	}
}

// ClusterFollowerReadsTotal returns the running count of follower reads.
func (s *Sink) ClusterFollowerReadsTotal() uint64 {
	if s == nil {
		return 0
	}
	return s.cluster.followerReads.Load()
}

// ClusterStaleRejectedTotal returns the running count of -STALE refusals.
func (s *Sink) ClusterStaleRejectedTotal() uint64 {
	if s == nil {
		return 0
	}
	return s.cluster.staleRejected.Load()
}

// ClusterSlotMovesTotal returns the running count of completed slot
// migrations — a single atomic load, safe to poll while the cluster runs.
func (s *Sink) ClusterSlotMovesTotal() uint64 {
	if s == nil {
		return 0
	}
	return s.cluster.slotMoves.Load()
}
