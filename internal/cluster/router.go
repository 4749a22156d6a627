package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"time"

	"spacejmp/internal/core"
	"spacejmp/internal/fork"
	"spacejmp/internal/overload"
	"spacejmp/internal/redis"
	"spacejmp/internal/server"
	"spacejmp/internal/stats"
	"spacejmp/internal/urpc"
)

// worker is one router worker: a goroutine owning a front-end core (via its
// Thread), a RedisJMP client on every co-resident node's store, and a urpc
// endpoint to every remote node. Only this goroutine drives the thread; the
// endpoints' inline handlers drive node cores, serialized by each node's
// mutex.
type worker struct {
	id    int
	queue chan *server.Request
	ctr   *stats.ShardCounters

	proc   *core.Process
	th     *core.Thread
	coreID int

	locals    map[int]*redis.Client  // co-resident nodes, by node id
	endpoints map[int]*urpc.Endpoint // remote nodes, by node id
	standbys  map[int]*redis.Client  // promoted standbys, attached lazily
	frozen    map[int]*frozenReader  // follower-read attachments, by node id
	err       error                  // first teardown error, read after workerWG.Wait

	// bud is the in-flight request's deadline budget, armed against this
	// worker's core cycle counter when execution starts. Only this
	// worker's goroutine touches it — one request at a time.
	bud overload.Budget
}

// frozenReader is one worker's attachment to a node's current frozen fork
// view: the VAS handle and a store bound inside it. Superseded or
// invalidated views are detached lazily on the next follower read, and
// unconditionally at worker teardown.
type frozenReader struct {
	view  *fork.View
	h     core.Handle
	store *redis.Store
}

// read reads keys into dst (a miss leaves its entry nil) on one switch
// into the frozen view — the live MGET's one-switch-many-walks fast path,
// minus the lock: the frozen segment is not lockable, its frames are
// immutable.
func (f *frozenReader) read(th *core.Thread, keys []string, dst [][]byte) error {
	if err := th.VASSwitch(f.h); err != nil {
		return err
	}
	var err error
	for i, k := range keys {
		var v []byte
		var ok bool
		if v, ok, err = f.store.Get([]byte(k)); err != nil {
			break
		}
		if ok {
			dst[i] = v
		}
	}
	if serr := th.VASSwitch(core.PrimaryHandle); err == nil {
		err = serr
	}
	return err
}

func (r *Router) newWorker(id int, ctr *stats.ShardCounters) (*worker, error) {
	proc, err := r.sys.NewProcess(core.Creds{UID: 1, GID: 1})
	if err != nil {
		return nil, err
	}
	th, err := proc.NewThread()
	if err != nil {
		proc.Exit()
		return nil, err
	}
	return &worker{
		id:        id,
		queue:     make(chan *server.Request, r.cfg.QueueDepth),
		ctr:       ctr,
		proc:      proc,
		th:        th,
		coreID:    th.Core.ID,
		locals:    map[int]*redis.Client{},
		endpoints: map[int]*urpc.Endpoint{},
		standbys:  map[int]*redis.Client{},
		frozen:    map[int]*frozenReader{},
	}, nil
}

// wireWorker attaches the worker to every node: a client per co-resident
// store (the first attachment bootstraps it), an endpoint per remote node.
func (r *Router) wireWorker(w *worker) error {
	for _, n := range r.nodes {
		if n.local {
			c, err := redis.NewClientNamed(w.th, r.cfg.SegSize, n.names)
			if err != nil {
				return fmt.Errorf("node %d store: %w", n.id, err)
			}
			w.locals[n.id] = c
		} else {
			w.endpoints[n.id] = urpc.Connect(r.sys.M, w.coreID, n.coreID, r.cfg.Slots, n.handler)
		}
	}
	return nil
}

// runWorker drains the queue until it closes, then detaches from every
// co-resident store (and any promoted standby it attached) and exits the
// process.
func (r *Router) runWorker(w *worker) {
	defer r.workerWG.Done()
	for req := range w.queue {
		w.ctr.Command()
		req.Finish(r.exec(w, req))
		r.obs.ServerCommand(uint64(time.Since(req.Start).Nanoseconds()))
	}
	for _, fr := range w.frozen {
		if err := w.th.VASDetach(fr.h); err != nil && w.err == nil {
			w.err = err
		}
	}
	for _, c := range w.locals {
		if err := c.Close(); err != nil && w.err == nil {
			w.err = err
		}
	}
	for _, c := range w.standbys {
		if err := c.Close(); err != nil && w.err == nil {
			w.err = err
		}
	}
	w.proc.Exit()
}

// Bind stripes the connection onto a worker (server.Backend).
func (r *Router) Bind(connID uint64) uint64 {
	w := r.workers[int(connID)%len(r.workers)]
	w.ctr.Conn()
	return uint64(w.id)
}

// Submit enqueues the request on the connection's worker, failing fast when
// its queue is full (server.Backend).
func (r *Router) Submit(connID uint64, req *server.Request) bool {
	w := r.workers[int(connID)%len(r.workers)]
	select {
	case w.queue <- req:
		d := len(w.queue)
		w.ctr.QueueDepth(d)
		r.obs.ServerQueue(d)
		return true
	default:
		w.ctr.Busy()
		return false
	}
}

// exec charges the network edge, routes the command, charges the reply's
// way out. The cycle deltas recorded per mode sit between the two edge
// charges, so they compare the serving paths themselves. A request that
// carries a deadline has its cycle budget armed against this worker's core
// here — every cycle the worker burns on its behalf drains it — and the
// remaining allowance at completion feeds the budget histogram.
func (r *Router) exec(w *worker, req *server.Request) []byte {
	w.bud = overload.Arm(req.Deadline, w.th.Core.Cycles())
	args := req.Args
	var n int
	for _, a := range args {
		n += len(a)
	}
	w.th.Core.AddCycles(server.EdgeCycles(n))
	resp := r.route(w, args, req.Readonly)
	w.th.Core.AddCycles(server.EdgeCycles(len(resp)))
	if w.bud.Active() {
		r.obs.ClusterBudgetRemaining(w.bud.Remaining(w.th.Core.Cycles()))
	}
	return resp
}

// route sends single-key commands to the node owning their key's slot and
// fans multi-key commands out per owner; store-less commands run in place.
// Keyed commands hold the topology read lock end to end, so each command
// executes against one consistent slot-table epoch and node list — a slot
// flip or node append waits out every in-flight command before it lands.
func (r *Router) route(w *worker, args []string, readonly bool) []byte {
	if len(args) == 0 {
		return redis.EncodeError("empty command")
	}
	switch strings.ToUpper(args[0]) {
	case "GET", "SET", "DEL":
		if len(args) < 2 {
			return redis.EncodeWrongArity(args[0])
		}
		r.topoMu.RLock()
		defer r.topoMu.RUnlock()
		return r.exec1(w, args, readonly)
	case "MGET":
		if len(args) < 2 {
			return redis.EncodeWrongArity(args[0])
		}
		r.topoMu.RLock()
		defer r.topoMu.RUnlock()
		return r.mget(w, args[1:], readonly)
	case "CLUSTER":
		// Read-only introspection off the published table epoch; must not
		// take topoMu here (Topology takes its own read lock, and nesting
		// read locks around a waiting writer self-deadlocks).
		return r.clusterCommand(args[1:])
	default:
		return redis.Execute(nil, args) // PING, ECHO, unknown
	}
}

// source is where resolve sends one command on one node: exactly one of
// client, ep, view or reply is set.
type source struct {
	client   *redis.Client  // VAS fast path: a co-resident store or a promoted standby
	ep       *urpc.Endpoint // urpc to a remote node
	view     *frozenReader  // a frozen fork view
	degraded bool           // view serves an overload-degraded read
	reply    []byte         // ready-made reply: -STALE or a refusal
}

// resolve decides where worker w serves one command on node n. GET, SET,
// DEL and every MGET node group come through here, so reads share one
// order of checks. The caller holds the topology read lock — the promoted
// flip in promote is the failover's linearization point.
//
// A read first meets the follower gate, which a promoted node skips. The
// gate opens for a degraded read, or for a READONLY read of a remote
// replicated node with FollowerReads on. A read is degraded when the
// caller accepts staleness (READONLY, or the cluster-wide DegradedReads
// mode) and the node looks overloaded: its breaker open or half-open, or
// this worker's queue past the watermark — the co-resident serving path's
// saturation signal, which is what extends stale serving to local nodes.
// Past the gate, the node's current frozen view serves the read if it is
// within StaleBound; a view past the bound answers -STALE, the explicit
// contract of bounded staleness. No view, or one that cannot be attached,
// falls through to the primary, which is always fresh.
func (r *Router) resolve(w *worker, n *node, write, readonly bool) source {
	if !write && !n.promoted.Load() {
		degraded := false
		if oc := r.cfg.Overload; r.forks != nil && (readonly || oc.DegradedReads) {
			if n.breaker != nil {
				st := n.breaker.State()
				degraded = st == overload.Open || st == overload.HalfOpen
			}
			degraded = degraded || oc.QueueWatermark > 0 && len(w.queue) >= oc.QueueWatermark
		}
		if degraded || readonly && r.cfg.Replication.FollowerReads && !n.local && n.replicated {
			if v := r.forks.Current(n.id); v != nil {
				if age, bound := v.Age(), r.cfg.Replication.StaleBound; age > bound {
					r.obs.ClusterStaleRejected()
					return source{reply: redis.EncodeStale(fmt.Sprintf("node %d view age %s exceeds bound %s",
						n.id, age.Truncate(time.Millisecond), bound))}
				}
				if fr := w.frozenReaderFor(r, n.id, v); fr != nil {
					return source{view: fr, degraded: degraded}
				}
			}
		}
	}
	return r.primary(w, n)
}

// primary resolves the primary path to node n: the co-resident store, the
// promoted standby, or the remote endpoint — unless the range is fenced
// (degraded: hard error; failed, promoting or crashed: retryable timeout),
// the deadline budget cannot cover a dispatch, or the breaker sheds it.
func (r *Router) primary(w *worker, n *node) source {
	if n.local {
		return source{client: w.locals[n.id]}
	}
	if n.promoted.Load() {
		c, err := w.standbyClient(r, n)
		if err != nil {
			return source{reply: redis.EncodeError("standby attach: " + err.Error())}
		}
		return source{client: c}
	}
	switch n.curState() {
	case StateDegraded:
		cause := "no recoverable replica"
		if p := n.cause.Load(); p != nil {
			cause = *p
		}
		return source{reply: redis.EncodeShardDegraded(n.id, cause)}
	case StateFailed, StatePromoting:
		r.obs.ClusterTimeout(n.id)
		return source{reply: redis.EncodeShardTimeout(n.id)}
	}
	if n.crashed.Load() {
		// Fenced before the call: don't burn a full retry ladder against
		// a node already known dead.
		r.obs.ClusterTimeout(n.id)
		r.noteSuspect(n)
		return source{reply: redis.EncodeShardTimeout(n.id)}
	}
	ep := w.endpoints[n.id]
	// Deadline: refuse a dispatch the remaining budget cannot cover. One
	// timeout window is the floor — a call that cannot even ride out its
	// first busy-wait is doomed work, better failed fast and retried with
	// a fresh budget.
	if w.bud.Active() {
		if rem := w.bud.Remaining(w.th.Core.Cycles()); rem < ep.TimeoutCycles {
			r.obs.ClusterDeadlineExpired()
			return source{reply: redis.EncodeDeadline(fmt.Sprintf(
				"node %d: %d cycles left, dispatch needs %d, retry", n.id, rem, ep.TimeoutCycles))}
		}
	}
	// Circuit breaker: an open breaker sheds the dispatch immediately with
	// the same retryable refusal a timed-out call would earn — minus the
	// timeout. Every admission (including the half-open probe) flows into
	// remote, whose outcome feeds back via noteOutcome.
	if n.breaker != nil {
		if ok, _ := n.breaker.Allow(); !ok {
			r.obs.ClusterShed(n.id)
			return source{reply: redis.EncodeShardTimeout(n.id)}
		}
	}
	return source{ep: ep}
}

// callBudget returns the cycle cap to hand a remote call: the in-flight
// request's remaining allowance, floored at 1 so an armed budget that
// raced to zero between primary's refusal check and the dispatch still caps
// the call (0 means unlimited to urpc.CallBudget).
func (w *worker) callBudget() uint64 {
	if !w.bud.Active() {
		return 0
	}
	rem := w.bud.Remaining(w.th.Core.Cycles())
	if rem == 0 {
		rem = 1
	}
	return rem
}

// standbyClient lazily attaches this worker to node n's promoted standby.
// Only reached when promoted is set, which guarantees the standby store
// exists — NewClientNamed must find it, never bootstrap an empty one.
func (w *worker) standbyClient(r *Router, n *node) (*redis.Client, error) {
	if c := w.standbys[n.id]; c != nil {
		return c, nil
	}
	c, err := redis.NewClientNamed(w.th, r.cfg.SegSize, n.standby)
	if err != nil {
		return nil, err
	}
	w.standbys[n.id] = c
	return c, nil
}

// exec1 serves one single-key command on the node owning its slot. Caller
// holds the topology read lock. A write that lands on a migrating slot
// serializes through the migration's mutex — executed on the source and
// recorded in the delta log as one atomic step, so replay order on the
// target matches store order on the source exactly. Once the migration is
// fenced (the flip is imminent), writes get the retryable -MOVED; reads
// keep serving from the still-authoritative source until the flip, so no
// slot ever goes dark.
func (r *Router) exec1(w *worker, args []string, readonly bool) []byte {
	slot := r.Slot(args[1])
	n := r.nodes[r.Owner(slot)]
	switch strings.ToUpper(args[0]) {
	case "SET", "DEL":
		mig := r.migs[slot].Load()
		if mig == nil {
			return r.execOn(w, n, r.resolve(w, n, true, false), args)
		}
		if mig.fenced.Load() {
			r.obs.ClusterMovedRetry()
			return redis.EncodeMoved(slot, mig.dst)
		}
		mig.mu.Lock()
		defer mig.mu.Unlock()
		if mig.fenced.Load() { // fence raced the lock
			r.obs.ClusterMovedRetry()
			return redis.EncodeMoved(slot, mig.dst)
		}
		resp := r.execOn(w, n, r.resolve(w, n, true, false), args)
		if len(resp) > 0 && resp[0] != '-' {
			mig.record(args, r.cfg.MigrationDeltaLog)
		}
		return resp
	}
	src := r.resolve(w, n, false, readonly)
	if src.view != nil {
		var got [1][]byte
		if r.readView(w, src, args[1:2], got[:]) {
			return redis.EncodeBulk(got[0])
		}
		src = r.primary(w, n)
	}
	return r.execOn(w, n, src, args)
}

// execOn runs one command on node n through a client or endpoint source,
// or answers the source's ready-made reply.
func (r *Router) execOn(w *worker, n *node, src source, args []string) []byte {
	switch {
	case src.reply != nil:
		return src.reply
	case src.client != nil:
		before := w.th.Core.Cycles()
		resp := redis.Execute(src.client, args)
		r.obs.ClusterLocal(n.id, w.th.Core.Cycles()-before)
		return resp
	}
	resp, errReply := r.remote(w, n, src.ep, args)
	if errReply != nil {
		return errReply
	}
	r.bufferWrite(n, args, resp)
	return resp
}

// readView serves keys from the frozen view src resolved to, writing the
// values into dst, and counts the follower read (and the degraded read,
// if it was one). false means the read failed; the caller falls through
// to the primary.
func (r *Router) readView(w *worker, src source, keys []string, dst [][]byte) bool {
	if src.view.read(w.th, keys, dst) != nil {
		return false
	}
	r.obs.ClusterFollowerRead()
	if src.degraded {
		r.obs.ClusterDegradedRead()
	}
	return true
}

// remote sends one command to node n over urpc. The call's outcome feeds
// the node's breaker; a failed call comes back as its error reply, a
// completed one is counted with its worker and channel cycles.
func (r *Router) remote(w *worker, n *node, ep *urpc.Endpoint, args []string) (resp, errReply []byte) {
	wire := redis.EncodeCommand(args...)
	before := w.th.Core.Cycles()
	resp, callCycles, err := n.call(ep, wire, w.callBudget())
	total := w.th.Core.Cycles() - before
	n.noteOutcome(err)
	if err != nil {
		return nil, r.remoteError(n, err)
	}
	r.obs.ClusterRemote(n.id, total)
	r.obs.ClusterURPCCall(callCycles)
	return resp, nil
}

// bufferWrite records a successfully applied remote write in the node's
// delta log (the post-checkpoint tail a promotion replays) and pokes the
// monitor when the window crosses the ship trigger. The append happens
// after the node's mutex is released, so an entry can land just after a
// concurrent ship truncated the window — harmless, because SET/DEL replay
// is idempotent.
func (r *Router) bufferWrite(n *node, args []string, resp []byte) {
	if !n.replicated || len(resp) == 0 || resp[0] == '-' {
		return
	}
	switch strings.ToUpper(args[0]) {
	case "SET", "DEL":
	default:
		return
	}
	if n.recordDelta(args, r.cfg.Replication.DeltaLog, r.cfg.Replication.ShipEvery) && r.shipCh != nil {
		select {
		case r.shipCh <- n.id:
		default:
		}
	}
}

// frozenReaderFor returns this worker's cached attachment to view v,
// rotating the cache when the node forked a newer view or the old one was
// invalidated. Returns nil (caller serves the primary) when the view
// cannot be attached — e.g. it was swept between the engine lookup and the
// attach. The re-check after attaching closes the release race: a view
// that is still the node's current one cannot be reclaimed while this
// attachment exists (VASDestroy refuses attached VASes), and a view
// retired in the window is dropped before any read goes through it.
func (w *worker) frozenReaderFor(r *Router, nid int, v *fork.View) *frozenReader {
	if fr := w.frozen[nid]; fr != nil {
		if fr.view == v && !v.Invalid() {
			return fr
		}
		_ = w.th.VASDetach(fr.h)
		delete(w.frozen, nid)
	}
	h, err := w.th.VASAttach(v.VID())
	if err != nil {
		return nil
	}
	if r.forks.Current(nid) != v {
		_ = w.th.VASDetach(h)
		return nil
	}
	if err := w.th.VASSwitch(h); err != nil {
		_ = w.th.VASDetach(h)
		return nil
	}
	store, err := redis.OpenStore(w.th, redis.SegBase)
	if serr := w.th.VASSwitch(core.PrimaryHandle); err == nil {
		err = serr
	}
	if err != nil {
		_ = w.th.VASDetach(h)
		return nil
	}
	fr := &frozenReader{view: v, h: h, store: store}
	w.frozen[nid] = fr
	return fr
}

// noteSuspect forwards dead-node evidence from the data path to the
// monitor, without blocking the worker.
func (r *Router) noteSuspect(n *node) {
	if r.suspectCh == nil || !n.replicated {
		return
	}
	select {
	case r.suspectCh <- n.id:
	default:
	}
}

// mget fans a multi-key GET out across the nodes owning its keys' slots
// and merges the replies back into key order. Local groups ride one VAS
// switch (one shared-lock acquisition, however many keys); remote groups
// ride one urpc round trip each. Any shard failure fails the whole
// command — partial MGET replies would be indistinguishable from missing
// keys, and a partially bounded MGET from a fully bounded one. Caller
// holds the topology read lock, so every key resolves against one table
// epoch. Reads on migrating slots serve from the source, which stays
// authoritative until the flip.
func (r *Router) mget(w *worker, keys []string, readonly bool) []byte {
	groups := make(map[int][]int, len(r.nodes)) // node id → indices into keys
	for i, k := range keys {
		nid := r.Owner(r.Slot(k))
		groups[nid] = append(groups[nid], i)
	}
	vals := make([][]byte, len(keys))
	for nid := 0; nid < len(r.nodes); nid++ {
		idxs := groups[nid]
		if len(idxs) == 0 {
			continue
		}
		sub := make([]string, len(idxs))
		for j, i := range idxs {
			sub[j] = keys[i]
		}
		// A fan-out burns budget group by group; catch exhaustion between
		// groups so a slow early shard can't push later dispatches past the
		// deadline silently.
		if now := w.th.Core.Cycles(); w.bud.Exhausted(now) {
			r.obs.ClusterDeadlineExpired()
			return redis.EncodeDeadline(fmt.Sprintf(
				"budget exhausted after %d cycles mid-MGET, retry", w.bud.Spent(now)))
		}
		got, errReply := r.mgetGroup(w, r.nodes[nid], sub, readonly)
		if errReply != nil {
			return errReply
		}
		for j, i := range idxs {
			vals[i] = got[j]
		}
	}
	return redis.EncodeArray(vals)
}

// mgetGroup reads one MGET node group — keys all owned by node n — from
// wherever resolve sends it, returning the values in key order or the
// reply that fails the whole command.
func (r *Router) mgetGroup(w *worker, n *node, keys []string, readonly bool) ([][]byte, []byte) {
	src := r.resolve(w, n, false, readonly)
	if src.view != nil {
		got := make([][]byte, len(keys))
		if r.readView(w, src, keys, got) {
			return got, nil
		}
		src = r.primary(w, n)
	}
	switch {
	case src.reply != nil:
		return nil, src.reply
	case src.client != nil:
		before := w.th.Core.Cycles()
		got, err := src.client.MGet(keys)
		r.obs.ClusterLocal(n.id, w.th.Core.Cycles()-before)
		if err != nil {
			return nil, redis.EncodeError(err.Error())
		}
		return got, nil
	}
	resp, errReply := r.remote(w, n, src.ep, append([]string{"MGET"}, keys...))
	if errReply != nil {
		return nil, errReply
	}
	got, _, err := redis.DecodeArrayReply(resp)
	if err != nil {
		var re redis.ReplyError
		if errors.As(err, &re) {
			return nil, []byte("-" + string(re) + "\r\n") // relay the shard's refusal
		}
		return nil, redis.EncodeError("shard protocol error: " + err.Error())
	}
	if len(got) != len(keys) {
		return nil, redis.EncodeError("shard protocol error: short MGET reply")
	}
	return got, nil
}

// clusterCommand serves the read-only CLUSTER introspection subcommands,
// Redis-compatible in shape, off the published slot-table epoch.
func (r *Router) clusterCommand(sub []string) []byte {
	if len(sub) == 0 {
		return redis.EncodeError("wrong number of arguments for 'cluster' command")
	}
	switch strings.ToUpper(sub[0]) {
	case "SLOTS":
		return r.clusterSlotsReply()
	case "NODES":
		return r.clusterNodesReply()
	}
	return redis.EncodeError("unknown CLUSTER subcommand: " + sub[0])
}

// clusterSlotsReply renders CLUSTER SLOTS: an array of slot ranges, each
// [start, end, [node-name, node-id]] — the Redis shape with the simulated
// node's name standing in for host:port.
func (r *Router) clusterSlotsReply() []byte {
	t := r.Table()
	type span struct{ start, end, owner int }
	var spans []span
	for s := 0; s < NumSlots; {
		e := s
		for e+1 < NumSlots && t.Owners[e+1] == t.Owners[s] {
			e++
		}
		spans = append(spans, span{s, e, t.Owners[s]})
		s = e + 1
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "*%d\r\n", len(spans))
	for _, sp := range spans {
		name := fmt.Sprintf("node-%d", sp.owner)
		fmt.Fprintf(&b, "*3\r\n:%d\r\n:%d\r\n*2\r\n$%d\r\n%s\r\n:%d\r\n",
			sp.start, sp.end, len(name), name, sp.owner)
	}
	return b.Bytes()
}

// clusterNodesReply renders CLUSTER NODES: one line per node in the Redis
// field order (id, address, flags, master, ping, pong, epoch, state, slot
// ranges), as a bulk string.
func (r *Router) clusterNodesReply() []byte {
	t := r.Table()
	var b strings.Builder
	for _, n := range r.Topology() {
		addr := fmt.Sprintf("core:%d", n.Core)
		if n.Local {
			addr = "local:vas"
		}
		flags := "master"
		if n.Promoted {
			flags = "master,standby-promoted"
		}
		state := "connected"
		switch {
		case n.Removed:
			addr, state = "-", "removed"
		case n.State != "" && n.State != "healthy":
			state = n.State
		}
		ranges := strings.ReplaceAll(slotRanges(t.slotsOf(n.ID)), ",", " ")
		if ranges == "none" {
			ranges = ""
		}
		line := fmt.Sprintf("node-%d %s %s - 0 0 %d %s %s", n.ID, addr, flags, t.Version, state, ranges)
		b.WriteString(strings.TrimRight(line, " ") + "\n")
	}
	return redis.EncodeBulk([]byte(b.String()))
}

// remoteError renders a failed remote call. A transport timeout — the typed
// urpc.TimeoutError, recognizable end to end via core.ErrTimeout — becomes
// the retryable SHARDTIMEOUT reply, a timeout count against the node, and
// dead-node evidence for the monitor; anything else is a hard shard error.
func (r *Router) remoteError(n *node, err error) []byte {
	if errors.Is(err, urpc.ErrBudget) {
		// Checked before ErrTimeout: a BudgetError unwraps to both, and the
		// distinction matters — the deadline ran out, not the node.
		r.obs.ClusterDeadlineExpired()
		return redis.EncodeDeadline(fmt.Sprintf("node %d: budget exhausted mid-call, retry", n.id))
	}
	if errors.Is(err, urpc.ErrTimeout) {
		r.obs.ClusterTimeout(n.id)
		r.noteSuspect(n)
		return redis.EncodeShardTimeout(n.id)
	}
	return redis.EncodeError(fmt.Sprintf("shard error: node %d: %s", n.id, err))
}
