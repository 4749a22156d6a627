package stats

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"reflect"
	"slices"
	"sync"
	"text/tabwriter"

	"spacejmp/internal/arch"
)

// CoreSnap is one core's view in a Snapshot. Cycles is the core's total
// cycle counter; ByCat decomposes the cycles charged while observability
// was enabled (the two agree when stats were on for the whole run).
type CoreSnap struct {
	ID        int               `json:"id"`
	Cycles    uint64            `json:"cycles"`
	ByCat     map[string]uint64 `json:"by_cat,omitempty"`
	TLBHits   uint64            `json:"tlb_hits"`
	TLBMisses uint64            `json:"tlb_misses"`
	Faults    uint64            `json:"faults"`
	CR3Loads  uint64            `json:"cr3_loads"`
}

// TLBSnap aggregates TLB activity machine-wide.
type TLBSnap struct {
	Hits           uint64 `json:"hits"`
	Misses         uint64 `json:"misses"`
	Evictions      uint64 `json:"evictions"`
	Flushes        uint64 `json:"flushes"`
	FlushedEntries uint64 `json:"flushed_entries"`
}

// HitRate returns hits/(hits+misses), or 0 with no probes.
func (t TLBSnap) HitRate() float64 {
	total := t.Hits + t.Misses
	if total == 0 {
		return 0
	}
	return float64(t.Hits) / float64(total)
}

// ASIDSnap is one address-space tag's TLB activity.
type ASIDSnap struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// HitRate returns hits/(hits+misses), or 0 with no probes.
func (a ASIDSnap) HitRate() float64 {
	total := a.Hits + a.Misses
	if total == 0 {
		return 0
	}
	return float64(a.Hits) / float64(total)
}

// PTSnap is machine-wide page-table activity. NodesTouched is the
// cumulative count of table nodes the hardware walker referenced.
type PTSnap struct {
	NodesAllocated uint64 `json:"nodes_allocated"`
	NodesFreed     uint64 `json:"nodes_freed"`
	NodesTouched   uint64 `json:"nodes_touched"`
	EntriesSet     uint64 `json:"entries_set"`
	EntriesCleared uint64 `json:"entries_cleared"`
	Walks          uint64 `json:"walks"`
}

// NVMSnap counts data writes into the persistent tier.
type NVMSnap struct {
	Writes       uint64 `json:"writes"`
	WrittenBytes uint64 `json:"written_bytes"`
}

// VMSnap counts VM-layer activity across observed spaces.
type VMSnap struct {
	Maps      uint64 `json:"maps"`
	Unmaps    uint64 `json:"unmaps"`
	Faults    uint64 `json:"faults"`
	COWBreaks uint64 `json:"cow_breaks"`
}

// ShardSnap is one worker shard's serving activity. QueueMax is a
// high-water mark, so Delta carries it rather than subtracting it.
type ShardSnap struct {
	Conns    uint64 `json:"conns"`
	Commands uint64 `json:"commands"`
	Busy     uint64 `json:"busy"`
	QueueMax uint64 `json:"queue_max" delta:"last"`
}

// ServerSnap is the serving layer's view: connection and command totals,
// backpressure rejections, and the pipeline/queue/latency histograms, plus
// the per-shard breakdown.
type ServerSnap struct {
	ConnsAccepted uint64 `json:"conns_accepted"`
	ConnsClosed   uint64 `json:"conns_closed"`
	Commands      uint64 `json:"commands"`
	Busy          uint64 `json:"busy"`

	Pipeline   HistSnap `json:"pipeline"`
	QueueDepth HistSnap `json:"queue_depth"`
	LatencyNs  HistSnap `json:"latency_ns"`

	Shards []ShardSnap `json:"shards,omitempty"`
}

// NodeSnap is one cluster shard node's routing activity.
type NodeSnap struct {
	Local    uint64 `json:"local"`
	Remote   uint64 `json:"remote"`
	Timeouts uint64 `json:"timeouts"`
}

// ReplicationSnap is the replication/failover side of the cluster layer:
// checkpoint shipping, health probing, and promotion activity.
type ReplicationSnap struct {
	Ships         uint64 `json:"ships"`
	ShipBytes     uint64 `json:"ship_bytes"`
	ShipFailures  uint64 `json:"ship_failures"`
	Probes        uint64 `json:"probes"`
	ProbeFailures uint64 `json:"probe_failures"`
	Promotions    uint64 `json:"promotions"`
	DeltaReplayed uint64 `json:"delta_replayed"`
	LostUpdates   uint64 `json:"lost_updates"`
}

// MigrationSnap is the elastic-membership side of the cluster layer: slot
// migrations, node join/leave, and the -MOVED retries clients absorbed
// while slots flipped. SlotKeys maps slot → key count observed when that
// slot last migrated (point-in-time, not monotonic, so Delta carries it).
type MigrationSnap struct {
	SlotMoves        uint64         `json:"slot_moves"`
	SlotMoveFailures uint64         `json:"slot_move_failures"`
	KeysMoved        uint64         `json:"keys_moved"`
	BytesMoved       uint64         `json:"bytes_moved"`
	DeltaReplayed    uint64         `json:"delta_replayed"`
	MovedRetries     uint64         `json:"moved_retries"`
	NodesAdded       uint64         `json:"nodes_added"`
	NodesRemoved     uint64         `json:"nodes_removed"`
	SlotKeys         map[int]uint64 `json:"slot_keys,omitempty" delta:"last"`
}

// ForkSnap is the COW-fork side of the cluster layer: frozen views forked
// for checkpoint shipping and follower reads, their lifecycle (release,
// fence invalidation), the read traffic they absorbed, and how long
// fork-based ships spent off the node mutex.
type ForkSnap struct {
	Forks         uint64   `json:"forks"`
	Releases      uint64   `json:"releases"`
	Invalidated   uint64   `json:"invalidated"`
	FollowerReads uint64   `json:"follower_reads"`
	StaleRejected uint64   `json:"stale_rejected"`
	ShipNs        HistSnap `json:"ship_ns"`
}

// OverloadSnap is the overload-protection side of the cluster layer:
// deadline-budget refusals, breaker-shed dispatches, degraded (stale)
// reads, breaker transition counts, and the budget-margin distribution.
type OverloadSnap struct {
	DeadlineExpired  uint64   `json:"deadline_expired"`
	Shed             uint64   `json:"shed"`
	DegradedReads    uint64   `json:"degraded_reads"`
	BreakerOpens     uint64   `json:"breaker_opens"`
	BreakerHalfOpens uint64   `json:"breaker_half_opens"`
	BreakerCloses    uint64   `json:"breaker_closes"`
	BudgetRemaining  HistSnap `json:"budget_remaining"`
}

// TenantSnap is one tenant's serving activity: admitted commands and their
// payload bytes, quota rejections at admission, and capability denials on
// cross-view addresses. Index order follows tenant registration order.
type TenantSnap struct {
	Commands        uint64 `json:"commands"`
	Bytes           uint64 `json:"bytes"`
	QuotaRejections uint64 `json:"quota_rejections"`
	CapDenials      uint64 `json:"cap_denials"`
}

// ClusterSnap is the cluster layer's view: how many commands were served on
// the shared-VAS fast path versus over urpc, what each mode cost in worker
// cycles, and the per-node breakdown.
type ClusterSnap struct {
	Local    uint64 `json:"local"`
	Remote   uint64 `json:"remote"`
	Timeouts uint64 `json:"timeouts"`

	LocalCycles    HistSnap `json:"local_cycles"`
	RemoteCycles   HistSnap `json:"remote_cycles"`
	URPCCallCycles HistSnap `json:"urpc_call_cycles"`

	Replication *ReplicationSnap `json:"replication,omitempty"`
	Migration   *MigrationSnap   `json:"migration,omitempty"`
	Fork        *ForkSnap        `json:"fork,omitempty"`
	Overload    *OverloadSnap    `json:"overload,omitempty"`

	Nodes []NodeSnap `json:"nodes,omitempty"`
}

// Snapshot is an immutable, point-in-time copy of every counter the
// observability layer maintains. It shares no memory with the live Sink:
// mutating the machine after Snapshot() leaves the snapshot unchanged.
type Snapshot struct {
	Cores    []CoreSnap             `json:"cores,omitempty"`
	Cycles   map[string]uint64      `json:"cycles_by_cat,omitempty"`
	TLB      TLBSnap                `json:"tlb"`
	ASIDs    map[arch.ASID]ASIDSnap `json:"asids,omitempty"`
	PT       PTSnap                 `json:"pt"`
	NVM      NVMSnap                `json:"nvm"`
	VM       VMSnap                 `json:"vm"`
	Syscalls map[string]HistSnap    `json:"syscalls,omitempty"`
	Server   *ServerSnap            `json:"server,omitempty"`
	Cluster  *ClusterSnap           `json:"cluster,omitempty"`
	Tenants  []TenantSnap           `json:"tenants,omitempty"`

	LockWaitNs     HistSnap `json:"lock_wait_ns"`
	LockHoldCycles HistSnap `json:"lock_hold_cycles"`

	Shootdowns     uint64 `json:"shootdowns"`
	ShootdownPages uint64 `json:"shootdown_pages"`
	URPCRetries    uint64 `json:"urpc_retries"`
	FaultsInjected uint64 `json:"faults_injected"`
	Switches       uint64 `json:"switches"`

	TraceRecorded uint64 `json:"trace_recorded"`
	TraceDropped  uint64 `json:"trace_dropped"`
}

// Snapshot copies the sink-owned counters into an immutable Snapshot.
// Per-core total cycles and MMU counters are owned by the hardware layer;
// hw.Machine.StatsSnapshot completes them. The optional blocks (server,
// cluster and its sub-blocks, tenants) are present exactly when one of
// their counters is non-zero. Returns nil on a nil sink.
func (s *Sink) Snapshot() *Snapshot {
	if s == nil {
		return nil
	}
	snap := &Snapshot{
		Cores:  make([]CoreSnap, len(s.cores)),
		Cycles: make(map[string]uint64, NumCats),
		ASIDs:  map[arch.ASID]ASIDSnap{},
		PT: PTSnap{
			NodesAllocated: s.PT.tablesAllocated.Load(),
			NodesFreed:     s.PT.tablesFreed.Load(),
			NodesTouched:   s.PT.walkRefs.Load(),
			EntriesSet:     s.PT.entriesSet.Load(),
			EntriesCleared: s.PT.entriesCleared.Load(),
			Walks:          s.PT.walks.Load(),
		},
		NVM: NVMSnap{Writes: s.nvmWrites.Load(), WrittenBytes: s.nvmWriteByte.Load()},
		VM:  VMSnap{Maps: s.vmMaps.Load(), Unmaps: s.vmUnmaps.Load(), Faults: s.vmFaults.Load(), COWBreaks: s.vmCOWBreaks.Load()},

		LockWaitNs:     s.lockWaitNs.snapshot(),
		LockHoldCycles: s.lockHoldCycles.snapshot(),

		Shootdowns:     s.shootdowns.Load(),
		ShootdownPages: s.shootdownPages.Load(),
		URPCRetries:    s.urpcRetries.Load(),
		FaultsInjected: s.faultsFired.Load(),
	}
	for i := range s.cores {
		by := make(map[string]uint64, NumCats)
		for c := 0; c < NumCats; c++ {
			if v := s.cores[i].cycles[c].Load(); v != 0 {
				by[Cat(c).String()] = v
				snap.Cycles[Cat(c).String()] += v
			}
		}
		snap.Cores[i] = CoreSnap{ID: i, ByCat: by}
	}
	snap.TLB.Flushes = s.tlbFlushes.Load()
	snap.TLB.FlushedEntries = s.tlbFlushedEntries.Load()
	for asid := range s.asids {
		a := ASIDSnap{
			Hits:      s.asids[asid].hits.Load(),
			Misses:    s.asids[asid].misses.Load(),
			Evictions: s.asids[asid].evictions.Load(),
		}
		if a.Hits == 0 && a.Misses == 0 && a.Evictions == 0 {
			continue
		}
		snap.ASIDs[arch.ASID(asid)] = a
		snap.TLB.Hits += a.Hits
		snap.TLB.Misses += a.Misses
		snap.TLB.Evictions += a.Evictions
	}
	snap.Syscalls = map[string]HistSnap{}
	for op := 0; op < NumOps; op++ {
		if h := s.syscalls[op].snapshot(); h.Count != 0 {
			snap.Syscalls[Op(op).String()] = h
		}
	}
	srv := &s.server
	ss := &ServerSnap{
		ConnsAccepted: srv.connsAccepted.Load(),
		ConnsClosed:   srv.connsClosed.Load(),
		Commands:      srv.commands.Load(),
		Busy:          srv.busy.Load(),
		Pipeline:      srv.pipeline.snapshot(),
		QueueDepth:    srv.queue.snapshot(),
		LatencyNs:     srv.latencyNs.snapshot(),
	}
	if shards := srv.shards.Load(); shards != nil {
		ss.Shards = make([]ShardSnap, len(*shards))
		for i := range *shards {
			sh := &(*shards)[i]
			ss.Shards[i] = ShardSnap{
				Conns:    sh.conns.Load(),
				Commands: sh.commands.Load(),
				Busy:     sh.busy.Load(),
				QueueMax: sh.queueMax.Load(),
			}
		}
	}
	snap.Server = nonzero(ss)

	cl := &s.cluster
	cs := &ClusterSnap{
		Local:          cl.local.Load(),
		Remote:         cl.remote.Load(),
		Timeouts:       cl.timeouts.Load(),
		LocalCycles:    cl.localCycles.snapshot(),
		RemoteCycles:   cl.remoteCycles.snapshot(),
		URPCCallCycles: cl.urpcCycles.snapshot(),
		Replication: nonzero(&ReplicationSnap{
			Ships:         cl.ships.Load(),
			ShipBytes:     cl.shipBytes.Load(),
			ShipFailures:  cl.shipFailures.Load(),
			Probes:        cl.probes.Load(),
			ProbeFailures: cl.probeFailures.Load(),
			Promotions:    cl.promotions.Load(),
			DeltaReplayed: cl.deltaReplayed.Load(),
			LostUpdates:   cl.lostUpdates.Load(),
		}),
		Fork: nonzero(&ForkSnap{
			Forks:         cl.forks.Load(),
			Releases:      cl.forkReleases.Load(),
			Invalidated:   cl.forkInvalidates.Load(),
			FollowerReads: cl.followerReads.Load(),
			StaleRejected: cl.staleRejected.Load(),
			ShipNs:        cl.shipNs.snapshot(),
		}),
		Overload: nonzero(&OverloadSnap{
			DeadlineExpired:  cl.deadlineExpired.Load(),
			Shed:             cl.shed.Load(),
			DegradedReads:    cl.degradedReads.Load(),
			BreakerOpens:     cl.breakerOpens.Load(),
			BreakerHalfOpens: cl.breakerHalfOpens.Load(),
			BreakerCloses:    cl.breakerCloses.Load(),
			BudgetRemaining:  cl.budgetRemaining.snapshot(),
		}),
	}
	mig := &MigrationSnap{
		SlotMoves:        cl.slotMoves.Load(),
		SlotMoveFailures: cl.slotMoveFailures.Load(),
		KeysMoved:        cl.migKeysMoved.Load(),
		BytesMoved:       cl.migBytes.Load(),
		DeltaReplayed:    cl.migDeltaReplayed.Load(),
		MovedRetries:     cl.movedRetries.Load(),
		NodesAdded:       cl.nodesAdded.Load(),
		NodesRemoved:     cl.nodesRemoved.Load(),
	}
	if table := cl.slotKeys.Load(); table != nil {
		for i := range *table {
			if v := (*table)[i].Load(); v != 0 {
				if mig.SlotKeys == nil {
					mig.SlotKeys = map[int]uint64{}
				}
				mig.SlotKeys[i] = v
			}
		}
	}
	cs.Migration = nonzero(mig)
	if nodes := cl.nodes.Load(); nodes != nil {
		cs.Nodes = make([]NodeSnap, len(*nodes))
		for i := range *nodes {
			nc := &(*nodes)[i]
			cs.Nodes[i] = NodeSnap{
				Local:    nc.local.Load(),
				Remote:   nc.remote.Load(),
				Timeouts: nc.timeouts.Load(),
			}
		}
	}
	snap.Cluster = nonzero(cs)

	if table := s.tenants.table.Load(); table != nil {
		tenants := make([]TenantSnap, len(*table))
		for i := range *table {
			tc := &(*table)[i]
			tenants[i] = TenantSnap{
				Commands:        tc.commands.Load(),
				Bytes:           tc.bytes.Load(),
				QuotaRejections: tc.quota.Load(),
				CapDenials:      tc.denials.Load(),
			}
		}
		if !zero(reflect.ValueOf(tenants)) {
			snap.Tenants = tenants
		}
	}
	if t := s.tracer.Load(); t != nil {
		snap.TraceRecorded = t.Recorded()
		snap.TraceDropped = t.Dropped()
	}
	return snap
}

// Delta returns this snapshot minus an earlier one — the per-measurement
// view a benchmark prints. It walks the Snap types (see sub), so a nil
// before, a block missing from before, or a shorter slice in before counts
// as all-zero. Fields tagged delta:"last" (histogram maxima, high-water
// marks, point-in-time slot key counts) carry this snapshot's value.
func (s *Snapshot) Delta(before *Snapshot) *Snapshot {
	var out *Snapshot
	sub(reflect.ValueOf(&out).Elem(), reflect.ValueOf(s), reflect.ValueOf(before))
	return out
}

// sub sets dst to after − before over the shape of the Snap types: uint64
// leaves subtract; structs go field by field; a nil pointer, missing map
// entry or missing slice element in before (or an invalid before) counts
// as zero; a nil pointer, slice or map in after stays nil; map entries
// whose delta is zero are dropped. Fields tagged delta:"last" and
// non-counter scalars (CoreSnap.ID) carry after's value. dst must be a
// settable zero value of after's type.
func sub(dst, after, before reflect.Value) {
	switch after.Kind() {
	case reflect.Uint64:
		d := after.Uint()
		if before.IsValid() {
			d -= before.Uint()
		}
		dst.SetUint(d)
	case reflect.Struct:
		last := lastFields(after.Type())
		for i := 0; i < after.NumField(); i++ {
			if last[i] {
				dst.Field(i).Set(after.Field(i))
				continue
			}
			var b reflect.Value
			if before.IsValid() {
				b = before.Field(i)
			}
			sub(dst.Field(i), after.Field(i), b)
		}
	case reflect.Pointer:
		if after.IsNil() {
			return
		}
		dst.Set(reflect.New(after.Type().Elem()))
		var b reflect.Value
		if before.IsValid() && !before.IsNil() {
			b = before.Elem()
		}
		sub(dst.Elem(), after.Elem(), b)
	case reflect.Slice:
		if after.IsNil() {
			return
		}
		if a, ok := after.Interface().([]uint64); ok {
			// Histogram buckets, the bulk of a snapshot's leaves: subtract
			// without a reflect call per element.
			d := slices.Clone(a)
			if before.IsValid() {
				for i, v := range before.Interface().([]uint64)[:min(len(a), before.Len())] {
					d[i] -= v
				}
			}
			dst.Set(reflect.ValueOf(d))
			return
		}
		dst.Set(reflect.MakeSlice(after.Type(), after.Len(), after.Len()))
		for i := 0; i < after.Len(); i++ {
			var b reflect.Value
			if before.IsValid() && i < before.Len() {
				b = before.Index(i)
			}
			sub(dst.Index(i), after.Index(i), b)
		}
	case reflect.Map:
		if after.IsNil() {
			return
		}
		dst.Set(reflect.MakeMapWithSize(after.Type(), after.Len()))
		d := reflect.New(after.Type().Elem()).Elem()
		for it := after.MapRange(); it.Next(); {
			var b reflect.Value
			if before.IsValid() {
				b = before.MapIndex(it.Key())
			}
			d.SetZero()
			sub(d, it.Value(), b)
			if !zero(d) {
				dst.SetMapIndex(it.Key(), d)
			}
		}
	default:
		dst.Set(after)
	}
}

// zero reports whether every counted leaf of v — each uint64 reached
// through structs, pointers, slices and maps, skipping delta:"last" fields
// — is zero.
func zero(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Uint64:
		return v.Uint() == 0
	case reflect.Struct:
		last := lastFields(v.Type())
		for i := 0; i < v.NumField(); i++ {
			if !last[i] && !zero(v.Field(i)) {
				return false
			}
		}
	case reflect.Pointer:
		return v.IsNil() || zero(v.Elem())
	case reflect.Slice:
		if a, ok := v.Interface().([]uint64); ok {
			return !slices.ContainsFunc(a, func(x uint64) bool { return x != 0 })
		}
		for i := 0; i < v.Len(); i++ {
			if !zero(v.Index(i)) {
				return false
			}
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			if !zero(it.Value()) {
				return false
			}
		}
	}
	return true
}

// lastFields reports, per field of struct type t, whether it is tagged
// delta:"last". It is cached per type: Delta and the emptiness checks
// visit the same few struct types hundreds of times per snapshot.
func lastFields(t reflect.Type) []bool {
	if last, ok := lastFieldsCache.Load(t); ok {
		return last.([]bool)
	}
	last := make([]bool, t.NumField())
	for i := range last {
		last[i] = t.Field(i).Tag.Get("delta") == "last"
	}
	lastFieldsCache.Store(t, last)
	return last
}

var lastFieldsCache sync.Map // reflect.Type → []bool

// nonzero returns block, or nil when none of its counters has moved — the
// rule by which Snapshot emits its optional blocks.
func nonzero[T any](block *T) *T {
	if zero(reflect.ValueOf(block)) {
		return nil
	}
	return block
}

// JSON renders the snapshot as indented JSON.
func (s *Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// WriteText renders the snapshot as a human-readable counter table.
func (s *Snapshot) WriteText(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "cycles by category\n")
	var total uint64
	for _, name := range slices.Sorted(maps.Keys(s.Cycles)) {
		fmt.Fprintf(tw, "  %s\t%d\n", name, s.Cycles[name])
		total += s.Cycles[name]
	}
	fmt.Fprintf(tw, "  total\t%d\n", total)

	fmt.Fprintf(tw, "tlb\thits %d\tmisses %d\thit-rate %.4f\n", s.TLB.Hits, s.TLB.Misses, s.TLB.HitRate())
	fmt.Fprintf(tw, "\tevictions %d\tflushes %d\tflushed-entries %d\n", s.TLB.Evictions, s.TLB.Flushes, s.TLB.FlushedEntries)
	for _, a := range slices.Sorted(maps.Keys(s.ASIDs)) {
		v := s.ASIDs[a]
		fmt.Fprintf(tw, "  asid %d\thits %d\tmisses %d\thit-rate %.4f\tevictions %d\n",
			a, v.Hits, v.Misses, v.HitRate(), v.Evictions)
	}

	fmt.Fprintf(tw, "pt\tnodes-alloc %d\tnodes-freed %d\tnodes-touched %d\n",
		s.PT.NodesAllocated, s.PT.NodesFreed, s.PT.NodesTouched)
	fmt.Fprintf(tw, "\tentries-set %d\tentries-cleared %d\twalks %d\n",
		s.PT.EntriesSet, s.PT.EntriesCleared, s.PT.Walks)
	fmt.Fprintf(tw, "vm\tmaps %d\tunmaps %d\tfaults %d\tcow-breaks %d\n", s.VM.Maps, s.VM.Unmaps, s.VM.Faults, s.VM.COWBreaks)
	if s.NVM.Writes != 0 {
		fmt.Fprintf(tw, "nvm\twrites %d\tbytes %d\n", s.NVM.Writes, s.NVM.WrittenBytes)
	}
	fmt.Fprintf(tw, "switches\t%d\tshootdowns %d (%d pages)\n", s.Switches, s.Shootdowns, s.ShootdownPages)
	if s.URPCRetries != 0 || s.FaultsInjected != 0 {
		fmt.Fprintf(tw, "failures\turpc-retries %d\tfaults-injected %d\n", s.URPCRetries, s.FaultsInjected)
	}
	if s.LockWaitNs.Count != 0 {
		fmt.Fprintf(tw, "lock-wait-ns\tn %d\tmean %.0f\tp99 ≤%d\tmax %d\n",
			s.LockWaitNs.Count, s.LockWaitNs.Mean(), s.LockWaitNs.Quantile(0.99), s.LockWaitNs.Max)
	}
	if s.LockHoldCycles.Count != 0 {
		fmt.Fprintf(tw, "lock-hold-cyc\tn %d\tmean %.0f\tp99 ≤%d\tmax %d\n",
			s.LockHoldCycles.Count, s.LockHoldCycles.Mean(), s.LockHoldCycles.Quantile(0.99), s.LockHoldCycles.Max)
	}
	if len(s.Syscalls) > 0 {
		fmt.Fprintf(tw, "syscall latency (cycles)\n")
		for _, op := range slices.Sorted(maps.Keys(s.Syscalls)) {
			h := s.Syscalls[op]
			fmt.Fprintf(tw, "  %s\tn %d\tmean %.0f\tp99 ≤%d\tmax %d\n",
				op, h.Count, h.Mean(), h.Quantile(0.99), h.Max)
		}
	}
	if srv := s.Server; srv != nil {
		fmt.Fprintf(tw, "server\tconns %d/%d\tcommands %d\tbusy %d\n",
			srv.ConnsClosed, srv.ConnsAccepted, srv.Commands, srv.Busy)
		fmt.Fprintf(tw, "  latency-ns\tn %d\tmean %.0f\tp50 ≤%d\tp99 ≤%d\tmax %d\n",
			srv.LatencyNs.Count, srv.LatencyNs.Mean(),
			srv.LatencyNs.Quantile(0.50), srv.LatencyNs.Quantile(0.99), srv.LatencyNs.Max)
		fmt.Fprintf(tw, "  pipeline\tmean %.1f\tmax %d\tqueue mean %.1f max %d\n",
			srv.Pipeline.Mean(), srv.Pipeline.Max, srv.QueueDepth.Mean(), srv.QueueDepth.Max)
		for i, sh := range srv.Shards {
			fmt.Fprintf(tw, "  shard %d\tconns %d\tcommands %d\tbusy %d\tqueue-max %d\n",
				i, sh.Conns, sh.Commands, sh.Busy, sh.QueueMax)
		}
	}
	if cl := s.Cluster; cl != nil {
		fmt.Fprintf(tw, "cluster\tlocal %d\tremote %d\ttimeouts %d\n", cl.Local, cl.Remote, cl.Timeouts)
		if cl.LocalCycles.Count != 0 {
			fmt.Fprintf(tw, "  local-cyc\tn %d\tmean %.0f\tp99 ≤%d\tmax %d\n",
				cl.LocalCycles.Count, cl.LocalCycles.Mean(), cl.LocalCycles.Quantile(0.99), cl.LocalCycles.Max)
		}
		if cl.RemoteCycles.Count != 0 {
			fmt.Fprintf(tw, "  remote-cyc\tn %d\tmean %.0f\tp99 ≤%d\tmax %d\n",
				cl.RemoteCycles.Count, cl.RemoteCycles.Mean(), cl.RemoteCycles.Quantile(0.99), cl.RemoteCycles.Max)
		}
		if cl.URPCCallCycles.Count != 0 {
			fmt.Fprintf(tw, "  urpc-call-cyc\tn %d\tmean %.0f\tp99 ≤%d\tmax %d\n",
				cl.URPCCallCycles.Count, cl.URPCCallCycles.Mean(), cl.URPCCallCycles.Quantile(0.99), cl.URPCCallCycles.Max)
		}
		if r := cl.Replication; r != nil {
			fmt.Fprintf(tw, "  replication\tships %d (%d B, %d failed)\tprobes %d (%d failed)\n",
				r.Ships, r.ShipBytes, r.ShipFailures, r.Probes, r.ProbeFailures)
			fmt.Fprintf(tw, "  failover\tpromotions %d\tdelta-replayed %d\tlost-updates %d\n",
				r.Promotions, r.DeltaReplayed, r.LostUpdates)
		}
		if m := cl.Migration; m != nil {
			fmt.Fprintf(tw, "  migration\tslot-moves %d (%d failed)\tkeys %d (%d B)\tdelta-replayed %d\tmoved-retries %d\n",
				m.SlotMoves, m.SlotMoveFailures, m.KeysMoved, m.BytesMoved, m.DeltaReplayed, m.MovedRetries)
			fmt.Fprintf(tw, "  membership\tnodes-added %d\tnodes-removed %d\n",
				m.NodesAdded, m.NodesRemoved)
		}
		if f := cl.Fork; f != nil {
			fmt.Fprintf(tw, "  fork\tforks %d\treleases %d\tinvalidated %d\tfollower-reads %d\tstale-rejected %d\n",
				f.Forks, f.Releases, f.Invalidated, f.FollowerReads, f.StaleRejected)
			if f.ShipNs.Count != 0 {
				fmt.Fprintf(tw, "  ship-ns\tn %d\tmean %.0f\tp99 ≤%d\tmax %d\n",
					f.ShipNs.Count, f.ShipNs.Mean(), f.ShipNs.Quantile(0.99), f.ShipNs.Max)
			}
		}
		if o := cl.Overload; o != nil {
			fmt.Fprintf(tw, "  overload\tdeadline-expired %d\tshed %d\tdegraded-reads %d\n",
				o.DeadlineExpired, o.Shed, o.DegradedReads)
			fmt.Fprintf(tw, "  breakers\topens %d\thalf-opens %d\tcloses %d\n",
				o.BreakerOpens, o.BreakerHalfOpens, o.BreakerCloses)
			if o.BudgetRemaining.Count != 0 {
				fmt.Fprintf(tw, "  budget-left-cyc\tn %d\tmean %.0f\tp50 ≤%d\tmax %d\n",
					o.BudgetRemaining.Count, o.BudgetRemaining.Mean(),
					o.BudgetRemaining.Quantile(0.50), o.BudgetRemaining.Max)
			}
		}
		for i, n := range cl.Nodes {
			fmt.Fprintf(tw, "  node %d\tlocal %d\tremote %d\ttimeouts %d\n", i, n.Local, n.Remote, n.Timeouts)
		}
	}
	for i, t := range s.Tenants {
		if zero(reflect.ValueOf(t)) {
			continue
		}
		fmt.Fprintf(tw, "tenant %d\tcommands %d\tbytes %d\tquota-rejected %d\tcap-denied %d\n",
			i, t.Commands, t.Bytes, t.QuotaRejections, t.CapDenials)
	}
	if s.TraceRecorded != 0 {
		fmt.Fprintf(tw, "trace\trecorded %d\tdropped %d\n", s.TraceRecorded, s.TraceDropped)
	}
	return tw.Flush()
}
