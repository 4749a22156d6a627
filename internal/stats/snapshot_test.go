package stats

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"spacejmp/internal/arch"
)

// Table sizes every test sink installs before recording, so recorders that
// index a node, slot, shard or tenant land in a live counter.
const (
	testNodes   = 3
	testSlots   = 8
	testShards  = 2
	testTenants = 2
)

func newTestSink() (*Sink, []*ShardCounters) {
	s := NewSink(2)
	s.InstallClusterNodes(testNodes)
	s.InstallClusterSlots(testSlots)
	s.InstallTenants(testTenants)
	return s, s.InstallServerShards(testShards)
}

// recorder is one counter-moving call on the sink. path names (in the
// snapshot's JSON, dot-separated, slice elements by index) a leaf that the
// call makes non-zero when v ≥ 1.
type recorder struct {
	name string
	path string
	rec  func(s *Sink, sh []*ShardCounters, v uint64)
}

var recorders = []recorder{
	{"AddCycles", "cycles_by_cat.walk", func(s *Sink, _ []*ShardCounters, v uint64) { s.Core(int(v%2)).AddCycles(CatWalk, v) }},
	{"TLBHit", "tlb.hits", func(s *Sink, _ []*ShardCounters, v uint64) { s.TLBHit(arch.ASID(v % 4)) }},
	{"TLBMiss", "tlb.misses", func(s *Sink, _ []*ShardCounters, v uint64) { s.TLBMiss(arch.ASID(v % 4)) }},
	{"TLBEvict", "tlb.evictions", func(s *Sink, _ []*ShardCounters, v uint64) { s.TLBEvict(arch.ASID(v % 4)) }},
	{"TLBFlush", "tlb.flushes", func(s *Sink, _ []*ShardCounters, v uint64) { s.TLBFlush(int(v)) }},
	{"Shootdown", "shootdowns", func(s *Sink, _ []*ShardCounters, v uint64) { s.Shootdown(v, int(v)) }},
	{"NVMWrite", "nvm.writes", func(s *Sink, _ []*ShardCounters, v uint64) { s.NVMWrite(int(v)) }},
	{"VMMap", "vm.maps", func(s *Sink, _ []*ShardCounters, _ uint64) { s.VMMap() }},
	{"VMUnmap", "vm.unmaps", func(s *Sink, _ []*ShardCounters, _ uint64) { s.VMUnmap() }},
	{"VMFault", "vm.faults", func(s *Sink, _ []*ShardCounters, _ uint64) { s.VMFault() }},
	{"VMCOWBreak", "vm.cow_breaks", func(s *Sink, _ []*ShardCounters, _ uint64) { s.VMCOWBreak() }},
	{"TableAllocated", "pt.nodes_allocated", func(s *Sink, _ []*ShardCounters, _ uint64) { s.PTObs().TableAllocated() }},
	{"TableFreed", "pt.nodes_freed", func(s *Sink, _ []*ShardCounters, _ uint64) { s.PTObs().TableFreed() }},
	{"EntrySet", "pt.entries_set", func(s *Sink, _ []*ShardCounters, _ uint64) { s.PTObs().EntrySet() }},
	{"EntryCleared", "pt.entries_cleared", func(s *Sink, _ []*ShardCounters, _ uint64) { s.PTObs().EntryCleared() }},
	{"Walk", "pt.walks", func(s *Sink, _ []*ShardCounters, v uint64) { s.PTObs().Walk(int(v)) }},
	{"LockWait", "lock_wait_ns.count", func(s *Sink, _ []*ShardCounters, v uint64) { s.LockWait(v) }},
	{"LockHold", "lock_hold_cycles.count", func(s *Sink, _ []*ShardCounters, v uint64) { s.LockHold(v) }},
	{"Syscall", "syscalls.vas_switch.count", func(s *Sink, _ []*ShardCounters, v uint64) { s.Syscall(OpVASSwitch, v) }},
	{"URPCRetry", "urpc_retries", func(s *Sink, _ []*ShardCounters, v uint64) { s.URPCRetry(0, v, 1) }},
	{"FaultFired", "faults_injected", func(s *Sink, _ []*ShardCounters, _ uint64) { s.FaultFired("x") }},

	{"ConnAccepted", "server.conns_accepted", func(s *Sink, _ []*ShardCounters, v uint64) { s.ConnAccepted(v, 0) }},
	{"ConnClosed", "server.conns_closed", func(s *Sink, _ []*ShardCounters, v uint64) { s.ConnClosed(v, v) }},
	{"ServerCommand", "server.commands", func(s *Sink, _ []*ShardCounters, v uint64) { s.ServerCommand(v) }},
	{"ServerBusy", "server.busy", func(s *Sink, _ []*ShardCounters, _ uint64) { s.ServerBusy() }},
	{"ServerPipeline", "server.pipeline.count", func(s *Sink, _ []*ShardCounters, v uint64) { s.ServerPipeline(int(v)) }},
	{"ServerQueue", "server.queue_depth.count", func(s *Sink, sh []*ShardCounters, v uint64) {
		// The serving layers sample a shard's high-water mark together
		// with the queue histogram, so the two are recorded as one.
		sh[v%testShards].QueueDepth(int(v))
		s.ServerQueue(int(v))
	}},
	{"ShardConn", "server.shards.0.conns", func(_ *Sink, sh []*ShardCounters, _ uint64) { sh[0].Conn() }},
	{"ShardCommand", "server.shards.1.commands", func(_ *Sink, sh []*ShardCounters, _ uint64) { sh[1].Command() }},
	{"ShardBusy", "server.shards.0.busy", func(_ *Sink, sh []*ShardCounters, _ uint64) { sh[0].Busy() }},

	{"ClusterLocal", "cluster.local", func(s *Sink, _ []*ShardCounters, v uint64) { s.ClusterLocal(int(v%testNodes), v) }},
	{"ClusterRemote", "cluster.remote", func(s *Sink, _ []*ShardCounters, v uint64) { s.ClusterRemote(int(v%testNodes), v) }},
	{"ClusterURPCCall", "cluster.urpc_call_cycles.count", func(s *Sink, _ []*ShardCounters, v uint64) { s.ClusterURPCCall(v) }},
	{"ClusterTimeout", "cluster.timeouts", func(s *Sink, _ []*ShardCounters, v uint64) { s.ClusterTimeout(int(v % testNodes)) }},
	{"ClusterShip", "cluster.replication.ships", func(s *Sink, _ []*ShardCounters, v uint64) { s.ClusterShip(0, v) }},
	{"ClusterShipFailure", "cluster.replication.ship_failures", func(s *Sink, _ []*ShardCounters, _ uint64) { s.ClusterShipFailure(0) }},
	{"ClusterProbe", "cluster.replication.probe_failures", func(s *Sink, _ []*ShardCounters, _ uint64) { s.ClusterProbe(false) }},
	{"ClusterPromotion", "cluster.replication.promotions", func(s *Sink, _ []*ShardCounters, v uint64) { s.ClusterPromotion(0, v, v/2) }},
	{"ClusterLostUpdates", "cluster.replication.lost_updates", func(s *Sink, _ []*ShardCounters, v uint64) { s.ClusterLostUpdates(v) }},
	{"ClusterSlotMoved", "cluster.migration.slot_moves", func(s *Sink, _ []*ShardCounters, v uint64) {
		s.ClusterSlotMoved(int(v%testSlots), 0, 1, v, 8*v, v/2)
	}},
	{"ClusterSlotMoveFailed", "cluster.migration.slot_move_failures", func(s *Sink, _ []*ShardCounters, v uint64) {
		s.ClusterSlotMoveFailed(int(v%testSlots), 0, 1, "x")
	}},
	{"ClusterMovedRetry", "cluster.migration.moved_retries", func(s *Sink, _ []*ShardCounters, _ uint64) { s.ClusterMovedRetry() }},
	{"ClusterNodeAdded", "cluster.migration.nodes_added", func(s *Sink, _ []*ShardCounters, _ uint64) { s.ClusterNodeAdded(2) }},
	{"ClusterNodeRemoved", "cluster.migration.nodes_removed", func(s *Sink, _ []*ShardCounters, _ uint64) { s.ClusterNodeRemoved(2) }},
	{"ClusterFork", "cluster.fork.forks", func(s *Sink, _ []*ShardCounters, v uint64) { s.ClusterFork(0, v) }},
	{"ClusterForkRelease", "cluster.fork.releases", func(s *Sink, _ []*ShardCounters, v uint64) { s.ClusterForkRelease(0, v) }},
	{"ClusterForkInvalidate", "cluster.fork.invalidated", func(s *Sink, _ []*ShardCounters, v uint64) { s.ClusterForkInvalidate(0, v, "x") }},
	{"ClusterFollowerRead", "cluster.fork.follower_reads", func(s *Sink, _ []*ShardCounters, _ uint64) { s.ClusterFollowerRead() }},
	{"ClusterStaleRejected", "cluster.fork.stale_rejected", func(s *Sink, _ []*ShardCounters, _ uint64) { s.ClusterStaleRejected() }},
	{"ClusterShipDuration", "cluster.fork.ship_ns.count", func(s *Sink, _ []*ShardCounters, v uint64) { s.ClusterShipDuration(v) }},
	{"ClusterDeadlineExpired", "cluster.overload.deadline_expired", func(s *Sink, _ []*ShardCounters, _ uint64) { s.ClusterDeadlineExpired() }},
	{"ClusterShed", "cluster.overload.shed", func(s *Sink, _ []*ShardCounters, v uint64) { s.ClusterShed(int(v % testNodes)) }},
	{"ClusterDegradedRead", "cluster.overload.degraded_reads", func(s *Sink, _ []*ShardCounters, _ uint64) { s.ClusterDegradedRead() }},
	{"ClusterBreaker(open)", "cluster.overload.breaker_opens", func(s *Sink, _ []*ShardCounters, _ uint64) { s.ClusterBreaker(0, "closed", "open") }},
	{"ClusterBreaker(half-open)", "cluster.overload.breaker_half_opens", func(s *Sink, _ []*ShardCounters, _ uint64) { s.ClusterBreaker(0, "open", "half-open") }},
	{"ClusterBreaker(closed)", "cluster.overload.breaker_closes", func(s *Sink, _ []*ShardCounters, _ uint64) { s.ClusterBreaker(0, "half-open", "closed") }},
	{"ClusterBudgetRemaining", "cluster.overload.budget_remaining.count", func(s *Sink, _ []*ShardCounters, v uint64) { s.ClusterBudgetRemaining(v) }},

	{"TenantCommand", "tenants.0.commands", func(s *Sink, _ []*ShardCounters, v uint64) { s.TenantCommand(0, v) }},
	{"TenantQuotaRejected", "tenants.1.quota_rejections", func(s *Sink, _ []*ShardCounters, _ uint64) { s.TenantQuotaRejected(1) }},
	{"TenantDenied", "tenants.1.cap_denials", func(s *Sink, _ []*ShardCounters, _ uint64) { s.TenantDenied(1) }},
}

// leaves flattens a snapshot's JSON into dot-separated paths → numbers.
func leaves(t *testing.T, snap *Snapshot) map[string]uint64 {
	t.Helper()
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var tree any
	if err := json.Unmarshal(raw, &tree); err != nil {
		t.Fatal(err)
	}
	out := map[string]uint64{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, e := range v {
				walk(prefix+k+".", e)
			}
		case []any:
			for i, e := range v {
				walk(prefix+strconv.Itoa(i)+".", e)
			}
		case float64:
			out[strings.TrimSuffix(prefix, ".")] = uint64(v)
		}
	}
	walk("", tree)
	return out
}

// TestSnapshotKeepsEveryCounter: on a fresh sink, every recorder's counter
// shows up in the snapshot — no block is dropped while one of its counters
// is non-zero.
func TestSnapshotKeepsEveryCounter(t *testing.T) {
	for _, r := range recorders {
		t.Run(r.name, func(t *testing.T) {
			s, sh := newTestSink()
			r.rec(s, sh, 1)
			if got := leaves(t, s.Snapshot())[r.path]; got == 0 {
				t.Errorf("%s: snapshot has %s = %d, want non-zero", r.name, r.path, got)
			}
		})
	}
}

// lastKeys are the JSON names of the fields Delta carries from the later
// snapshot instead of subtracting: histogram maxima, high-water marks,
// point-in-time slot key counts, and core IDs.
var lastKeys = map[string]bool{"max": true, "queue_max": true, "slot_keys": true, "id": true}

func isLast(path string) bool {
	for _, part := range strings.Split(path, ".") {
		if lastKeys[part] {
			return true
		}
	}
	return false
}

// split divides flattened leaves into the non-zero subtracted ones and the
// carried ones.
func split(all map[string]uint64) (counted, last map[string]uint64) {
	counted, last = map[string]uint64{}, map[string]uint64{}
	for p, v := range all {
		switch {
		case isLast(p):
			last[p] = v
		case v != 0:
			counted[p] = v
		}
	}
	return counted, last
}

func playPhase(s *Sink, sh []*ShardCounters, seed int64, n int) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		recorders[rng.Intn(len(recorders))].rec(s, sh, 1+uint64(rng.Intn(1000)))
	}
}

// TestSnapshotDeltaModel checks Delta against a model: sink S records phase
// A then phase B, sink T records phase B alone, so S's delta across B must
// equal T's snapshot on every subtracted counter. Carried fields take S's
// later values, and a delta against nil is the snapshot itself.
func TestSnapshotDeltaModel(t *testing.T) {
	const phaseLen = 200
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			s, ssh := newTestSink()
			tt, tsh := newTestSink()
			s.SetTracer(NewTracer(4 * phaseLen))
			tt.SetTracer(NewTracer(4 * phaseLen))

			playPhase(s, ssh, 2*seed, phaseLen)
			before := s.Snapshot()
			playPhase(s, ssh, 2*seed+1, phaseLen)
			playPhase(tt, tsh, 2*seed+1, phaseLen)
			after := s.Snapshot()
			delta := after.Delta(before)

			gotCounted, gotLast := split(leaves(t, delta))
			wantCounted, _ := split(leaves(t, tt.Snapshot()))
			if !reflect.DeepEqual(gotCounted, wantCounted) {
				for p, v := range wantCounted {
					if gotCounted[p] != v {
						t.Errorf("%s: delta %d, model %d", p, gotCounted[p], v)
					}
				}
				for p, v := range gotCounted {
					if _, ok := wantCounted[p]; !ok {
						t.Errorf("%s: delta %d, model has none", p, v)
					}
				}
			}
			_, afterLast := split(leaves(t, after))
			for p, v := range gotLast {
				if afterLast[p] != v {
					t.Errorf("%s: delta carries %d, later snapshot has %d", p, v, afterLast[p])
				}
			}
			if after.Cluster == nil || after.Cluster.Migration == nil || after.Server == nil {
				t.Fatal("phases left the cluster migration or server block empty")
			}
			if a, d := after.Cluster.Migration, delta.Cluster.Migration; !reflect.DeepEqual(a.SlotKeys, d.SlotKeys) {
				t.Errorf("slot keys: delta %v, later snapshot %v", d.SlotKeys, a.SlotKeys)
			}
			for i, sh := range after.Server.Shards {
				if got := delta.Server.Shards[i].QueueMax; got != sh.QueueMax {
					t.Errorf("shard %d queue max: delta %d, later snapshot %d", i, got, sh.QueueMax)
				}
			}

			full, err := json.Marshal(after.Delta(nil))
			if err != nil {
				t.Fatal(err)
			}
			want, _ := json.Marshal(after)
			if string(full) != string(want) {
				t.Errorf("Delta(nil) differs from the snapshot:\n got %s\nwant %s", full, want)
			}
		})
	}
}
