package server

import (
	"encoding/json"
	"maps"
	"net/http"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"time"

	"spacejmp/internal/core"
	"spacejmp/internal/fault"
	"spacejmp/internal/stats"
	"spacejmp/internal/tenant"
)

// NodeHealth is one shard node's routing and failover status, as the
// cluster layer reports it (defined here so the admin surface does not
// import the cluster package, which imports this one).
type NodeHealth struct {
	Node          int    `json:"node"`
	Local         bool   `json:"local"`
	Replicated    bool   `json:"replicated,omitempty"`
	State         string `json:"state"`
	Promoted      bool   `json:"promoted,omitempty"`
	Degraded      bool   `json:"degraded,omitempty"`
	LostUpdates   uint64 `json:"lost_updates,omitempty"`
	DeltaBuffered int    `json:"delta_buffered,omitempty"`
	Detail        string `json:"detail,omitempty"`
}

// SlotRangeInfo is one contiguous run of placement slots with one owner.
type SlotRangeInfo struct {
	Start int `json:"start"`
	End   int `json:"end"`
	Node  int `json:"node"`
}

// PlacementInfo is the cluster's slot-table state for the admin surface:
// the table's version, the slot count, and the owned ranges.
type PlacementInfo struct {
	Version uint64          `json:"version"`
	Slots   int             `json:"slots"`
	Ranges  []SlotRangeInfo `json:"ranges"`
}

// ClusterStatus is what the admin surface needs from a cluster router:
// live channel occupancy, per-node health, and the slot-table placement.
// Pass nil when the server fronts a single store.
type ClusterStatus interface {
	PendingFrames() int
	Health() []NodeHealth
	PlacementInfo() PlacementInfo
}

// AdminHandler serves the machine's live observability state over HTTP:
//
//	GET /stats       — the sink's counters as JSON (a stats.Snapshot), plus
//	                   the armed fault rules (a "faults" block) and, when a
//	                   cluster is attached, its live runtime state (pending
//	                   urpc frames, per-node health)
//	GET /stats/delta — long-poll delta stream: the first call returns the
//	                   full snapshot and a cursor; each follow-up call with
//	                   ?cursor= re-snapshots every 20 ms (up to ?wait=,
//	                   default 10s, at most 30s) until any counter differs
//	                   from the cursor's snapshot, then returns the delta
//	                   since it (stats.Snapshot.Delta: counters subtract,
//	                   maxima and high-water marks carry the later value)
//	                   and a new single-use cursor; changed=false means the
//	                   window passed with nothing moving. A watcher loops on
//	                   it to stream a running scenario's activity instead of
//	                   re-pulling and re-diffing full snapshots.
//	GET /trace?n=    — the most recent n retained trace events (default all)
//	GET /healthz     — liveness probe; JSON with the current placement table
//	                   version (so operators can correlate degraded ranges
//	                   with a recent slot flip); 503 with per-node detail
//	                   when any key range is degraded (failed, mid-promotion,
//	                   or lost)
//	GET /tenants     — multi-tenant registry listing: each tenant's quotas,
//	                   live usage, and serving counters (404 when the server
//	                   runs single-tenant)
//
// /stats reads only the sink's atomic counters (stats.Sink.Snapshot), so it
// is safe to poll while workers drive the simulated cores. The per-core
// *total* cycle counters are deliberately absent: they are non-atomic by
// design (one goroutine per core), and only hw.Machine.StatsSnapshot — which
// requires quiescence — can fold them in. Category-attributed cycles, which
// the sink does own, are present and account for all charged work.
func AdminHandler(sys *core.System, cl ClusterStatus, tenants *tenant.Registry) http.Handler {
	obs := sys.M.Observer()
	cursors := &deltaCursors{snaps: map[uint64]*stats.Snapshot{}}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		// healthBody carries the placement version alongside the verdict so
		// an operator can correlate a degraded range with a recent slot
		// flip without a second /topology round trip.
		type healthBody struct {
			Status           string       `json:"status"`
			PlacementVersion *uint64      `json:"placement_version,omitempty"`
			Nodes            []NodeHealth `json:"nodes,omitempty"`
		}
		body := healthBody{Status: "ok"}
		status := http.StatusOK
		if cl != nil {
			v := cl.PlacementInfo().Version
			body.PlacementVersion = &v
			for _, n := range cl.Health() {
				if n.Degraded || n.LostUpdates > 0 {
					body.Nodes = append(body.Nodes, n)
				}
			}
			if len(body.Nodes) > 0 {
				body.Status = "degraded"
				status = http.StatusServiceUnavailable
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(body)
	})
	mux.HandleFunc("/tenants", func(w http.ResponseWriter, r *http.Request) {
		if tenants == nil {
			http.Error(w, "multi-tenant serving disabled", http.StatusNotFound)
			return
		}
		infos := tenants.List()
		var counters []stats.TenantSnap
		if snap := obs.Snapshot(); snap != nil {
			counters = snap.Tenants
		}
		type entry struct {
			tenant.Info
			Counters stats.TenantSnap `json:"counters"`
		}
		out := make([]entry, len(infos))
		for i, info := range infos {
			out[i] = entry{Info: info}
			if i < len(counters) {
				out[i].Counters = counters[i]
			}
		}
		writeJSON(w, struct {
			Generation uint64  `json:"generation"`
			Tenants    []entry `json:"tenants"`
		}{tenants.Generation(), out})
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		snap := obs.Snapshot()
		if snap == nil {
			http.Error(w, "observability disabled", http.StatusNotFound)
			return
		}
		faults := sys.M.Faults.Points()
		if cl == nil {
			writeJSON(w, struct {
				*stats.Snapshot
				Faults []fault.PointStatus `json:"faults,omitempty"`
			}{snap, faults})
			return
		}
		writeJSON(w, struct {
			*stats.Snapshot
			Faults  []fault.PointStatus `json:"faults,omitempty"`
			Runtime clusterRuntime      `json:"cluster_runtime"`
		}{snap, faults, clusterRuntime{cl.PendingFrames(), cl.Health(), cl.PlacementInfo()}})
	})
	mux.HandleFunc("/stats/delta", func(w http.ResponseWriter, r *http.Request) {
		serveStatsDelta(w, r, obs, cursors)
	})
	mux.HandleFunc("/topology", func(w http.ResponseWriter, r *http.Request) {
		if cl == nil {
			http.Error(w, "no cluster attached", http.StatusNotFound)
			return
		}
		writeJSON(w, struct {
			Placement PlacementInfo `json:"placement"`
			Nodes     []NodeHealth  `json:"nodes"`
		}{cl.PlacementInfo(), cl.Health()})
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		t := obs.Tracer()
		if t == nil {
			http.Error(w, "tracing disabled", http.StatusNotFound)
			return
		}
		events := t.Events()
		if s := r.URL.Query().Get("n"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n < 0 {
				http.Error(w, "bad n", http.StatusBadRequest)
				return
			}
			if n < len(events) {
				events = events[len(events)-n:]
			}
		}
		out := make([]traceEvent, len(events))
		for i, e := range events {
			out[i] = traceEvent{Kind: e.Kind.String(), Event: e}
		}
		writeJSON(w, struct {
			Recorded uint64       `json:"recorded"`
			Dropped  uint64       `json:"dropped"`
			Events   []traceEvent `json:"events"`
		}{t.Recorded(), t.Dropped(), out})
	})
	return mux
}

// clusterRuntime is the live (non-counter) cluster state folded into /stats.
type clusterRuntime struct {
	PendingFrames int           `json:"pending_frames"`
	Nodes         []NodeHealth  `json:"nodes"`
	Placement     PlacementInfo `json:"placement"`
}

// traceEvent decorates a stats.Event with its kind's name — the numeric
// Kind is json:"-" on the inner type, so the name is the wire form.
type traceEvent struct {
	Kind string `json:"kind"`
	stats.Event
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// --- /stats/delta: long-poll streaming of snapshot deltas. ---

// deltaCursors is the handler's baseline table: each cursor names the
// snapshot a future delta is taken against. Cursors are cheap (one
// snapshot each) but unclaimed ones must not accumulate, so the table is
// bounded: past maxDeltaCursors the oldest (smallest id) is evicted, and a
// poll presenting it gets 410 Gone — the watcher restarts cursorless.
type deltaCursors struct {
	mu    sync.Mutex
	next  uint64
	snaps map[uint64]*stats.Snapshot
}

const maxDeltaCursors = 64

func (c *deltaCursors) register(snap *stats.Snapshot) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.next++
	c.snaps[c.next] = snap
	for len(c.snaps) > maxDeltaCursors {
		delete(c.snaps, slices.Min(slices.Collect(maps.Keys(c.snaps))))
	}
	return c.next
}

func (c *deltaCursors) take(id uint64) (*stats.Snapshot, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap, ok := c.snaps[id]
	if ok {
		// A cursor is single-use: the reply hands back a fresh one, so
		// dropping the old baseline keeps the table from filling with
		// spent entries.
		delete(c.snaps, id)
	}
	return snap, ok
}

// statsDelta is one long-poll reply: the next cursor, whether any counter
// changed within the wait window, and the delta itself (the full snapshot
// on a cursorless first call).
type statsDelta struct {
	Cursor  uint64          `json:"cursor"`
	Changed bool            `json:"changed"`
	Delta   *stats.Snapshot `json:"delta"`
}

// serveStatsDelta answers one /stats/delta poll. Change detection compares
// the fresh snapshot with the cursor's baseline by reflect.DeepEqual: both
// come from Sink.Snapshot, which builds nil and empty maps and slices the
// same way every time, so equal values mean no counter moved.
func serveStatsDelta(w http.ResponseWriter, r *http.Request, obs *stats.Sink, cursors *deltaCursors) {
	cur := obs.Snapshot()
	if cur == nil {
		http.Error(w, "observability disabled", http.StatusNotFound)
		return
	}
	cursorParam := r.URL.Query().Get("cursor")
	if cursorParam == "" {
		// First call: the full snapshot is the delta, and its baseline is
		// what the next poll diffs against.
		writeJSON(w, statsDelta{cursors.register(cur), true, cur})
		return
	}
	id, err := strconv.ParseUint(cursorParam, 10, 64)
	if err != nil {
		http.Error(w, "bad cursor", http.StatusBadRequest)
		return
	}
	base, ok := cursors.take(id)
	if !ok {
		http.Error(w, "unknown cursor (expired?)", http.StatusGone)
		return
	}

	wait := 10 * time.Second
	if s := r.URL.Query().Get("wait"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil || d < 0 {
			http.Error(w, "bad wait", http.StatusBadRequest)
			return
		}
		wait = d
	}
	if wait > 30*time.Second {
		wait = 30 * time.Second
	}

	deadline := time.Now().Add(wait)
	changed := !reflect.DeepEqual(cur, base)
	for !changed {
		if time.Now().After(deadline) {
			break
		}
		select {
		case <-r.Context().Done():
			return
		case <-time.After(20 * time.Millisecond):
		}
		cur = obs.Snapshot()
		changed = !reflect.DeepEqual(cur, base)
	}
	writeJSON(w, statsDelta{cursors.register(cur), changed, cur.Delta(base)})
}
