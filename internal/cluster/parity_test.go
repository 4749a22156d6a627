package cluster

import (
	"bufio"
	"errors"
	"net"
	"testing"
	"time"

	"spacejmp/internal/redis"
	"spacejmp/internal/stats"
)

// routeCounters are the counters a command's read-source choice moves:
// which path served it, and which refusal it earned.
type routeCounters struct {
	local, remote, urpcCalls   uint64
	timeouts, nodeTimeouts     uint64
	follower, degraded, stale  uint64
	shed, deadline, movedRetry uint64
}

func readRouteCounters(obs *stats.Sink, node int) routeCounters {
	var c routeCounters
	cs := obs.Snapshot().Cluster
	if cs == nil {
		return c
	}
	c.local, c.remote, c.urpcCalls = cs.Local, cs.Remote, cs.URPCCallCycles.Count
	c.timeouts = cs.Timeouts
	if node < len(cs.Nodes) {
		c.nodeTimeouts = cs.Nodes[node].Timeouts
	}
	if f := cs.Fork; f != nil {
		c.follower, c.stale = f.FollowerReads, f.StaleRejected
	}
	if o := cs.Overload; o != nil {
		c.shed, c.deadline, c.degraded = o.Shed, o.DeadlineExpired, o.DegradedReads
	}
	if m := cs.Migration; m != nil {
		c.movedRetry = m.MovedRetries
	}
	return c
}

func (c routeCounters) sub(b routeCounters) routeCounters {
	return routeCounters{
		local: c.local - b.local, remote: c.remote - b.remote, urpcCalls: c.urpcCalls - b.urpcCalls,
		timeouts: c.timeouts - b.timeouts, nodeTimeouts: c.nodeTimeouts - b.nodeTimeouts,
		follower: c.follower - b.follower, degraded: c.degraded - b.degraded, stale: c.stale - b.stale,
		shed: c.shed - b.shed, deadline: c.deadline - b.deadline, movedRetry: c.movedRetry - b.movedRetry,
	}
}

// TestReadSourceParity pins the router's read-source choice across its two
// read paths. For every source a read can resolve to — primary (local and
// remote), promoted standby, frozen view within the bound, -STALE past it,
// a degraded read under an open breaker, and a shed dispatch — a
// single-key GET and a one-group MGET of the same key must pick the same
// source: the same value or refusal, and the same counters moved.
func TestReadSourceParity(t *testing.T) {
	replicated := func(rc ReplicationConfig, oc OverloadConfig) Config {
		rc.Enabled, rc.ShipEvery = true, 1
		if rc.ProbeThreshold == 0 {
			// Failover only where a case asks for it: a tripped breaker
			// is an overload signal here, not dead-node evidence.
			rc.ProbeThreshold = 1 << 20
		}
		return Config{
			Nodes: 3, Workers: 1, Mode: ModeAuto, Locals: 2, SegSize: 1 << 20,
			Replication: rc, Overload: oc,
		}
	}
	openBreaker := OverloadConfig{Breakers: true, BreakerThreshold: 1, BreakerCooldown: time.Hour}
	tripBreaker := func(t *testing.T, r *Router) { r.nodes[2].breaker.Failure() }

	for _, tc := range []struct {
		name     string
		cfg      Config
		node     int                           // owner of the key read
		setup    func(t *testing.T, r *Router) // after the key is written (and forked, if replicated)
		readonly bool
		write    bool  // a SET must take the same source as the reads
		wantErr  error // nil: the written value is served
		want     routeCounters
	}{
		{
			name: "primary-local",
			cfg:  Config{Nodes: 3, Workers: 1, Mode: ModeAuto, Locals: 2},
			node: 0,
			want: routeCounters{local: 1},
		},
		{
			name: "primary-remote",
			cfg:  Config{Nodes: 3, Workers: 1, Mode: ModeAuto, Locals: 2},
			node: 2,
			want: routeCounters{remote: 1, urpcCalls: 1},
		},
		{
			name: "promoted-standby",
			cfg:  replicated(ReplicationConfig{ProbeThreshold: 3, ProbeInterval: 2 * time.Millisecond}, OverloadConfig{}),
			node: 2,
			setup: func(t *testing.T, r *Router) {
				if err := r.KillNode(2); err != nil {
					t.Fatal(err)
				}
				waitFor(t, "standby promotion", func() bool { return r.nodes[2].promoted.Load() })
			},
			// The standby serves on the VAS fast path, even for a READONLY
			// connection: a promoted node has no follower view.
			readonly: true,
			want:     routeCounters{local: 1},
		},
		{
			name:     "frozen-view",
			cfg:      replicated(ReplicationConfig{FollowerReads: true, StaleBound: time.Hour}, OverloadConfig{}),
			node:     2,
			readonly: true,
			want:     routeCounters{follower: 1},
		},
		{
			name:     "stale",
			cfg:      replicated(ReplicationConfig{FollowerReads: true, StaleBound: time.Nanosecond}, OverloadConfig{}),
			node:     2,
			readonly: true,
			wantErr:  redis.ErrStale,
			want:     routeCounters{stale: 1},
		},
		{
			name:     "degraded-open-breaker",
			cfg:      replicated(ReplicationConfig{StaleBound: time.Hour}, openBreaker),
			node:     2,
			setup:    tripBreaker,
			readonly: true,
			want:     routeCounters{follower: 1, degraded: 1},
		},
		{
			name:    "shed-open-breaker",
			cfg:     replicated(ReplicationConfig{StaleBound: time.Hour}, openBreaker),
			node:    2,
			setup:   tripBreaker,
			write:   true,
			wantErr: redis.ErrShardTimeout,
			want:    routeCounters{shed: 1, nodeTimeouts: 1},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, r, srv := startCluster(t, tc.cfg, nil)
			defer srv.Shutdown()
			obs := m.Observer()
			nc, err := net.Dial("tcp", srv.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			br := bufio.NewReader(nc)

			key := keyOnNode(t, r, tc.node)
			if v, err := send(nc, br, "SET", key, "parity"); err != nil || string(v) != "OK" {
				t.Fatalf("SET: %q %v", v, err)
			}
			if tc.cfg.Replication.Enabled {
				waitForFork(t, r, tc.node)
			}
			if tc.setup != nil {
				tc.setup(t, r)
			}
			if tc.readonly {
				if v, err := send(nc, br, "READONLY"); err != nil || string(v) != "OK" {
					t.Fatalf("READONLY: %q %v", v, err)
				}
			}

			check := func(cmd string, read func() ([]byte, error)) {
				t.Helper()
				before := readRouteCounters(obs, tc.node)
				v, err := read()
				got := readRouteCounters(obs, tc.node).sub(before)
				if tc.wantErr != nil {
					if !errors.Is(err, tc.wantErr) {
						t.Errorf("%s: err = %v, want %v", cmd, err, tc.wantErr)
					}
				} else if err != nil || string(v) != "parity" {
					t.Errorf("%s: %q %v, want %q", cmd, v, err, "parity")
				}
				if got != tc.want {
					t.Errorf("%s moved counters %+v, want %+v", cmd, got, tc.want)
				}
			}
			check("GET", func() ([]byte, error) { return send(nc, br, "GET", key) })
			check("MGET", func() ([]byte, error) {
				if _, err := nc.Write(redis.EncodeCommand("MGET", key)); err != nil {
					t.Fatal(err)
				}
				vals, _, err := redis.ReadArrayReply(br)
				if err != nil {
					return nil, err
				}
				if len(vals) != 1 {
					t.Fatalf("MGET returned %d values", len(vals))
				}
				return vals[0], nil
			})
			if tc.write {
				check("SET", func() ([]byte, error) { return send(nc, br, "SET", key, "parity") })
			}
		})
	}
}
