package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"

	"spacejmp/internal/cluster"
	"spacejmp/internal/core"
	"spacejmp/internal/hw"
	"spacejmp/internal/kernel"
	"spacejmp/internal/redis"
	"spacejmp/internal/server"
)

// traceRing is the trace-ring capacity spacejmp-server enables by default;
// the stats sink runs exactly as the server ships it.
const traceRing = 4096

// staleBound is the oldest frozen view a follower read may be served from:
// the cluster's default, set explicitly because the verifier checks it.
const staleBound = 500 * time.Millisecond

// stack is one booted serving stack: simulated machine, kernel, cluster
// router and RESP server, all in this process.
type stack struct {
	w      *workload
	m      *hw.Machine
	sys    *core.System
	router *cluster.Router
	srv    *server.Server
	base   uint64 // simulated bytes allocated before the cluster booted
	filled uint64 // simulated bytes beyond base once prefilled and settled

	workerCores []int // router worker cores: the Figure 7 serving cores
	nodeCores   []int // remote node cores
	monCores    []int // health-monitor core (replicated clusters)
}

// machineConfig is M1, plus the NVM spacejmp-server gives replicated
// clusters: replication rides NVM checkpoint generations. Under sustained
// writes the replicated stores' NVM use grows until teardown (the traced
// run's mem.sim_growth_bytes_per_set), so a stack that serves SETs long
// enough fails them with "out of nvm memory", and the run with it.
func machineConfig(w *workload) hw.MachineConfig {
	cfg := hw.M1()
	if w.replicate {
		cfg.Mem.NVMSize = 256 << 20
		cfg.Mem.NVMSuperblock = 64 << 20
	}
	return cfg
}

// boot builds the stack for w. With sink false the stats sink stays off,
// which is the only difference from a production boot.
func boot(w *workload, sink bool) (*stack, error) {
	cfg := machineConfig(w)
	m := hw.NewMachine(cfg)
	sys := kernel.New(m)
	if sink {
		sys.EnableStats(traceRing)
	}
	s := &stack{w: w, m: m, sys: sys, base: m.PM.AllocatedBytes()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.router, err = cluster.New(sys, cluster.Config{
		Nodes:   nodes,
		Workers: workers,
		Mode:    w.mode,
		Locals:  w.locals,
		SegSize: w.segSize,
		Replication: cluster.ReplicationConfig{
			Enabled:       w.replicate,
			FollowerReads: w.followerReads,
			ShipEvery:     w.shipEvery,
			StaleBound:    staleBound,
		},
	})
	if err != nil {
		ln.Close()
		return nil, err
	}
	s.srv = server.NewWithBackend(sys, ln, server.Config{
		Shards:         workers,
		CyclesPerMilli: uint64(cfg.GHz * 1e6),
	}, s.router)
	// Cores are claimed lowest-free first: the workers take 0..workers-1,
	// then each remote node one core, then the monitor.
	claimed := workers
	for i := 0; i < workers; i++ {
		s.workerCores = append(s.workerCores, i)
	}
	for _, n := range s.router.Topology() {
		if !n.Local {
			if n.Core < workers {
				s.srv.Shutdown()
				return nil, fmt.Errorf("node %d landed on worker core %d", n.ID, n.Core)
			}
			s.nodeCores = append(s.nodeCores, n.Core)
			claimed++
		}
	}
	if w.replicate && len(s.nodeCores) > 0 {
		s.monCores = []int{claimed}
	}
	return s, nil
}

func (s *stack) addr() string { return s.srv.Addr().String() }

// cycles sums the simulated cycle counters of the given cores. Only called
// while no command is in flight, so the per-core counters are quiescent.
func (s *stack) cycles(ids []int) uint64 {
	var n uint64
	for _, id := range ids {
		n += s.m.Cores[id].Cycles()
	}
	return n
}

// prefill SETs every key of the workload's keyspace over two pipelined
// connections, checking each +OK, then waits until replicated nodes have
// shipped every buffered write, so no catch-up ship runs into the timed
// window.
func (s *stack) prefill() error {
	errs := make(chan error, conns)
	for c := 0; c < conns; c++ {
		go func(c int) {
			errs <- s.prefillRange(c*s.w.keys/conns, (c+1)*s.w.keys/conns)
		}(c)
	}
	var err error
	for c := 0; c < conns; c++ {
		err = errors.Join(err, <-errs)
	}
	if err != nil {
		return err
	}
	return s.settle()
}

// settle waits until every replicated node has shipped its buffered writes,
// so the standbys hold everything acknowledged so far.
func (s *stack) settle() error {
	if !s.w.replicate {
		return nil
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		settled := true
		for _, h := range s.router.Health() {
			if h.Replicated && h.DeltaBuffered > 0 {
				settled = false
			}
			if h.Degraded || h.LostUpdates > 0 {
				return fmt.Errorf("node %d degraded (%s, lost %d)", h.Node, h.State, h.LostUpdates)
			}
		}
		if settled {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replicated nodes still buffering writes after 20s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (s *stack) prefillRange(lo, hi int) error {
	nc, err := net.Dial("tcp", s.addr())
	if err != nil {
		return err
	}
	defer nc.Close()
	br, bw := bufio.NewReader(nc), bufio.NewWriter(nc)
	const batch = 64
	for k := lo; k < hi; k += batch {
		n := min(batch, hi-k)
		for i := 0; i < n; i++ {
			bw.Write(redis.EncodeCommand("SET", s.w.names[k+i], string(s.w.values[k+i])))
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			val, _, err := redis.ReadReply(br)
			if err != nil {
				return fmt.Errorf("prefill SET %s: %w", keyName(k+i), err)
			}
			if string(val) != "OK" {
				return fmt.Errorf("prefill SET %s: reply %q", keyName(k+i), val)
			}
		}
	}
	return nil
}

// allocated is the simulated memory the stack holds beyond its pre-boot
// baseline.
func (s *stack) allocated() uint64 { return s.m.PM.AllocatedBytes() - s.base }

// teardown shuts the stack down and runs the per-run correctness checks: a
// clean Shutdown, no urpc frame left in any channel, and every simulated
// frame reclaimed. A run that fails any of them is not a measurement.
func (s *stack) teardown() error {
	if err := s.srv.Shutdown(); err != nil {
		return fmt.Errorf("teardown: Shutdown: %w", err)
	}
	if n := s.router.PendingFrames(); n != 0 {
		return fmt.Errorf("teardown: %d urpc frames pending after drain", n)
	}
	if err := s.m.PM.CheckLeaks(s.base); err != nil {
		return fmt.Errorf("teardown: %w", err)
	}
	return nil
}

// bootAndFill runs one full set-up: boot plus prefill, timed up to the
// point the first measured command may be sent.
func bootAndFill(w *workload, sink bool) (*stack, time.Duration, error) {
	start := time.Now()
	s, err := boot(w, sink)
	if err != nil {
		return nil, 0, fmt.Errorf("boot: %w", err)
	}
	if err := s.prefill(); err != nil {
		return nil, 0, errors.Join(err, s.teardown())
	}
	return s, time.Since(start), nil
}
