package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"spacejmp/internal/core"
	"spacejmp/internal/fork"
	"spacejmp/internal/hw"
	"spacejmp/internal/kernel"
	"spacejmp/internal/mem"
	"spacejmp/internal/redis"
	"spacejmp/internal/server"
	"spacejmp/internal/stats"
	"spacejmp/internal/urpc"
)

// The traced run (--trace 1) derives per-layer metrics from three sources,
// all outside the program: deltas of the program's own stats snapshot
// across an untraced pass, the benchmark's spans around calls into each
// layer's public functions, and a CPU profile grouped by package.

// layerMoves names, for each per-layer metric, the end-to-end metric (and
// workload) it should move. The metrics' units and directions live in
// BENCHMARK.json; the traced run fails when the two lists differ.
var layerMoves = map[string]string{
	"core.switch_cycles_per_cmd":         "sim_cycles_per_cmd on vas-getset",
	"core.syscall_cycles_per_cmd":        "sim_cycles_per_cmd on vas-getset",
	"core.switches_per_cmd":              "sim_cycles_per_cmd on vas-getset",
	"tlb.probe_cycles_per_cmd":           "sim_cycles_per_cmd, host_cpu_us_per_cmd on vas-getset; node side on urpc-mget",
	"tlb.hit_rate":                       "sim_cycles_per_cmd, host_cpu_us_per_cmd on vas-getset; node side on urpc-mget",
	"tlb.probes_per_cmd":                 "base of tlb.hit_rate",
	"tlb.flushes_per_cmd":                "sim_cycles_per_cmd, host_cpu_us_per_cmd on vas-getset",
	"tlb.flushed_entries_per_cmd":        "sim_cycles_per_cmd, host_cpu_us_per_cmd on vas-getset",
	"pt.walk_cycles_per_cmd":             "sim_cycles_per_cmd, host_cpu_us_per_cmd on vas-getset; node side on urpc-mget",
	"pt.walks_per_cmd":                   "sim_cycles_per_cmd, host_cpu_us_per_cmd on vas-getset; node side on urpc-mget",
	"mem.data_cycles_per_cmd":            "sim_cycles_per_cmd on all three",
	"mem.nvm_write_cycles_per_cmd":       "sim_cycles_per_cmd on replicated-rw",
	"mem.sim_growth_bytes_per_set":       "none end to end: how many SETs a replicated-rw stack serves before its NVM runs out",
	"urpc.call_cycles_mean":              "sim_cycles_per_cmd, latency_p50_us, throughput_cps on urpc-mget; not vas-getset",
	"urpc.transfer_cycles_per_cmd":       "sim_cycles_per_cmd, latency_p50_us, throughput_cps on urpc-mget; not vas-getset",
	"urpc.retries_per_cmd":               "latency_p99_us on urpc-mget",
	"urpc.call_ns":                       "latency_p50_us, throughput_cps on urpc-mget; not vas-getset",
	"urpc.callbulk_ns_per_kib":           "host_cpu_us_per_cmd, throughput_cps on replicated-rw (ships); not vas-getset",
	"cluster.local_per_cmd":              "latency_p50_us on all three",
	"cluster.remote_per_cmd":             "latency_p50_us on all three",
	"cluster.node_cycles_per_remote_cmd": "latency_p50_us on urpc-mget",
	"cluster.monitor_cycles_per_cmd":     "latency_p99_us, write_p99_us on replicated-rw",
	"cluster.backend_us_p50":             "latency_p50_us on all three",
	"cluster.backend_us_p99":             "latency_p99_us on all three",
	"server.edge_us_per_cmd":             "latency_p50_us on vas-getset",
	"server.queue_depth_mean":            "latency_p99_us on all three",
	"server.busy_frac":                   "latency_p99_us on all three",
	"lock.wait_ns_mean":                  "latency_p99_us on all three",
	"lock.hold_cycles_mean":              "latency_p99_us on all three",
	"redis.parse_ns_per_cmd":             "host_cpu_us_per_cmd on all three, most on urpc-mget",
	"redis.reply_encode_ns_per_cmd":      "host_cpu_us_per_cmd on all three, most on urpc-mget",
	"cluster.ships":                      "host_cpu_us_per_cmd, throughput_cps on replicated-rw; not the other two",
	"cluster.ship_bytes_per_ship":        "host_cpu_us_per_cmd, throughput_cps on replicated-rw",
	"fork.ship_ms_mean":                  "write_p99_us, throughput_cps on replicated-rw",
	"fork.forks":                         "host_cpu_us_per_cmd on replicated-rw",
	"fork.follower_read_frac":            "latency_p50_us, throughput_cps on replicated-rw",
	"fork.stale_rejected":                "ok_frac on replicated-rw",
	"vm.cow_breaks_per_set":              "write_p99_us, host_cpu_us_per_cmd on replicated-rw",
	"vm.faults_per_cmd":                  "host_cpu_us_per_cmd on replicated-rw",
	"fork.fork_us":                       "write_p99_us on replicated-rw",
	"fork.image_ms":                      "host_cpu_us_per_cmd, throughput_cps on replicated-rw",
	"stats.sink_cpu_frac":                "host_cpu_us_per_cmd, throughput_cps on all three",
	"stats.snapshot_us":                  "host_cpu_us_per_cmd when a watcher polls; no e2e run polls",
	"stats.delta_poll_us":                "host_cpu_us_per_cmd when a watcher polls; no e2e run polls",
	"host.tlb_cpu_frac":                  "host_cpu_us_per_cmd on vas-getset",
	"host.mem_cpu_frac":                  "host_cpu_us_per_cmd on urpc-mget",
	"host.hw_cpu_frac":                   "host_cpu_us_per_cmd on vas-getset",
	"host.vm_cpu_frac":                   "host_cpu_us_per_cmd on replicated-rw",
	"host.pt_cpu_frac":                   "host_cpu_us_per_cmd on vas-getset",
	"host.core_cpu_frac":                 "host_cpu_us_per_cmd on vas-getset",
	"host.urpc_cpu_frac":                 "host_cpu_us_per_cmd on urpc-mget",
	"host.cluster_cpu_frac":              "host_cpu_us_per_cmd on replicated-rw",
	"host.fork_cpu_frac":                 "host_cpu_us_per_cmd on replicated-rw",
	"host.server_cpu_frac":               "host_cpu_us_per_cmd on vas-getset",
	"host.redis_cpu_frac":                "host_cpu_us_per_cmd on urpc-mget",
	"host.stats_cpu_frac":                "host_cpu_us_per_cmd on all three",
	"host.mspace_cpu_frac":               "host_cpu_us_per_cmd on urpc-mget",
	"host.gc_cpu_frac":                   "host_cpu_us_per_cmd, latency_p99_us on all three",
	"host.client_cpu_frac":               "none: the benchmark's own client",
	"host.other_cpu_frac":                "host_cpu_us_per_cmd on all three (scheduler, netpoll, syscalls)",
	"trace.overhead_frac":                "none: cost of the traced pass against the untraced one",
}

// span is one benchmark-side timing around a call into a layer. Spans of
// one command share its id (cmd); parent names the span family that caused
// this one, empty for a root. Times are ns since the pass (or replay) began.
type span struct {
	cmd          uint64
	name, parent string
	start, end   int64
}

// maxSpans caps the spans one pass keeps in memory, at 56 MiB; a replay
// keeps a quarter as many. A pass of the benchmark's length records fewer,
// so every command of a traced pass pays for its span.
const maxSpans = 1 << 20

// recordCmds is how many request/reply pairs the traced pass records for
// the RESP parse and encode replays.
const recordCmds = 1 << 14

// recordedOnly keeps the spans of the commands whose requests the traced
// pass recorded, the first recordCmds/conns of each connection, so the
// TCP, backend and RESP replay spans written out cover the same commands.
func recordedOnly(spans []span) []span {
	var out []span
	for _, sp := range spans {
		if sp.cmd&(1<<40-1) <= recordCmds/conns {
			out = append(out, sp)
		}
	}
	return out
}

// traceRounds interleaves the untraced, sink-off and traced passes, so host
// drift during the run falls on all three alike.
const traceRounds = 4

// traced is the --trace 1 run. Each round boots a stats-on stack for an
// untraced pass (snapshot deltas) and a traced pass (spans, recorded wire),
// then a stats-off stack for the same stream. A backend pass straight into
// the router and a profiled pass follow, each on a fresh stats-on stack.
// Stacks are fresh so that none serves SETs long enough to run out of NVM
// (see machineConfig) and none idles long enough for its fork views to age
// past the staleness bound. Last come the single-layer replays.
func traced(w *workload, seed int64, dur time.Duration, want []specMetric) (*result, error) {
	for _, m := range want {
		if _, ok := layerMoves[m.Name]; !ok {
			return nil, fmt.Errorf("per-layer metric %s has no entry in layerMoves", m.Name)
		}
	}
	if len(layerMoves) != len(want) {
		return nil, fmt.Errorf("layerMoves has %d metrics, BENCHMARK.json %d", len(layerMoves), len(want))
	}
	seg := max(dur/(2*traceRounds), time.Second/2)
	lm, err := layerRounds(w, seed, seg)
	if err != nil {
		return nil, err
	}
	if err := lm.backend(w, seed, 2*seg); err != nil {
		return nil, err
	}
	if err := lm.profiled(w, seed, 2*seg); err != nil {
		return nil, err
	}
	if err := replayURPC(w, lm); err != nil {
		return nil, fmt.Errorf("urpc replay: %w", err)
	}
	if err := replayFork(w, lm); err != nil {
		return nil, fmt.Errorf("fork replay: %w", err)
	}
	if err := replayRESP(lm); err != nil {
		return nil, fmt.Errorf("RESP replay: %w", err)
	}
	if err := lm.writeTrace(w, seed); err != nil {
		return nil, err
	}
	ms, err := metricsFor(want, lm.vals)
	if err != nil {
		return nil, err
	}
	for _, m := range want {
		fmt.Printf("# %-34s moves %s\n", m.Name, layerMoves[m.Name])
	}
	p := lm.served
	fmt.Printf("%s seed %d: %d attempted, %d failed %v\n", w.name, seed, p.attempts, p.failed(), outcomeSummary(p))
	return &result{Correct: true, Attempted: p.attempts, Failed: p.failed(), Metrics: ms}, nil
}

// layerRun accumulates one traced run's measurements.
type layerRun struct {
	vals    map[string]float64
	spans   []span
	profile []byte
	wire    [][]byte
	resps   []recorded
	tcp50   float64     // traced TCP p50, ns
	served  *passResult // command counts over every pass
}

func (l *layerRun) set(name string, v float64) { l.vals[name] = v }

// count adds a pass's commands to the run's totals.
func (l *layerRun) count(p *passResult) { l.served.addCounts(p) }

func cpuPerCmd(m *measured) float64 {
	return float64(m.usage.cpu.Nanoseconds()) / 1e3 / float64(m.pass.completed())
}

// per divides, reporting 0 when nothing happened to divide by.
func per(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

// shipQuiet covers one checkpoint ship still extracting and applying its
// image after the node's write buffer drained.
const shipQuiet = 250 * time.Millisecond

// quiesce lets the stack's background replication finish before a measured
// pass, so catch-up ships from the pass before are not billed to its
// commands.
func quiesce(s *stack) error {
	if err := s.settle(); err != nil {
		return err
	}
	if s.w.replicate {
		time.Sleep(shipQuiet)
	}
	return nil
}

// layerRounds runs the traced run's rounds, each pass lasting seg. The
// counter metrics are medians over the rounds' stats-on stacks; the host
// CPU comparisons pair the rounds' passes. The last round's stats-on stack
// also times the stats surface once idle.
func layerRounds(w *workload, seed int64, seg time.Duration) (*layerRun, error) {
	l := &layerRun{vals: map[string]float64{}, served: &passResult{}}
	perRound := map[string][]float64{}
	var cpuOn, cpuOff, cpuTraced []float64
	var tcpLat []int64
	for r := 0; r < traceRounds; r++ {
		on, _, err := setUp(w, seed, true)
		if err != nil {
			return nil, err
		}
		rl, err := l.sinkOnRound(on, seed, r, seg, &cpuOn, &cpuTraced, &tcpLat)
		if err == nil && r == traceRounds-1 {
			err = l.statsCost(on)
		}
		if err = errors.Join(err, on.teardown()); err != nil {
			return nil, err
		}
		for n, v := range rl.vals {
			perRound[n] = append(perRound[n], v)
		}
		off, _, err := setUp(w, seed, false)
		if err != nil {
			return nil, err
		}
		o, err := tcpPass(off, seed, fmt.Sprintf("sinkoff%d", r), passOpts{dur: seg, slices: 1})
		if err = errors.Join(err, off.teardown()); err != nil {
			return nil, fmt.Errorf("sink-off pass: %w", err)
		}
		l.count(o.pass)
		cpuOff = append(cpuOff, cpuPerCmd(o))
	}
	for n, v := range perRound {
		l.set(n, median(v))
	}
	// A refusal in any round shows: this one is the total, not a median.
	var rejected float64
	for _, v := range perRound["fork.stale_rejected"] {
		rejected += v
	}
	l.set("fork.stale_rejected", rejected)
	l.set("stats.sink_cpu_frac", (median(cpuOn)-median(cpuOff))/median(cpuOn))
	l.set("trace.overhead_frac", (median(cpuTraced)-median(cpuOn))/median(cpuOn))
	var err error
	l.tcp50, err = percentile("traced latency", tcpLat, 0.50)
	if err != nil {
		return nil, err
	}
	fmt.Printf("%s seed %d: traced tcp latency samples %d\n", w.name, seed, len(tcpLat))
	return l, nil
}

// sinkOnRound runs one round's untraced and traced passes on the stats-on
// stack and returns the round's counter metrics: the stats delta across
// both passes (spans live in the client only), over every command served.
func (l *layerRun) sinkOnRound(on *stack, seed int64, r int, seg time.Duration, cpuOn, cpuTraced *[]float64, tcpLat *[]int64) (*layerRun, error) {
	all := slices.Concat(on.workerCores, on.nodeCores, on.monCores)
	before := on.sys.Stats()
	nodeC0, monC0 := on.cycles(on.nodeCores), on.cycles(on.monCores)
	sim0 := on.allocated()
	u, err := tcpPass(on, seed, fmt.Sprintf("untraced%d", r), passOpts{dur: seg, slices: 1})
	if err == nil {
		err = quiesce(on)
	}
	if err != nil {
		return nil, err
	}
	// Every traced pass records spans and the wire, so each costs what
	// tracing costs; round 0's are kept. The backend pass replays round
	// 0's stream, so their spans share command ids.
	t, err := tcpPass(on, seed, fmt.Sprintf("traced%d", r),
		passOpts{dur: seg, slices: 1, spans: true, spanPrefix: "tcp.", record: recordCmds})
	if err == nil {
		err = quiesce(on)
	}
	if err != nil {
		return nil, err
	}
	if r == 0 {
		l.wire, l.resps, l.spans = t.pass.wire, t.pass.resps, recordedOnly(t.pass.spans)
	}
	l.count(u.pass)
	l.count(t.pass)
	*cpuOn = append(*cpuOn, cpuPerCmd(u))
	*cpuTraced = append(*cpuTraced, cpuPerCmd(t))
	*tcpLat = append(*tcpLat, t.pass.samples(-1)...)

	served := &passResult{}
	served.addCounts(u.pass)
	served.addCounts(t.pass)
	rl := &layerRun{vals: map[string]float64{}}
	nodeC1, monC1 := on.cycles(on.nodeCores), on.cycles(on.monCores)
	rl.counters(on, on.sys.Stats().Delta(before), served, all, float64(nodeC1-nodeC0), float64(monC1-monC0))
	// Signed: a stack whose simulated memory shrank reports a negative
	// growth rather than a wrapped one.
	growth := float64(int64(on.allocated() - sim0))
	rl.set("mem.sim_growth_bytes_per_set", per(growth, float64(served.ops[opSet])))
	return rl, nil
}

// backend runs round 0's stream again on a fresh stats-on stack, straight
// into Router.Submit/Request.Wait, and compares its latency with the TCP
// passes'.
func (l *layerRun) backend(w *workload, seed int64, d time.Duration) error {
	s, _, err := setUp(w, seed, true)
	if err != nil {
		return err
	}
	dial := func(c int) (transport, error) {
		return newBackendTransport(s.router, uint64(c+1), w.followerReads), nil
	}
	b, err := runPass(w, seed, "backend", dial, passOpts{dur: d, slices: 1, spans: true, spanPrefix: "backend."})
	if err == nil {
		err = b.verdict()
	}
	if err = errors.Join(err, s.teardown()); err != nil {
		return fmt.Errorf("backend pass: %w", err)
	}
	l.count(b)
	l.spans = append(l.spans, recordedOnly(b.spans)...)
	blat := b.samples(-1)
	b50, err := percentile("backend latency", blat, 0.50)
	if err != nil {
		return err
	}
	b99, err := percentile("backend latency", blat, 0.99)
	if err != nil {
		return err
	}
	fmt.Printf("%s seed %d: backend latency samples %d\n", w.name, seed, len(blat))
	l.set("cluster.backend_us_p50", b50/1e3)
	l.set("cluster.backend_us_p99", b99/1e3)
	l.set("server.edge_us_per_cmd", (l.tcp50-b50)/1e3)
	return nil
}

// profiled runs a TCP pass on a fresh stats-on stack under the CPU
// profiler: host CPU by package, and the workers' busy share.
func (l *layerRun) profiled(w *workload, seed int64, d time.Duration) error {
	s, _, err := setUp(w, seed, true)
	if err != nil {
		return err
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return errors.Join(err, s.teardown())
	}
	p, err := tcpPass(s, seed, "profiled", passOpts{dur: d, slices: 1})
	pprof.StopCPUProfile()
	if err = errors.Join(err, s.teardown()); err != nil {
		return err
	}
	l.count(p.pass)
	l.profile = prof.Bytes()
	samples, err := parseProfile(l.profile)
	if err != nil {
		return err
	}
	shares, workerNs := profileShares(samples)
	for _, pkg := range append(slices.Clone(profiledPackages), "gc", "client", "other") {
		l.set("host."+pkg+"_cpu_frac", shares[pkg])
	}
	l.set("server.busy_frac", float64(workerNs)/(p.pass.elapsed.Seconds()*1e9*workers))
	return nil
}

// counters turns one pass's stats delta into per-command layer metrics.
func (l *layerRun) counters(s *stack, d *stats.Snapshot, p *passResult, all []int, nodeCycles, monCycles float64) {
	cmds := float64(p.completed())
	cat := func(cores []int, cats ...string) float64 {
		var n uint64
		for _, id := range cores {
			for _, c := range cats {
				n += d.Cores[id].ByCat[c]
			}
		}
		return float64(n)
	}
	serving := slices.Concat(s.workerCores, s.nodeCores)
	var hits, misses uint64
	for _, id := range serving {
		hits += d.Cores[id].TLBHits
		misses += d.Cores[id].TLBMisses
	}
	l.set("core.switch_cycles_per_cmd", cat(s.workerCores, "switch", "flush")/cmds)
	l.set("core.syscall_cycles_per_cmd", cat(s.workerCores, "syscall")/cmds)
	l.set("core.switches_per_cmd", float64(d.Switches)/cmds)
	l.set("tlb.probe_cycles_per_cmd", cat(serving, "tlb-probe")/cmds)
	l.set("tlb.hit_rate", per(float64(hits), float64(hits+misses)))
	l.set("tlb.probes_per_cmd", float64(hits+misses)/cmds)
	l.set("tlb.flushes_per_cmd", float64(d.TLB.Flushes)/cmds)
	l.set("tlb.flushed_entries_per_cmd", float64(d.TLB.FlushedEntries)/cmds)
	l.set("pt.walk_cycles_per_cmd", cat(serving, "walk")/cmds)
	l.set("pt.walks_per_cmd", float64(d.PT.Walks)/cmds)
	l.set("mem.data_cycles_per_cmd", cat(serving, "data")/cmds)
	l.set("mem.nvm_write_cycles_per_cmd", cat(all, "nvm-write")/cmds)
	l.set("urpc.transfer_cycles_per_cmd", cat(s.workerCores, "other")/cmds)
	l.set("urpc.retries_per_cmd", float64(d.URPCRetries)/cmds)
	l.set("server.queue_depth_mean", d.Server.QueueDepth.Mean())
	l.set("lock.wait_ns_mean", d.LockWaitNs.Mean())
	l.set("lock.hold_cycles_mean", d.LockHoldCycles.Mean())
	l.set("vm.faults_per_cmd", float64(d.VM.Faults)/cmds)
	l.set("vm.cow_breaks_per_set", per(float64(d.VM.COWBreaks), float64(p.ops[opSet])))
	l.set("cluster.monitor_cycles_per_cmd", monCycles/cmds)

	c := d.Cluster
	l.set("urpc.call_cycles_mean", c.URPCCallCycles.Mean())
	l.set("cluster.local_per_cmd", float64(c.Local)/cmds)
	l.set("cluster.remote_per_cmd", float64(c.Remote)/cmds)
	l.set("cluster.node_cycles_per_remote_cmd", per(nodeCycles, float64(c.Remote)))
	var rep stats.ReplicationSnap
	if c.Replication != nil {
		rep = *c.Replication
	}
	var fk stats.ForkSnap
	if c.Fork != nil {
		fk = *c.Fork
	}
	l.set("cluster.ships", float64(rep.Ships))
	l.set("cluster.ship_bytes_per_ship", per(float64(rep.ShipBytes), float64(rep.Ships)))
	l.set("fork.ship_ms_mean", fk.ShipNs.Mean()/1e6)
	l.set("fork.forks", float64(fk.Forks))
	// Per read command; an MGET counts once per node group served from a
	// frozen view.
	l.set("fork.follower_read_frac", per(float64(fk.FollowerReads), float64(p.ops[opGet]+p.ops[opMGet])))
	l.set("fork.stale_rejected", float64(fk.StaleRejected))
}

// statsCost times the observability surface itself on the idle stack: a
// full snapshot, and one /stats/delta round trip through AdminHandler after
// a command has changed the counters.
func (l *layerRun) statsCost(s *stack) error {
	const reps = 30
	var snaps, polls []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		s.sys.Stats()
		snaps = append(snaps, float64(time.Since(t0).Nanoseconds()))
	}
	h := server.AdminHandler(s.sys, s.router, nil)
	poll := func(cursor string) (uint64, error) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats/delta"+cursor, nil))
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("/stats/delta: HTTP %d", rec.Code)
		}
		var body struct {
			Cursor  uint64 `json:"cursor"`
			Changed bool   `json:"changed"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			return 0, err
		}
		if !body.Changed {
			return 0, fmt.Errorf("/stats/delta: counters did not change")
		}
		return body.Cursor, nil
	}
	cur, err := poll("")
	if err != nil {
		return err
	}
	t, err := dialTCP(s.addr(), false)
	if err != nil {
		return err
	}
	defer t.close()
	for i := 0; i < reps; i++ {
		c := &command{op: opGet, keys: s.w.names[i : i+1]}
		if err := t.send([]*command{c}); err != nil {
			return err
		}
		if _, err := t.recv(c); err != nil {
			return err
		}
		t0 := time.Now()
		if cur, err = poll(fmt.Sprintf("?cursor=%d&wait=1s", cur)); err != nil {
			return err
		}
		polls = append(polls, float64(time.Since(t0).Nanoseconds()))
	}
	l.set("stats.snapshot_us", median(snaps)/1e3)
	l.set("stats.delta_poll_us", median(polls)/1e3)
	return nil
}

// timeLoop replays n calls of one layer: once recording a span per call
// (up to the cap) under command id(i) and parent (the call's index and no parent when id is
// nil), then loopReps more times untraced. It returns the median over those
// reps of the mean ns per call.
func (l *layerRun) timeLoop(name, parent string, n int, id func(i int) uint64, fn func(i int) error) (float64, error) {
	const loopReps = 5
	runtime.GC()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		start := time.Since(t0).Nanoseconds()
		if err := fn(i); err != nil {
			return 0, err
		}
		if i < maxSpans/4 {
			sp := span{cmd: uint64(i + 1), name: name, start: start, end: time.Since(t0).Nanoseconds()}
			if id != nil {
				sp.cmd, sp.parent = id(i), parent
			}
			l.spans = append(l.spans, sp)
		}
	}
	var perCall []float64
	for r := 0; r < loopReps; r++ {
		t := time.Now()
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return 0, err
			}
		}
		perCall = append(perCall, float64(time.Since(t).Nanoseconds())/float64(n))
	}
	return median(perCall), nil
}

// timeCall times one call of a layer and records its span.
func (l *layerRun) timeCall(name string, fn func() error) (float64, error) {
	t0 := time.Now()
	err := fn()
	d := time.Since(t0).Nanoseconds()
	l.spans = append(l.spans, span{cmd: uint64(len(l.spans) + 1), name: name, end: d})
	return float64(d), err
}

// replayURPC times urpc.Endpoint.Call with a GET-sized request and a
// value-sized reply, and CallBulk with a 64 KiB reply, on a fresh M1
// between two same-socket cores.
func replayURPC(w *workload, l *layerRun) error {
	m := hw.NewMachine(hw.M1())
	req := redis.EncodeCommand("GET", w.names[1])
	small := redis.EncodeBulk(w.values[1])
	bulk := make([]byte, 64<<10)
	var resp []byte
	ep := urpc.Connect(m, 0, 1, 256, func([]byte) []byte { return resp })
	resp = small
	call, err := l.timeLoop("urpc.call", "", 20000, nil, func(int) error {
		got, err := ep.Call(req)
		if err == nil && !bytes.Equal(got, small) {
			err = errors.New("Call reply corrupted")
		}
		return err
	})
	if err != nil {
		return err
	}
	resp = bulk
	callBulk, err := l.timeLoop("urpc.callbulk", "", 200, nil, func(int) error {
		got, err := ep.CallBulk(req)
		if err == nil && len(got) != len(bulk) {
			err = errors.New("CallBulk reply truncated")
		}
		return err
	})
	if err != nil {
		return err
	}
	if ep.Pending() != 0 {
		return fmt.Errorf("%d frames left in the channels", ep.Pending())
	}
	l.set("urpc.call_ns", call)
	l.set("urpc.callbulk_ns_per_kib", callBulk/64)
	return nil
}

// replayFork times fork.Engine.Fork and Image on one node's share of the
// workload's keyspace, in an NVM-tier store like a replicated primary's,
// with a few writes between forks so each generation has COW work.
func replayFork(w *workload, l *layerRun) error {
	rw := *w
	rw.replicate = true
	m := hw.NewMachine(machineConfig(&rw))
	sys := kernel.New(m)
	base := m.PM.AllocatedBytes()
	proc, err := sys.NewProcess(core.Creds{UID: 1, GID: 1})
	if err != nil {
		return err
	}
	th, err := proc.NewThread()
	if err != nil {
		proc.Exit()
		return err
	}
	names := redis.ShardNames(0)
	c, err := redis.NewClientNamed(th, w.segSize, names, core.WithTier(mem.TierNVM))
	if err != nil {
		proc.Exit()
		return err
	}
	eng := fork.New(sys, nil)
	err = func() error {
		for k := 0; k < w.keys/nodes; k++ {
			if err := c.Set(w.names[k], w.values[k]); err != nil {
				return err
			}
		}
		const reps = 5
		var forks, images []float64
		for r := 0; r < reps; r++ {
			for k := 0; k < 64; k++ {
				if err := c.Set(w.names[r*64+k], w.values[r*64+k]); err != nil {
					return err
				}
			}
			var v *fork.View
			f, err := l.timeCall("fork.fork", func() (err error) {
				v, err = eng.Fork(th, 0, names.Seg)
				return err
			})
			if err != nil {
				return err
			}
			img, err := l.timeCall("fork.image", func() error {
				_, err := eng.Image(v)
				return err
			})
			if err != nil {
				return err
			}
			forks, images = append(forks, f), append(images, img)
		}
		l.set("fork.fork_us", median(forks)/1e3)
		l.set("fork.image_ms", median(images)/1e6)
		return nil
	}()
	err = errors.Join(err, eng.Close(th), c.Close(), redis.DestroyNamed(th, names))
	proc.Exit()
	if err != nil {
		return err
	}
	return m.PM.CheckLeaks(base)
}

// replayRESP times redis.ReadCommand over the traced pass's recorded
// request bytes, and the reply encoders over its recorded replies. Each
// replayed call's span carries the recorded command's id, under its TCP
// span.
func replayRESP(l *layerRun) error {
	var buf bytes.Buffer
	for _, b := range l.wire {
		buf.Write(b)
	}
	wire := buf.Bytes()
	n := len(l.wire)
	var br *bufio.Reader
	id := func(i int) uint64 { return l.resps[i].id }
	parse, err := l.timeLoop("redis.parse", "tcp", n, id, func(i int) error {
		if i == 0 {
			br = bufio.NewReader(bytes.NewReader(wire))
		}
		_, err := redis.ReadCommand(br)
		return err
	})
	if err != nil {
		return err
	}
	encode, err := l.timeLoop("redis.encode", "tcp", n, id, func(i int) error {
		r := l.resps[i]
		switch {
		case r.op == opMGet:
			redis.EncodeArray(r.r.vals)
		case r.op == opSet:
			redis.EncodeSimple("OK")
		default:
			redis.EncodeBulk(r.r.val)
		}
		return nil
	})
	l.set("redis.parse_ns_per_cmd", parse)
	l.set("redis.reply_encode_ns_per_cmd", encode)
	return err
}

// writeTrace writes the spans and the CPU profile once, at the end, under
// .bench_build/trace in the working directory.
func (l *layerRun) writeTrace(w *workload, seed int64) error {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d", w.name, seed))
	f, err := os.Create(stem + ".spans.jsonl")
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, s := range l.spans {
		fmt.Fprintf(bw, `{"cmd":%d,"name":%q,"parent":%q,"start_ns":%d,"end_ns":%d}`+"\n", s.cmd, s.name, s.parent, s.start, s.end)
	}
	err = errors.Join(bw.Flush(), f.Close())
	if err != nil {
		return err
	}
	return os.WriteFile(stem+".cpu.pprof", l.profile, 0o644)
}
