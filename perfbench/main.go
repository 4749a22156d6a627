// Command perfbench is the serving benchmark: it boots the simulated M1
// machine, the kernel, a 3-node cluster.Router and the RESP server in one
// process, drives the stack over loopback TCP with its own verifying
// closed-loop client, and prints the end-to-end metrics (--trace 0) or the
// per-layer metrics of a separate traced run (--trace 1). The last line of
// standard output is one JSON object; anything else goes before it. The
// metric names and units come from BENCHMARK.json in the working directory.
//
// Usage:
//
//	perfbench --workload vas-getset|urpc-mget|replicated-rw --seed n --seconds s --trace 0|1
//
// run.sh builds it from source and runs it from the repository root.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"

	"spacejmp/internal/cluster"
	"spacejmp/internal/mem"
)

// The fixed serving shape every workload shares.
const (
	nodes   = 3
	workers = 2
	conns   = 2
	depth   = 16
	// stacks is how many fresh stacks a --trace 0 run boots, prefills and
	// measures in turn, each for a third of the window: set-up is timed
	// several times (setup_s is the median), and host drift and the
	// replicated stores' growth with age (see machineConfig) average over
	// three independent stacks.
	stacks = 3
	// warmup runs the mix unmeasured after set-up, so the Go heap and the
	// simulated TLBs reach their steady state before timing.
	warmup = time.Second
	// slicesPerStack splits each stack's window; throughput is the median
	// slice rate and each latency percentile the median of the slices'.
	slicesPerStack = 8
)

// workload is one traffic mix over one cluster configuration.
type workload struct {
	name      string
	mode      cluster.Mode
	locals    int
	replicate bool
	probes    bool // versioned staleness probes in the mix
	// followerReads opts every connection into follower reads (READONLY):
	// GET/MGET on replicated remote nodes are served from frozen fork views
	// up to staleBound old.
	followerReads bool
	setPct        int
	mgetPct       int
	mgetKeys      int
	keys          int
	valueSize     int
	segSize       uint64
	shipEvery     int // buffered writes per node that trigger a ship; 0: the cluster default

	names  []string // key names, by index
	values [][]byte // server.ValueFor of each key
}

var workloads = []*workload{
	{
		// §5.3's fast path: every command switches into a co-resident
		// store on the worker core; urpc, node cores and the monitor idle.
		name: "vas-getset", mode: cluster.ModeVAS,
		setPct: 10, keys: 16384, valueSize: 64, segSize: 8 << 20,
	},
	{
		// Figure 7's messaging side: every command crosses urpc, MGETs fan
		// out per node, and each node's ~12 MiB of stored data is twice
		// its core's 6 MiB TLB reach (1536 entries × 4 KiB).
		name: "urpc-mget", mode: cluster.ModeURPC,
		setPct: 20, mgetPct: 30, mgetKeys: 4, keys: 65536, valueSize: 512, segSize: 32 << 20,
	},
	{
		// Writes and reads share the replicated stores: SETs break COW
		// pages under the frozen views ships fork and trigger ships on the
		// monitor core, while GETs on the remote nodes are follower reads
		// from those views; versioned probes check the staleness bound.
		// Segments are sized to the data (about 1 MiB per node): every
		// ship copies the whole segment, and with the 8 MiB default the
		// back-to-back ships took a vCPU of a 2-vCPU host and throughput
		// varied 27-42% between runs. A node ships after 512 buffered
		// writes rather than 128: with 128 each node shipped back to back
		// and the p99 spread between runs reached 28-44%. 512 leaves the
		// 1024-entry write buffer room for the writes that land while a
		// ship waits its turn on the monitor.
		name: "replicated-rw", mode: cluster.ModeAuto, locals: 1,
		replicate: true, probes: true, followerReads: true,
		setPct: 50, mgetPct: 10, mgetKeys: 4, keys: 16384, valueSize: 64, segSize: 2 << 20,
		shipEvery: 512,
	},
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds per pass")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()
	var w *workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workloads: vas-getset, urpc-mget, replicated-rw; --trace 0|1)\n")
		os.Exit(2)
	}
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	w.fill()
	dur := time.Duration(*seconds) * time.Second
	var res *result
	if *trace == 0 {
		res, err = endToEnd(w, *seed, dur, sp.EndToEnd)
	} else {
		res, err = traced(w, *seed, dur, sp.PerLayer)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// spec is the part of BENCHMARK.json the benchmark reads: the metrics
// each kind of run reports, with their units.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec() (*spec, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &sp, nil
}

// metricsFor pairs the measured values with the metrics BENCHMARK.json
// lists, failing when either side has one the other lacks.
func metricsFor(want []specMetric, vals map[string]float64) (map[string]metric, error) {
	out := map[string]metric{}
	for _, m := range want {
		v, ok := vals[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s in BENCHMARK.json was not measured", m.Name)
		}
		out[m.Name] = metric{v, m.Unit}
	}
	for n := range vals {
		if _, ok := out[n]; !ok {
			return nil, fmt.Errorf("measured metric %s is not in BENCHMARK.json", n)
		}
	}
	return out, nil
}

// hostUsage is the process's resource use at one instant.
type hostUsage struct {
	cpu     time.Duration // user + system
	mallocs uint64
	bytes   uint64
}

func readUsage() hostUsage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostUsage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
	}
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// measured is one timed TCP pass with its host and simulated costs.
type measured struct {
	pass   *passResult
	usage  hostUsage // delta across the pass
	worker uint64    // worker-core cycles across the pass
}

// tcpPass runs one timed pass over TCP with the given options.
func tcpPass(s *stack, seed int64, pass string, o passOpts) (*measured, error) {
	dial := func(int) (transport, error) { return dialTCP(s.addr(), s.w.followerReads) }
	c0, u0 := s.cycles(s.workerCores), readUsage()
	p, err := runPass(s.w, seed, pass, dial, o)
	u1, c1 := readUsage(), s.cycles(s.workerCores)
	if err != nil {
		return nil, err
	}
	if err := p.verdict(); err != nil {
		return nil, err
	}
	return &measured{pass: p, worker: c1 - c0, usage: hostUsage{
		cpu: u1.cpu - u0.cpu, mallocs: u1.mallocs - u0.mallocs, bytes: u1.bytes - u0.bytes,
	}}, nil
}

// setUp boots and prefills one stack, takes its simulated memory, and
// warms it up. It starts and ends with a collection, so neither an earlier
// stack's garbage nor the warm-up's is collected inside a timed window.
func setUp(w *workload, seed int64, sink bool) (*stack, time.Duration, error) {
	runtime.GC()
	s, d, err := bootAndFill(w, sink)
	if err != nil {
		return nil, 0, err
	}
	s.filled = s.allocated()
	if _, err := tcpPass(s, seed, "warmup", passOpts{dur: warmup, slices: 1}); err != nil {
		return nil, 0, fmt.Errorf("warm-up: %w", errors.Join(err, s.teardown()))
	}
	runtime.GC()
	return s, d, nil
}

// endToEnd is the --trace 0 run: on each of `stacks` fresh stacks, set up,
// measure a third of the window over TCP, and tear down with the
// correctness checks; then the twelve end-to-end metrics over all of it.
func endToEnd(w *workload, seed int64, dur time.Duration, want []specMetric) (*result, error) {
	sub := dur / stacks
	p := &passResult{}
	var usage hostUsage
	var worker uint64
	var setupS, simMem []float64
	nvmFree := uint64(math.MaxUint64)
	for i := 0; i < stacks; i++ {
		s, d, err := setUp(w, seed, true)
		if err != nil {
			return nil, err
		}
		m, err := tcpPass(s, seed*stacks+int64(i), fmt.Sprintf("e2e%d", i), passOpts{dur: sub, slices: slicesPerStack})
		nvmFree = min(nvmFree, s.m.PM.FreeBytes(mem.TierNVM))
		if err = errors.Join(err, s.teardown()); err != nil {
			return nil, err
		}
		p.then(m.pass)
		usage.cpu += m.usage.cpu
		usage.mallocs += m.usage.mallocs
		usage.bytes += m.usage.bytes
		worker += m.worker
		setupS = append(setupS, d.Seconds())
		simMem = append(simMem, float64(s.filled))
	}
	rss := peakRSSMiB()
	done := float64(p.completed())
	p50, err := slicedPercentile("latency", p, 0.50)
	if err != nil {
		return nil, err
	}
	p99, err := slicedPercentile("latency", p, 0.99)
	if err != nil {
		return nil, err
	}
	w99, err := slicedPercentile("write latency", p, 0.99, opSet)
	if err != nil {
		return nil, err
	}
	fmt.Printf("%s seed %d: %d attempted, %d failed %v; samples: all %d, set %d, in %d slices; %.0f simulated MiB after set-up\n",
		w.name, seed, p.attempts, p.failed(), outcomeSummary(p), len(p.samples(-1)), len(p.samples(-1, opSet)), len(p.lat), median(simMem)/(1<<20))
	if w.replicate {
		fmt.Printf("%s seed %d: least NVM left at the end of a window: %.0f MiB\n", w.name, seed, float64(nvmFree)/(1<<20))
	}
	ms, err := metricsFor(want, map[string]float64{
		"throughput_cps":              sliceRate(p, sub/slicesPerStack),
		"latency_p50_us":              p50 / 1e3,
		"latency_p99_us":              p99 / 1e3,
		"write_p99_us":                w99 / 1e3,
		"host_cpu_us_per_cmd":         float64(usage.cpu.Nanoseconds()) / 1e3 / done,
		"sim_cycles_per_cmd":          float64(worker) / done,
		"allocs_per_cmd":              float64(usage.mallocs) / done,
		"alloc_bytes_per_cmd":         float64(usage.bytes) / done,
		"peak_rss_mb":                 rss,
		"sim_mem_bytes_per_user_byte": median(simMem) / float64(w.keys*w.valueSize),
		"ok_frac":                     done / float64(p.attempts),
		"setup_s":                     median(setupS),
	})
	if err != nil {
		return nil, err
	}
	return &result{Correct: true, Attempted: p.attempts, Failed: p.failed(), Metrics: ms}, nil
}

func outcomeSummary(p *passResult) map[string]uint64 {
	out := map[string]uint64{}
	for i, n := range p.outcomes {
		if n > 0 && outcome(i) != outOK {
			out[outcomeNames[i]] = n
		}
	}
	return out
}

// sliceRate is the median completion rate over the pass's slices, each
// slice lasting slice.
func sliceRate(p *passResult, slice time.Duration) float64 {
	rates := make([]float64, len(p.done))
	for i, n := range p.done {
		rates[i] = float64(n) / slice.Seconds()
	}
	return median(rates)
}

// slicedPercentile is the median over the pass's slices of each slice's
// q-quantile of the given operations' latencies.
func slicedPercentile(what string, p *passResult, q float64, ops ...opKind) (float64, error) {
	var per []float64
	for k := range p.lat {
		v, err := percentile(what, p.samples(k, ops...), q)
		if err != nil {
			return 0, err
		}
		per = append(per, v)
	}
	return median(per), nil
}

// percentile is the nearest-rank q-quantile of samples, in their unit; it
// sorts samples in place. It refuses a quantile with fewer than ten samples
// beyond it.
func percentile(what string, samples []int64, q float64) (float64, error) {
	n := len(samples)
	rank := int(math.Ceil(q*float64(n))) - 1
	if n == 0 || n-1-rank < 10 {
		return 0, fmt.Errorf("%s p%g: %d samples leave fewer than ten beyond it", what, q*100, n)
	}
	slices.Sort(samples)
	return float64(samples[max(rank, 0)]), nil
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
