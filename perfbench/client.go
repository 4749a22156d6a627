package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"spacejmp/internal/cluster"
	"spacejmp/internal/redis"
	"spacejmp/internal/server"
)

// The benchmark's own closed-loop client: conns connections, each keeping
// depth commands in flight. A writer goroutine sends a new command whenever
// the reader has consumed a reply, so the pipeline stays full; every
// command is timed from when it was written. Replies are verified against
// server.ValueFor and, for versioned probes, the staleness bound. The same
// command stream can be driven over TCP or straight into the router
// (Submit/Wait).

type opKind uint8

const (
	opGet opKind = iota
	opSet
	opMGet
	numOps
)

var opNames = [numOps]string{"get", "set", "mget"}

var verbs = [numOps]string{"GET", "SET", "MGET"}

// command is one generated request. Probe commands are ordinary GET/SET on
// the connection's probe key, flagged so the verifier checks versions
// instead of the keyspace's fixed values. Keys and values point into the
// workload's tables, so generating a command allocates little.
type command struct {
	id    uint64 // conn<<40 | sequence: shared by every pass that replays the stream
	op    opKind
	probe bool
	seq   uint64   // probe SET version
	keys  []string // one key, or the MGET keys
	idx   []int    // the keys' keyspace indices; nil for a probe
	val   []byte   // SET value
	one   [1]string
	oneIx [1]int
	start time.Time
}

// args is the command as RESP arguments, for the paths that need them
// (the backend transport and the request recording).
func (c *command) args() []string {
	out := append([]string{verbs[c.op]}, c.keys...)
	if c.op == opSet {
		out = append(out, string(c.val))
	}
	return out
}

// appendCommand appends the command's RESP encoding, byte for byte what
// redis.EncodeCommand(c.args()...) gives, without building the arguments.
func appendCommand(b []byte, c *command) []byte {
	n := 1 + len(c.keys)
	if c.op == opSet {
		n++
	}
	b = strconv.AppendInt(append(b, '*'), int64(n), 10)
	b = appendBulk(append(b, "\r\n"...), verbs[c.op])
	for _, k := range c.keys {
		b = appendBulk(b, k)
	}
	if c.op == opSet {
		b = appendBulk(b, c.val)
	}
	return b
}

func appendBulk[T string | []byte](b []byte, v T) []byte {
	b = strconv.AppendInt(append(b, '$'), int64(len(v)), 10)
	b = append(append(b, "\r\n"...), v...)
	return append(b, "\r\n"...)
}

// generator draws one connection's command stream from the seed alone.
type generator struct {
	w          *workload
	rng        *rand.Rand
	conn       uint64
	n          uint64
	probeKey   string
	probeSeq   uint64
	probeWrite bool
}

func newGenerator(w *workload, seed int64, conn int, pass string) *generator {
	return &generator{
		w:          w,
		rng:        rand.New(rand.NewSource(seed*1000003 + int64(conn))),
		conn:       uint64(conn),
		probeKey:   fmt.Sprintf("probe.%s.c%d", pass, conn),
		probeWrite: true,
	}
}

// probeEvery is the probe cadence: every 8th command on a probed workload
// is a probe, alternating SET and GET.
const probeEvery = 8

func (g *generator) next() *command {
	g.n++
	c := &command{id: g.conn<<40 | g.n}
	c.keys = c.one[:]
	w := g.w
	single := func(op opKind) {
		i := g.rng.Intn(w.keys)
		c.op, c.one[0], c.oneIx[0] = op, w.names[i], i
		c.idx = c.oneIx[:]
	}
	switch draw := g.rng.Intn(100); {
	case w.probes && g.n%probeEvery == 0:
		c.probe = true
		c.one[0] = g.probeKey
		if g.probeWrite {
			g.probeSeq++
			c.op, c.seq = opSet, g.probeSeq
			c.val = server.StaleProbeValue(g.probeSeq, w.valueSize)
		} else {
			c.op = opGet
		}
		g.probeWrite = !g.probeWrite
	case draw < w.setPct:
		single(opSet)
		c.val = w.values[c.idx[0]]
	case draw < w.setPct+w.mgetPct:
		c.op = opMGet
		c.keys, c.idx = make([]string, w.mgetKeys), make([]int, w.mgetKeys)
		for j := range c.keys {
			i := g.rng.Intn(w.keys)
			c.keys[j], c.idx[j] = w.names[i], i
		}
	default:
		single(opGet)
	}
	return c
}

func keyName(i int) string { return fmt.Sprintf("k%06d", i) }

// fill builds the workload's key names and their values, once per process:
// the client then neither formats keys nor rebuilds server.ValueFor per
// command.
func (w *workload) fill() {
	w.names = make([]string, w.keys)
	w.values = make([][]byte, w.keys)
	for i := range w.names {
		w.names[i] = keyName(i)
		w.values[i] = server.ValueFor(w.names[i], w.valueSize)
	}
}

// reply is one decoded answer: a bulk/simple value, a nil, an array, or an
// error reply.
type reply struct {
	val  []byte
	nil_ bool
	vals [][]byte
	nils []bool
	err  error // redis.ReplyError for error replies
}

// outcome classifies a verified reply. Everything but outOK counts against
// failed_frac; outMismatch and outStale fail the run outright.
type outcome uint8

const (
	outOK outcome = iota
	outMissing
	outMismatch
	outStale
	outStaleRefused
	outRefused
	outError
	outTransport
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"ok", "missing", "mismatch", "stale_read", "stale_refused", "refused", "error_reply", "transport"}

// verifier holds one connection's probe state. The connection is its probe
// key's only writer, so acknowledged versions order what any view of the
// key may serve. A follower read may come from a frozen view up to
// staleBound old; such a view holds every write acknowledged before the
// read was sent minus the bound. So a probe GET must return at least the
// newest version acknowledged that long before it was sent; anything older
// is a stale read. Without follower reads the bound is 0: read-your-writes.
type verifier struct {
	w       *workload
	bound   time.Duration
	commits []probeCommit // acknowledged versions, oldest first
	floor   uint64        // newest version every allowed view holds
}

type probeCommit struct {
	seq uint64
	at  time.Time // when the acknowledgement was read: never early
}

func (v *verifier) check(c *command, r reply) outcome {
	if r.err != nil {
		var re redis.ReplyError
		switch {
		case errors.Is(r.err, redis.ErrStale):
			return outStaleRefused
		case errors.As(r.err, &re) && redis.IsRetryableReply(re):
			return outRefused
		}
		return outError
	}
	if c.probe {
		if c.op == opSet {
			v.commits = append(v.commits, probeCommit{c.seq, time.Now()})
			return outOK
		}
		for len(v.commits) > 0 && v.commits[0].at.Before(c.start.Add(-v.bound)) {
			v.floor = max(v.floor, v.commits[0].seq)
			v.commits = v.commits[1:]
		}
		if r.nil_ {
			if v.floor > 0 {
				return outStale
			}
			return outOK
		}
		seq, ok := server.ParseStaleProbe(r.val)
		switch {
		case !ok:
			return outMismatch
		case seq < v.floor:
			return outStale
		}
		return outOK
	}
	switch c.op {
	case opSet:
		if string(r.val) != "OK" {
			return outMismatch
		}
	case opGet:
		if r.nil_ {
			return outMissing
		}
		if !bytes.Equal(r.val, v.w.values[c.idx[0]]) {
			return outMismatch
		}
	case opMGet:
		if len(r.vals) != len(c.keys) {
			return outMismatch
		}
		missing := false
		for i, k := range c.idx {
			if r.nils[i] {
				missing = true
			} else if !bytes.Equal(r.vals[i], v.w.values[k]) {
				return outMismatch
			}
		}
		if missing {
			return outMissing
		}
	}
	return outOK
}

// transport moves commands to the stack and replies back, in order.
type transport interface {
	send(cs []*command) error
	recv(c *command) (reply, error) // error: the transport itself failed
	close()
}

// tcpTransport is one RESP connection.
type tcpTransport struct {
	nc   net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	buf  []byte
	once sync.Once
}

// dialTCP opens a connection, opting it into follower reads with READONLY
// when asked.
func dialTCP(addr string, readonly bool) (*tcpTransport, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	t := &tcpTransport{nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}
	if readonly {
		t.bw.Write(redis.EncodeCommand("READONLY"))
		err := t.bw.Flush()
		var val []byte
		if err == nil {
			val, _, err = redis.ReadReply(t.br)
		}
		if err == nil && string(val) != "OK" {
			err = fmt.Errorf("READONLY: reply %q", val)
		}
		if err != nil {
			nc.Close()
			return nil, err
		}
	}
	return t, nil
}

func (t *tcpTransport) send(cs []*command) error {
	for _, c := range cs {
		t.buf = appendCommand(t.buf[:0], c)
		c.start = time.Now()
		t.bw.Write(t.buf)
	}
	return t.bw.Flush()
}

func (t *tcpTransport) recv(c *command) (reply, error) {
	var r reply
	var err error
	if c.op == opMGet {
		r.vals, r.nils, err = redis.ReadArrayReply(t.br)
	} else {
		r.val, r.nil_, err = redis.ReadReply(t.br)
	}
	return splitReplyErr(r, err)
}

// splitReplyErr keeps error replies in the reply and returns only transport
// failures as errors.
func splitReplyErr(r reply, err error) (reply, error) {
	var re redis.ReplyError
	if errors.As(err, &re) {
		r.err = err
		return r, nil
	}
	return r, err
}

// close says goodbye with QUIT; on a broken connection the deadline bounds
// the wait for the +OK.
func (t *tcpTransport) close() {
	t.once.Do(func() {
		t.nc.SetDeadline(time.Now().Add(time.Second))
		if _, err := t.nc.Write(redis.EncodeCommand("QUIT")); err == nil {
			redis.ReadReply(t.br)
		}
		t.nc.Close()
	})
}

// backendTransport submits straight into the router, bypassing TCP and the
// RESP edge, with the same connection striping the server uses.
type backendTransport struct {
	router   *cluster.Router
	connID   uint64
	readonly bool
	mu       sync.Mutex
	reqs     map[*command]*server.Request
}

func newBackendTransport(r *cluster.Router, connID uint64, readonly bool) *backendTransport {
	r.Bind(connID)
	return &backendTransport{router: r, connID: connID, readonly: readonly, reqs: map[*command]*server.Request{}}
}

func (t *backendTransport) send(cs []*command) error {
	for _, c := range cs {
		req := server.NewRequest(c.args())
		req.Readonly = t.readonly
		c.start = req.Start
		if !t.router.Submit(t.connID, req) {
			req.Finish(redis.EncodeBusy("server busy: worker queue full, retry"))
		}
		t.mu.Lock()
		t.reqs[c] = req
		t.mu.Unlock()
	}
	return nil
}

func (t *backendTransport) recv(c *command) (reply, error) {
	t.mu.Lock()
	req := t.reqs[c]
	delete(t.reqs, c)
	t.mu.Unlock()
	wire := req.Wait()
	var r reply
	var err error
	if c.op == opMGet {
		r.vals, r.nils, err = redis.DecodeArrayReply(wire)
	} else {
		r.val, r.nil_, err = redis.DecodeReply(wire)
	}
	return splitReplyErr(r, err)
}

func (t *backendTransport) close() {}

// passResult is what one closed-loop pass measured. The window is cut into
// equal slices; lat and done are indexed by the slice a command completed
// in (the drain after the window counts toward the last slice's latencies
// but not its completions).
type passResult struct {
	elapsed  time.Duration
	lat      [][numOps][]int64 // per-command latency, ns, by slice and operation
	done     []uint64          // completions within each slice
	outcomes [numOutcomes]uint64
	attempts uint64
	ops      [numOps]uint64 // attempts by operation
	spans    []span
	wire     [][]byte   // recorded request bytes (when recording)
	resps    []recorded // recorded replies (when recording)
}

type recorded struct {
	id uint64
	op opKind
	r  reply
}

// passOpts tunes one pass beyond its transport.
type passOpts struct {
	dur        time.Duration
	slices     int
	spans      bool   // record a span per command
	spanPrefix string // span name prefix, e.g. "tcp."
	record     int    // record up to this many request/reply pairs
}

func newPassResult(slices int) *passResult {
	return &passResult{lat: make([][numOps][]int64, slices), done: make([]uint64, slices)}
}

// runPass drives conns transports for opts.dur and drains the pipelines.
func runPass(w *workload, seed int64, pass string, dial func(conn int) (transport, error), o passOpts) (*passResult, error) {
	res := newPassResult(o.slices)
	var mu sync.Mutex
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make([]error, conns)
	ts := make([]transport, conns)
	for c := range ts {
		t, err := dial(c)
		if err != nil {
			for _, prev := range ts[:c] {
				prev.close()
			}
			return nil, fmt.Errorf("dial conn %d: %w", c, err)
		}
		ts[c] = t
	}
	start := time.Now()
	sliceDur := o.dur / time.Duration(o.slices)
	timer := time.AfterFunc(o.dur, func() { stop.Store(true) })
	defer timer.Stop()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			local := newPassResult(o.slices)
			errs[c] = drive(w, newGenerator(w, seed, c, pass), ts[c], &stop, start, sliceDur, local, o)
			mu.Lock()
			defer mu.Unlock()
			res.merge(local)
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	for _, t := range ts {
		t.close()
	}
	return res, errors.Join(errs...)
}

// drive runs one connection: the writer keeps depth commands in flight, the
// reader verifies replies in order and hands a slot back per reply.
func drive(w *workload, g *generator, t transport, stop *atomic.Bool, start time.Time, sliceDur time.Duration, res *passResult, o passOpts) error {
	inflight := make(chan *command, depth)
	slots := make(chan struct{}, depth)
	for i := 0; i < depth; i++ {
		slots <- struct{}{}
	}
	var writeErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer close(inflight)
		batch := make([]*command, 0, depth)
		for !stop.Load() {
			<-slots
			batch = append(batch[:0], g.next())
		more:
			for len(batch) < depth {
				select {
				case <-slots:
					batch = append(batch, g.next())
				default:
					break more
				}
			}
			err := t.send(batch)
			for _, c := range batch {
				inflight <- c
			}
			if err != nil {
				writeErr = err
				return
			}
		}
	}()
	v := &verifier{w: w}
	if w.followerReads {
		v.bound = staleBound
	}
	var readErr error
	for c := range inflight {
		res.attempts++
		res.ops[c.op]++
		if readErr != nil {
			res.outcomes[outTransport]++
			slots <- struct{}{}
			continue
		}
		r, err := t.recv(c)
		end := time.Now()
		if err != nil {
			// A dead transport ends the pass: closing it unblocks the
			// writer, and every command still in flight counts as failed.
			readErr = err
			res.outcomes[outTransport]++
			stop.Store(true)
			t.close()
			slots <- struct{}{}
			continue
		}
		out := v.check(c, r)
		res.outcomes[out]++
		if out == outOK {
			k := int(end.Sub(start) / sliceDur)
			if k < len(res.done) {
				res.done[k]++
			}
			k = min(k, len(res.lat)-1)
			res.lat[k][c.op] = append(res.lat[k][c.op], end.Sub(c.start).Nanoseconds())
		}
		if o.spans && len(res.spans) < maxSpans/conns {
			res.spans = append(res.spans, span{cmd: c.id, name: o.spanPrefix + opNames[c.op],
				start: c.start.Sub(start).Nanoseconds(), end: end.Sub(start).Nanoseconds()})
		}
		if len(res.wire) < o.record/conns {
			res.wire = append(res.wire, appendCommand(nil, c))
			res.resps = append(res.resps, recorded{c.id, c.op, r})
		}
		slots <- struct{}{}
	}
	<-done
	if readErr != nil {
		return fmt.Errorf("conn %d: %w", g.conn, readErr)
	}
	if writeErr != nil {
		return fmt.Errorf("conn %d: %w", g.conn, writeErr)
	}
	return nil
}

// addCounts adds o's command counts to r's.
func (r *passResult) addCounts(o *passResult) {
	r.attempts += o.attempts
	for i := range r.outcomes {
		r.outcomes[i] += o.outcomes[i]
	}
	for i := range r.ops {
		r.ops[i] += o.ops[i]
	}
}

// merge folds another result, cut into as many slices, into r slice by
// slice.
func (r *passResult) merge(o *passResult) {
	r.addCounts(o)
	for k := range o.lat {
		r.done[k] += o.done[k]
		for op := range o.lat[k] {
			r.lat[k][op] = append(r.lat[k][op], o.lat[k][op]...)
		}
	}
	r.spans = append(r.spans, o.spans...)
	r.wire = append(r.wire, o.wire...)
	r.resps = append(r.resps, o.resps...)
}

// then appends another pass's slices after r's.
func (r *passResult) then(o *passResult) {
	r.addCounts(o)
	r.lat = append(r.lat, o.lat...)
	r.done = append(r.done, o.done...)
}

// samples returns the latencies of slice k, or of every slice when k < 0,
// for the given operations (every operation when none is given).
func (r *passResult) samples(k int, ops ...opKind) []int64 {
	if len(ops) == 0 {
		ops = []opKind{opGet, opSet, opMGet}
	}
	var out []int64
	for i := range r.lat {
		if k < 0 || i == k {
			for _, op := range ops {
				out = append(out, r.lat[i][op]...)
			}
		}
	}
	return out
}

func (r *passResult) completed() uint64 { return r.outcomes[outOK] }

func (r *passResult) failed() uint64 { return r.attempts - r.outcomes[outOK] }

// verdict reports the failures that void a run outright.
func (r *passResult) verdict() error {
	if n := r.outcomes[outMismatch] + r.outcomes[outStale]; n > 0 {
		return fmt.Errorf("verification failed: %d value mismatches, %d stale reads",
			r.outcomes[outMismatch], r.outcomes[outStale])
	}
	if r.completed() == 0 {
		return fmt.Errorf("no command completed")
	}
	return nil
}
