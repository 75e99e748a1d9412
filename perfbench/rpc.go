package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	ts "flick/internal/teststubs"
	"flick/rt"
)

// The RPC workloads' load shape: one process, closed loop (each caller
// blocks on its reply before the next call), callers goroutines sharing
// one TCP loopback connection to an in-process server. One caller: with
// two, the callers fall into one of two phase patterns for a whole run
// (median latency about 35 or 50 us on rpc-small, process CPU per call
// moving with it), so two runs of the same code could differ by 40%.
const (
	callers       = 1
	serverWorkers = 2
)

// warmup is how long each set-up drives calls before anything is timed.
// A fixed time rather than a call count: on a shared host the call rate
// swings by a fifth from minute to minute, and a counted warm-up would
// carry that swing into setup_s.
const warmup = 150 * time.Millisecond

// Operation indexes of the RPC workloads.
const (
	opSum = iota
	opListDir
	opSendDirs
	numOps
)

var opNames = [numOps]string{"Sum", "ListDir", "SendDirs"}

// ONC procedure numbers of the Bench operations (the generated
// dispatcher's switch) and the request layout the span wrappers read
// the per-call tag from.
const (
	procSendDirs = 2
	procSum      = 3
	procListDir  = 4
	oncCallHdr   = 40
)

var errMismatch = errors.New("perfbench: SendDirs request differs from the entries sent")

// rpcSpec describes one RPC workload.
type rpcSpec struct {
	name string
	rate int // calls per second per caller and op to preallocate for
	// op picks caller c's operation for its seq'th call.
	op func(c int, seq uint32) int
}

var (
	rpcSmall = rpcSpec{name: "rpc-small", rate: 25000, op: func(int, uint32) int { return opSum }}
	// Each caller alternates list (the server marshals, the client
	// unmarshals) and send (the reverse); with more than one caller they
	// run out of phase, so 64 KB reads and writes run side by side.
	rpcBulk = rpcSpec{name: "rpc-bulk", rate: 4000, op: func(c int, seq uint32) int {
		if (uint32(c)+seq)%2 == 0 {
			return opListDir
		}
		return opSendDirs
	}}
)

func runRPCSmall(o options, r *report) error { return runRPC(rpcSmall, o, r) }
func runRPCBulk(o options, r *report) error  { return runRPC(rpcBulk, o, r) }

// rpcInputs are the seeded call arguments and served data.
type rpcInputs struct {
	sumArgs [][]int32          // 16-int Sum arguments (64 B payload)
	served  []ts.BenchDirEntry // the ListDir reply, 64 KB
	sendSet []ts.BenchDirEntry // the SendDirs argument, 64 KB
}

func genRPCInputs(seed int64) *rpcInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &rpcInputs{sumArgs: make([][]int32, 256)}
	for i := range in.sumArgs {
		v := make([]int32, 16)
		for j := range v {
			v[j] = int32(rng.Uint32())
		}
		in.sumArgs[i] = v
	}
	in.served = genDirs(rng, 256)
	in.sendSet = genDirs(rng, 256)
	return in
}

// benchServer is the served implementation of the Bench interface.
type benchServer struct{ in *rpcInputs }

func (b benchServer) Sum(v []int32) (int32, error) { return sum(v), nil }

func (b benchServer) ListDir(string) ([]ts.BenchDirEntry, int32, error) {
	return b.in.served, int32(len(b.in.served)), nil
}

// SendDirs checks the request against the entries the callers send; the
// first entry's first field carries the per-call tag.
func (b benchServer) SendDirs(v []ts.BenchDirEntry) error {
	if !dirsEqual(v, b.in.sendSet, true) {
		return errMismatch
	}
	return nil
}

func (benchServer) SendInts([]int32) error         { return nil }
func (benchServer) SendRects([]ts.BenchRect) error { return nil }
func (benchServer) Ping(int32) error               { return nil }

func sum(v []int32) int32 {
	var s int32
	for _, x := range v {
		s += x
	}
	return s
}

// dirsEqual compares entry lists; skipTag ignores the tag field.
func dirsEqual(a, b []ts.BenchDirEntry, skipTag bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if i == 0 && skipTag {
			x.Info.Fields[0] = y.Info.Fields[0]
		}
		if x != y {
			return false
		}
	}
	return true
}

// world is one server, listener, connection and client.
type world struct {
	client *ts.BenchXDRClient
	lis    rt.Listener
	served chan error
	conn   *tracedConn // the client conn wrapper, when traced
	seq    [callers]atomic.Uint32
}

func newWorld(in *rpcInputs, tr *tracer) (*world, error) {
	lis, err := rt.ListenTCP("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w := &world{lis: lis, served: make(chan error, 1)}
	srv := rt.NewServer(rt.ONC{})
	srv.Workers = serverWorkers
	var impl ts.BenchXDRServer = benchServer{in}
	var serveOn rt.Listener = lis
	if tr != nil {
		impl = &tracedImpl{inner: impl, tr: tr, sHandler: tr.name("handler"), sCall: tr.name("call")}
		serveOn = &tracedListener{Listener: lis, tr: tr}
	}
	ts.RegisterBenchXDR(srv, impl)
	go func() { w.served <- srv.Serve(serveOn) }()
	conn, err := rt.DialTCP(lis.Addr())
	if err != nil {
		w.close()
		return nil, err
	}
	if tr != nil {
		w.conn = newTracedConn(conn, tr, true)
		conn = w.conn
	}
	w.client = ts.NewBenchXDRClient(conn)
	return w, nil
}

// close stops the client and the listener and waits for Serve to end.
func (w *world) close() {
	if w.client != nil {
		w.client.C.Close()
	}
	w.lis.Close()
	<-w.served
}

// sample is one caller's record of a measured phase.
type sample struct {
	lat    [numOps][]float64 // µs per call
	failed int64
}

// caller is one closed-loop caller's private state.
type caller struct {
	id      int
	sumArgs [][]int32
	sendSet []ts.BenchDirEntry
	path    string // ListDir argument outside traced phases
	in      *rpcInputs
}

func newCallers(in *rpcInputs) []*caller {
	cs := make([]*caller, callers)
	for i := range cs {
		c := &caller{id: i, in: in, path: fmt.Sprintf("%08x", tagOf(i, 0))}
		for _, v := range in.sumArgs {
			c.sumArgs = append(c.sumArgs, append([]int32(nil), v...))
		}
		c.sendSet = append([]ts.BenchDirEntry(nil), in.sendSet...)
		cs[i] = c
	}
	return cs
}

// tagOf is the per-call tag the traced wrappers match a request by:
// unique per caller and call within a phase.
func tagOf(caller int, seq uint32) uint32 { return uint32(caller)<<28 | seq&(1<<28-1) }

// call makes one call of op and reports whether it succeeded with the
// expected result.
func (c *caller) call(cl *ts.BenchXDRClient, op int, tag uint32, traced bool) bool {
	switch op {
	case opSum:
		v := c.sumArgs[tag%uint32(len(c.sumArgs))]
		v[0] = int32(tag)
		got, err := cl.Sum(v)
		return err == nil && got == sum(v)
	case opListDir:
		path := c.path
		if traced {
			path = fmt.Sprintf("%08x", tag)
		}
		got, total, err := cl.ListDir(path)
		return err == nil && total == int32(len(c.in.served)) && dirsEqual(got, c.in.served, false)
	default:
		c.sendSet[0].Info.Fields[0] = int32(tag)
		return cl.SendDirs(c.sendSet) == nil
	}
}

// drive runs the callers closed-loop on w until the deadline (or until
// the tracer is full) and returns their samples.
func drive(spec rpcSpec, w *world, cs []*caller, deadline time.Time, tr *tracer, capHint int) []*sample {
	out := make([]*sample, len(cs))
	var wg sync.WaitGroup
	var sCall uint8
	if tr != nil {
		sCall = tr.name("call")
	}
	for i, c := range cs {
		s := &sample{}
		out[i] = s
		wg.Add(1)
		go func(c *caller, s *sample) {
			defer wg.Done()
			for time.Now().Before(deadline) && (tr == nil || !tr.full()) {
				seq := w.seq[c.id].Add(1)
				op := spec.op(c.id, seq)
				tag := tagOf(c.id, seq)
				t0 := time.Now()
				var ts0 int64
				if tr != nil {
					ts0 = tr.now()
				}
				ok := c.call(w.client, op, tag, tr != nil)
				d := time.Since(t0)
				if tr != nil {
					tr.add(span{name: sCall, aux: tag, start: ts0, end: tr.now()})
				}
				if s.lat[op] == nil {
					s.lat[op] = make([]float64, 0, capHint)
				}
				s.lat[op] = append(s.lat[op], float64(d)/1e3)
				if !ok {
					s.failed++
				}
			}
		}(c, s)
	}
	wg.Wait()
	return out
}

// phase is one measured interval's merged result.
type phase struct {
	perOp    [numOps][]float64 // sorted µs
	calls    int64
	failed   int64
	wall     time.Duration
	cpuNs    int64
	mem0     memSnap
	mem1     memSnap
	zc0, zc1 rt.ZeroCopyStats
}

func measurePhase(spec rpcSpec, w *world, cs []*caller, seconds float64, tr *tracer, capHint int, counters bool) *phase {
	p := &phase{}
	if counters {
		p.mem0 = readMem()
		p.zc0 = rt.ReadZeroCopyStats()
	}
	cpu0 := cpuNanos()
	begin := time.Now()
	samples := drive(spec, w, cs, begin.Add(time.Duration(seconds*float64(time.Second))), tr, capHint)
	p.wall = time.Since(begin)
	p.cpuNs = cpuNanos() - cpu0
	if counters {
		p.mem1 = readMem()
		p.zc1 = rt.ReadZeroCopyStats()
	}
	for _, s := range samples {
		for op, l := range s.lat {
			p.perOp[op] = append(p.perOp[op], l...)
			p.calls += int64(len(l))
		}
		p.failed += s.failed
	}
	for op := range p.perOp {
		sort.Float64s(p.perOp[op])
	}
	return p
}

// e2e fills the end-to-end metrics of a phase: the median call latency
// and the process CPU per call. With several operations in the mix, the
// median is the mean of the per-operation medians: the median of the
// pooled sample would sit in the gap between two latency modes and jump
// between them. The tail percentiles are printed by rpcInfo, not gated:
// on rpc-bulk the 90th percentile sits where GC-delayed calls begin, and
// it moved by a quarter between runs of the same code.
func (p *phase) e2e(into map[string]metric) {
	var p50 []float64
	for _, l := range p.perOp {
		if len(l) > 0 {
			p50 = append(p50, quantile(l, 0.5))
		}
	}
	into["p50_us"] = metric{mean(p50), "us"}
	into["cpu_us_per_op"] = metric{float64(p.cpuNs) / 1e3 / float64(max(p.calls, 1)), "us"}
}

// rpcState is what one set-up builds: inputs, a served world and the
// callers, warmed up.
type rpcState struct {
	in *rpcInputs
	w  *world
	cs []*caller
}

func runRPC(spec rpcSpec, o options, r *report) error {
	build := func() (*rpcState, error) {
		in := genRPCInputs(o.seed)
		w, err := newWorld(in, nil)
		if err != nil {
			return nil, err
		}
		st := &rpcState{in: in, w: w, cs: newCallers(in)}
		for _, s := range drive(spec, w, st.cs, time.Now().Add(warmup), nil, 1<<12) {
			if s.failed > 0 {
				w.close()
				return nil, fmt.Errorf("%d warm-up calls failed", s.failed)
			}
		}
		return st, nil
	}
	st, err := timeSetup(r, nil, build, func(st *rpcState) { st.w.close() })
	if err != nil {
		return err
	}
	in, w, cs := st.in, st.w, st.cs
	r.infof("transport: real TCP loopback (127.0.0.1) to an in-process rt.Server, ONC/XDR; closed loop, %d caller goroutine(s) on 1 connection, server Workers=%d", callers, serverWorkers)

	seconds := o.seconds
	if o.trace {
		seconds /= 2
	}
	capHint := int(seconds * float64(spec.rate))
	p := measurePhase(spec, w, cs, seconds, nil, capHint, o.trace)
	w.close()
	r.attempted += p.calls
	r.failed += p.failed
	p.e2e(r.e2e)
	rpcInfo(r, p)
	if !o.trace {
		return nil
	}

	// Counters from the untraced phase: the traced phase wraps the
	// connections, which costs the runtime its receive-arena recycling.
	calls := p.calls
	memDelta(r, p.mem0, p.mem1, calls, "call")
	zc := p.zc1.Sub(p.zc0)
	perCall := func(v uint64) float64 { return float64(v) / float64(calls) }
	r.layer["arena.gets_per_call"] = metric{perCall(zc.ArenaGets), "count"}
	r.layer["arena.puts_per_call"] = metric{perCall(zc.ArenaPuts), "count"}
	r.layer["arena.pinned_per_call"] = metric{perCall(zc.ArenaPinned), "count"}
	r.layer["copied_B_per_call"] = metric{perCall(zc.CopiedBytes), "B"}
	r.layer["flattened_sends_per_call"] = metric{perCall(zc.FlattenedSends), "count"}
	for _, op := range []int{opListDir, opSendDirs} {
		if l := p.perOp[op]; len(l) > 0 {
			r.layer["p50_us."+opNames[op]] = metric{quantile(l, 0.5), "us"}
		}
	}

	// Traced phase on a fresh, wrapped world.
	tr := newTracer(600000, rpcSpans...)
	tw, err := newWorld(in, tr)
	if err != nil {
		return err
	}
	cs = newCallers(in)
	tp := measurePhase(spec, tw, cs, seconds, tr, capHint, false)
	tw.close()
	frames, wireB := tw.conn.frames.Load(), tw.conn.bytes.Load()
	r.attempted += tp.calls
	r.failed += tp.failed
	tracedE2E := map[string]metric{}
	tp.e2e(tracedE2E)
	r.infof("traced phase: the span wrappers hide the TCP conn's receive-arena marker from rt, so there every received message is a fresh allocation (part of the overhead below, most of it on rpc-bulk)")
	overhead(r, tracedE2E)
	r.layer["frames_per_call"] = metric{float64(frames) / float64(tp.calls), "count"}
	r.layer["wire_B_per_call"] = metric{float64(wireB) / float64(tp.calls), "B"}
	callLedger(r, tr)
	return tr.dump(r, spanFile(o, spec.name))
}

// rpcInfo prints the informational figures that are not gated: their
// run-to-run spread on a shared host is wider than any useful bound.
func rpcInfo(r *report, p *phase) {
	r.infof("calls %d in %.3f s: %.0f calls/s (informational)", p.calls, p.wall.Seconds(), float64(p.calls)/p.wall.Seconds())
	var all []float64
	for _, l := range p.perOp {
		all = append(all, l...)
	}
	sort.Float64s(all)
	for _, q := range []struct {
		name string
		q    float64
	}{{"p50", 0.5}, {"p90", 0.9}, {"p99", 0.99}, {"p99.9", 0.999}} {
		v := quantile(all, q.q)
		r.infof("latency %s %.2f us, whole run, all calls pooled (%d samples beyond)", q.name, v, beyond(all, v))
	}
	for op, l := range p.perOp {
		if len(l) > 0 {
			r.infof("op %s: %d calls, p50 %.2f us, p90 %.2f us", opNames[op], len(l), quantile(l, 0.5), quantile(l, 0.9))
		}
	}
	r.infof("cpu_us_per_call %.3f us (process user+sys CPU / calls)", float64(p.cpuNs)/1e3/float64(max(p.calls, 1)))
}

// --- Traced wrappers --------------------------------------------------------

// rpcSpans are the span names of the traced RPC phase. Every span's
// parent is the call it serves; the chain call → client.send →
// server.recv → handler → server.send → client.recv → call end
// partitions each call's time.
var rpcSpans = []string{"call", "client.send", "server.recv", "handler", "server.send", "client.recv"}

// requestTag reads the per-call tag out of an ONC call message: the
// first Sum argument, the first SendDirs entry's first field, or the
// hex ListDir path.
func requestTag(msg []byte) uint32 {
	if len(msg) < oncCallHdr+8 {
		return 0
	}
	be := binary.BigEndian
	switch be.Uint32(msg[20:]) {
	case procSum:
		return be.Uint32(msg[oncCallHdr+4:])
	case procSendDirs:
		// count, name length, 116 name bytes, then fields[0].
		if off := oncCallHdr + 8 + 116; len(msg) >= off+4 {
			return be.Uint32(msg[off:])
		}
	case procListDir:
		if len(msg) >= oncCallHdr+12 {
			v, _ := strconv.ParseUint(string(msg[oncCallHdr+4:oncCallHdr+12]), 16, 32)
			return uint32(v)
		}
	}
	return 0
}

// tracedConn wraps an rt.Conn, recording send and receive spans keyed by
// XID and counting frames and bytes.
type tracedConn struct {
	rt.Conn
	tr            *tracer
	client        bool
	sSend, sRecv  uint8
	sCall         uint8
	frames, bytes atomic.Int64
}

func newTracedConn(c rt.Conn, tr *tracer, client bool) *tracedConn {
	t := &tracedConn{Conn: c, tr: tr, client: client, sCall: tr.name("call")}
	if client {
		t.sSend, t.sRecv = tr.name("client.send"), tr.name("client.recv")
	} else {
		t.sSend, t.sRecv = tr.name("server.send"), tr.name("server.recv")
	}
	return t
}

// recordFrame counts one frame with its record mark.
func (t *tracedConn) recordFrame(msg []byte) {
	t.frames.Add(1)
	t.bytes.Add(int64(len(msg)) + 4)
}

func (t *tracedConn) Send(msg []byte) error {
	t0 := t.tr.now()
	err := t.Conn.Send(msg)
	t1 := t.tr.now()
	if len(msg) >= 4 {
		var tag uint32
		if t.client {
			tag = requestTag(msg)
		}
		t.tr.add(span{name: t.sSend, parent: t.sCall, id: binary.BigEndian.Uint32(msg), aux: tag, start: t0, end: t1})
	}
	t.recordFrame(msg)
	return err
}

func (t *tracedConn) Recv() ([]byte, error) {
	msg, err := t.Conn.Recv()
	now := t.tr.now()
	if err == nil && len(msg) >= 4 {
		t.tr.add(span{name: t.sRecv, parent: t.sCall, id: binary.BigEndian.Uint32(msg), start: now, end: now})
		t.recordFrame(msg)
	}
	return msg, err
}

// tracedListener wraps accepted connections.
type tracedListener struct {
	rt.Listener
	tr *tracer
}

func (l *tracedListener) Accept() (rt.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return newTracedConn(c, l.tr, false), nil
}

// tracedImpl records a handler span per request, keyed by the request
// tag (the handler sees arguments, not the XID).
type tracedImpl struct {
	inner           ts.BenchXDRServer
	tr              *tracer
	sHandler, sCall uint8
}

func (t *tracedImpl) span(tag uint32, t0 int64) {
	t.tr.add(span{name: t.sHandler, parent: t.sCall, aux: tag, start: t0, end: t.tr.now()})
}

func (t *tracedImpl) Sum(v []int32) (int32, error) {
	t0 := t.tr.now()
	s, err := t.inner.Sum(v)
	if len(v) > 0 {
		t.span(uint32(v[0]), t0)
	}
	return s, err
}

func (t *tracedImpl) ListDir(path string) ([]ts.BenchDirEntry, int32, error) {
	t0 := t.tr.now()
	d, n, err := t.inner.ListDir(path)
	tag, _ := strconv.ParseUint(path, 16, 32)
	t.span(uint32(tag), t0)
	return d, n, err
}

func (t *tracedImpl) SendDirs(v []ts.BenchDirEntry) error {
	t0 := t.tr.now()
	err := t.inner.SendDirs(v)
	if len(v) > 0 {
		t.span(uint32(v[0].Info.Fields[0]), t0)
	}
	return err
}

func (t *tracedImpl) SendInts(v []int32) error         { return t.inner.SendInts(v) }
func (t *tracedImpl) SendRects(v []ts.BenchRect) error { return t.inner.SendRects(v) }
func (t *tracedImpl) Ping(n int32) error               { return t.inner.Ping(n) }

// chainLayers name the gaps between consecutive boundaries of a call,
// in order: stub entry, client Send entry, Send return, server Recv
// return, handler entry, handler exit, server Send entry, Send return,
// client Recv return, stub return.
var chainLayers = []string{
	"client.pre_send_us", "client.send_us", "link.req_us", "server.pre_handler_us", "handler_us",
	"server.post_handler_us", "server.send_us", "link.rep_us", "client.wake_us",
}

// callLedger joins the spans of each call by XID (the handler and call
// spans by request tag) and reports the mean of every layer of the
// chain. The layers partition a call with a complete chain exactly;
// unaccounted_us is the mean call time not covered by them.
func callLedger(r *report, tr *tracer) {
	spans := tr.recorded()
	sCall, sCSend, sSRecv := tr.name("call"), tr.name("client.send"), tr.name("server.recv")
	sHandler, sSSend, sCRecv := tr.name("handler"), tr.name("server.send"), tr.name("client.recv")
	xidOf := map[uint32]uint32{}
	for _, s := range spans {
		if s.name == sCSend {
			xidOf[s.aux] = s.id
		}
	}
	type chain struct {
		t    [10]int64
		have uint16
	}
	calls := map[uint32]*chain{}
	get := func(xid uint32) *chain {
		c := calls[xid]
		if c == nil {
			c = &chain{}
			calls[xid] = c
		}
		return c
	}
	set := func(xid uint32, i int, a, b int64) {
		c := get(xid)
		c.t[i], c.t[i+1] = a, b
		c.have |= 1<<i | 1<<(i+1)
	}
	var callSum float64
	var callN int
	for _, s := range spans {
		switch s.name {
		case sCall:
			callSum += float64(s.end - s.start)
			callN++
			if xid, ok := xidOf[s.aux]; ok {
				c := get(xid)
				c.t[0], c.t[9] = s.start, s.end
				c.have |= 1 | 1<<9
			}
		case sCSend:
			set(s.id, 1, s.start, s.end)
		case sSRecv:
			c := get(s.id)
			c.t[3] = s.start
			c.have |= 1 << 3
		case sHandler:
			if xid, ok := xidOf[s.aux]; ok {
				set(xid, 4, s.start, s.end)
			}
		case sSSend:
			set(s.id, 6, s.start, s.end)
		case sCRecv:
			c := get(s.id)
			c.t[8] = s.start
			c.have |= 1 << 8
		}
	}
	sums := make([]float64, len(chainLayers))
	complete := 0
	for _, c := range calls {
		if c.have != 1<<10-1 {
			continue
		}
		complete++
		for i := range sums {
			sums[i] += float64(c.t[i+1] - c.t[i])
		}
	}
	if callN == 0 || complete == 0 {
		r.infof("call ledger: no complete call chains among %d traced calls", callN)
		return
	}
	meanCall := callSum / float64(callN) / 1e3
	covered := 0.0
	for i, name := range chainLayers {
		v := sums[i] / float64(complete) / 1e3
		covered += v
		r.layer[name] = metric{v, "us"}
	}
	r.layer["call_mean_us"] = metric{meanCall, "us"}
	r.layer["unaccounted_us"] = metric{meanCall - covered, "us"}
	r.infof("call ledger: %d of %d traced calls have complete chains; mean call %.2f us = layers %.2f us + unaccounted %.2f us",
		complete, callN, meanCall, covered, meanCall-covered)
}
