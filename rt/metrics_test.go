package rt

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

// --- histogram --------------------------------------------------------------

func TestBucketIndex(t *testing.T) {
	cases := []struct {
		ns   uint64
		want int
	}{
		{0, 0},
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{1023, 10},
		{1024, 11},
		{1 << 38, 39},
		{1 << 50, NumLatencyBuckets - 1}, // clamp
		{^uint64(0), NumLatencyBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.ns); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
}

func TestBucketUpper(t *testing.T) {
	// Every value must fall strictly below its bucket's upper edge.
	for _, ns := range []uint64{1, 2, 3, 100, 1023, 1024, 1 << 20} {
		up := BucketUpper(bucketIndex(ns))
		if time.Duration(ns) >= up {
			t.Errorf("ns=%d not below bucket upper %d", ns, up)
		}
	}
}

func TestHistogramObserve(t *testing.T) {
	var h Histogram
	h.Observe(100 * time.Nanosecond) // bucket 7 (64..127)
	h.Observe(100 * time.Nanosecond)
	h.Observe(5 * time.Microsecond) // 5000ns, bucket 13
	h.Observe(-time.Second)         // clamped to 0, bucket 0

	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.SumNs != 100+100+5000+0 {
		t.Errorf("sum = %d", s.SumNs)
	}
	if s.MaxNs != 5000 {
		t.Errorf("max = %d", s.MaxNs)
	}
	if s.Buckets[7] != 2 || s.Buckets[13] != 1 || s.Buckets[0] != 1 {
		t.Errorf("buckets = %v", s.Buckets[:16])
	}
	if s.Mean() != time.Duration(5200/4) {
		t.Errorf("mean = %v", s.Mean())
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if got := h.Snapshot().Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
	// 90 fast observations (100ns, bucket 7) and 10 slow (1ms, bucket 20).
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Nanosecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(time.Millisecond)
	}
	s := h.Snapshot()
	if got := s.Quantile(0.5); got != BucketUpper(7) {
		t.Errorf("p50 = %v, want %v", got, BucketUpper(7))
	}
	if got := s.Quantile(0.90); got != BucketUpper(7) {
		t.Errorf("p90 = %v, want %v (rank 90 is the last fast observation)", got, BucketUpper(7))
	}
	if got := s.Quantile(0.99); got != BucketUpper(20) {
		t.Errorf("p99 = %v, want %v", got, BucketUpper(20))
	}
	if got := s.Quantile(1); got != BucketUpper(20) {
		t.Errorf("p100 = %v, want %v", got, BucketUpper(20))
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Errorf("count = %d, want %d", s.Count, workers*per)
	}
	if s.MaxNs != 7*1000+999 {
		t.Errorf("max = %d", s.MaxNs)
	}
	var inBuckets uint64
	for _, b := range s.Buckets {
		inBuckets += b
	}
	if inBuckets != s.Count {
		t.Errorf("bucket total %d != count %d", inBuckets, s.Count)
	}
}

// --- metrics registry -------------------------------------------------------

func TestMetricsConcurrentOps(t *testing.T) {
	m := NewMetrics()
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				op := m.Op("op-" + string(rune('a'+i%3)))
				op.Calls.Add(1)
				op.ReqBytes.Add(10)
				op.Latency.Observe(time.Microsecond)
				m.Conns.Add(1)
			}
		}()
	}
	wg.Wait()
	s := m.Snapshot()
	if len(s.Ops) != 3 {
		t.Fatalf("ops = %d", len(s.Ops))
	}
	var calls, req uint64
	for _, op := range s.Ops {
		calls += op.Calls
		req += op.ReqBytes
		if op.Latency.Count != op.Calls {
			t.Errorf("op %s latency count %d != calls %d", op.Op, op.Latency.Count, op.Calls)
		}
	}
	if calls != workers*per || req != workers*per*10 {
		t.Errorf("calls=%d req=%d", calls, req)
	}
	if s.Conns != workers*per {
		t.Errorf("conns = %d", s.Conns)
	}
}

func TestSnapshotTextAndJSON(t *testing.T) {
	m := NewMetrics()
	op := m.Op("ping")
	op.Calls.Add(3)
	op.Errors.Add(1)
	op.Latency.Observe(time.Millisecond)
	m.BadHeaders.Add(2)

	s := m.Snapshot()
	text := s.String()
	for _, want := range []string{
		"flick_bad_headers 2\n",
		`flick_op_calls{op="ping"} 3` + "\n",
		`flick_op_errors{op="ping"} 1` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}

	data, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.BadHeaders != 2 || len(back.Ops) != 1 || back.Ops[0].Calls != 3 {
		t.Errorf("JSON round trip = %+v", back)
	}

	// WriteTo returns the byte count it wrote.
	var buf bytes.Buffer
	n, err := s.WriteTo(&buf)
	if err != nil || n != int64(buf.Len()) {
		t.Errorf("WriteTo = %d, %v; buffer %d", n, err, buf.Len())
	}
}

// --- encoder / decoder counters --------------------------------------------

func TestEncoderStats(t *testing.T) {
	var e Encoder
	// Counting is off by default (the disabled fast path).
	e.Grow(4)
	if s := e.Stats(); s != (EncStats{}) {
		t.Errorf("counters advanced while disabled: %+v", s)
	}
	e.EnableStats(true)
	e.Grow(4)
	e.PutU32BE(1)
	e.Grow(1 << 20) // must reallocate
	s := e.TakeStats()
	if s.GrowChecks != 2 {
		t.Errorf("grow checks = %d", s.GrowChecks)
	}
	if s.GrowAllocs == 0 || s.GrowAllocs > 2 {
		t.Errorf("grow allocs = %d", s.GrowAllocs)
	}
	if after := e.TakeStats(); after != (EncStats{}) {
		t.Errorf("TakeStats did not drain: %+v", after)
	}
}

func TestDecoderStats(t *testing.T) {
	var d Decoder
	d.Reset([]byte{0, 0, 0, 7})
	// Counting is off by default (the disabled fast path).
	d.Ensure(4)
	if s := d.Stats(); s != (DecStats{}) {
		t.Errorf("counters advanced while disabled: %+v", s)
	}
	d.EnableStats(true)
	d.Reset([]byte{0, 0, 0, 7})
	if !d.Ensure(4) {
		t.Fatal("Ensure(4) failed")
	}
	d.U32BE()
	if d.Ensure(4) { // truncated
		t.Fatal("Ensure past end succeeded")
	}
	s := d.TakeStats()
	if s.EnsureChecks != 2 {
		t.Errorf("ensure checks = %d", s.EnsureChecks)
	}
	if s.Failures != 1 {
		t.Errorf("failures = %d", s.Failures)
	}
	if after := d.TakeStats(); after != (DecStats{}) {
		t.Errorf("TakeStats did not drain: %+v", after)
	}
}

// --- end-to-end loopback ----------------------------------------------------

// echoDispatch implements a tiny protocol: proc 1 doubles a u32, proc 2
// always fails, proc 3 is oneway.
func echoDispatch(h *ReqHeader, d *Decoder, e *Encoder) error {
	switch h.Proc {
	case 1:
		h.OpName = "double"
		if !d.Ensure(4) {
			return d.Err()
		}
		v := d.U32BE()
		e.PutU32BEC(2 * v)
		return nil
	case 2:
		h.OpName = "fail"
		return errors.New("work failed")
	case 3:
		h.OpName = "note"
		h.OneWay = true
		return nil
	}
	return ErrNoSuchOp
}

func startObservedServer(t *testing.T) (Conn, *Metrics, chan struct{}) {
	t.Helper()
	clientEnd, serverEnd := Pipe()
	s := NewServer(ONC{})
	s.Metrics = NewMetrics()
	s.Register(7, 1, echoDispatch)
	done := make(chan struct{})
	go func() { defer close(done); s.ServeConn(serverEnd) }()
	t.Cleanup(func() { clientEnd.Close(); <-done })
	return clientEnd, s.Metrics, done
}

func TestLoopbackMetricsE2E(t *testing.T) {
	conn, sm, done := startObservedServer(t)

	c := NewClient(conn, ONC{})
	c.Prog, c.Vers = 7, 1
	cm := NewMetrics()
	c.Metrics = cm

	// Three successful calls.
	for i := uint32(1); i <= 3; i++ {
		d, err := c.Do(nil, doubleOp, func(e *Encoder) { e.PutU32BEC(i) })
		if err != nil {
			t.Fatal(err)
		}
		if !d.Ensure(4) {
			t.Fatal(d.Err())
		}
		if got := d.U32BE(); got != 2*i {
			t.Errorf("double(%d) = %d", i, got)
		}
		d.Release()
	}
	// One failing call (server work error -> system error reply).
	if _, err := c.Do(nil, &Op{Proc: 2, Name: "fail"}, func(e *Encoder) {}); !errors.Is(err, ErrSystem) {
		t.Errorf("fail call err = %v", err)
	}
	// One oneway.
	if _, err := c.Do(nil, &Op{Proc: 3, Name: "note", Oneway: true}, func(e *Encoder) {}); err != nil {
		t.Fatal(err)
	}
	// Follow with a two-way call so the oneway is surely dispatched.
	if _, err := c.Do(nil, doubleOp, func(e *Encoder) { e.PutU32BEC(9) }); err != nil {
		t.Fatal(err)
	}

	cs := cm.Snapshot()
	if got := findOp(t, cs, "double").Calls; got != 4 {
		t.Errorf("client double calls = %d", got)
	}
	if op := findOp(t, cs, "fail"); op.Calls != 1 || op.Errors != 1 {
		t.Errorf("client fail op = %+v", op)
	}
	if cs.Oneways != 1 {
		t.Errorf("client oneways = %d", cs.Oneways)
	}
	if cs.EncGrowChecks == 0 || cs.DecEnsureChecks == 0 {
		t.Errorf("client enc/dec counters not folded: %+v", cs)
	}
	for _, op := range cs.Ops {
		if op.Calls != op.Latency.Count {
			t.Errorf("op %s: calls %d != latency count %d", op.Op, op.Calls, op.Latency.Count)
		}
		if op.Calls > 0 && op.ReqBytes == 0 {
			t.Errorf("op %s: no request bytes recorded", op.Op)
		}
	}

	// Close the connection and wait for the server loop to exit: every
	// finishRequest has then run.
	conn.Close()
	<-done

	ss := sm.Snapshot()
	if ss.Conns != 1 {
		t.Errorf("server conns = %d", ss.Conns)
	}
	if op := findOp(t, ss, "double"); op.Calls != 4 || op.RepBytes == 0 {
		t.Errorf("server double op = %+v", op)
	}
	if op := findOp(t, ss, "fail"); op.Errors != 1 {
		t.Errorf("server fail op = %+v", op)
	}
	if op := findOp(t, ss, "note"); op.Calls != 1 || op.RepBytes != 0 {
		t.Errorf("server note op = %+v", op)
	}
	if ss.DispatchErrors != 1 || ss.Oneways != 1 {
		t.Errorf("server globals = %+v", ss)
	}
}

func findOp(t *testing.T, s Snapshot, name string) OpSnapshot {
	t.Helper()
	for _, op := range s.Ops {
		if op.Op == name {
			return op
		}
	}
	t.Fatalf("op %q not in snapshot (have %v)", name, opNames(s))
	return OpSnapshot{}
}

func opNames(s Snapshot) []string {
	var out []string
	for _, op := range s.Ops {
		out = append(out, op.Op)
	}
	return out
}

// --- dropped requests and desynchronized replies ---------------------------

func TestBadHeaderDropCounted(t *testing.T) {
	conn, serverEnd := Pipe()
	s := NewServer(ONC{})
	sm := NewMetrics()
	s.Metrics = sm
	tr := &Tracer{Seed: 2} // samples nothing; error spans are always kept
	s.Tracer = tr
	s.Register(7, 1, echoDispatch)
	serveConn(t, s, serverEnd)
	t.Cleanup(func() { conn.Close() })

	// Garbage: too short to be an ONC call header. The server must drop
	// it, count it, record an error span, and keep serving.
	if err := conn.Send([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn, ONC{})
	c.Prog, c.Vers = 7, 1
	d, err := c.Do(nil, doubleOp, func(e *Encoder) { e.PutU32BEC(21) })
	if err != nil {
		t.Fatal(err)
	}
	if !d.Ensure(4) || d.U32BE() != 42 {
		t.Errorf("call after dropped garbage failed")
	}
	d.Release()
	if got := sm.BadHeaders.Load(); got != 1 {
		t.Errorf("bad headers = %d", got)
	}
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Kind != SpanServerDispatch || !strings.Contains(spans[0].Err, "request header (3 bytes)") {
		t.Errorf("spans = %+v, want one dispatch error span for the bad header", spans)
	}
}

// xidCorruptor flips the reply xid (first four bytes of an ONC reply).
type xidCorruptor struct{ Conn }

func (c *xidCorruptor) Recv() ([]byte, error) {
	msg, err := c.Conn.Recv()
	if err == nil && len(msg) >= 4 {
		x := binary.BigEndian.Uint32(msg)
		binary.BigEndian.PutUint32(msg, x^0xdeadbeef)
	}
	return msg, err
}

func TestBadXIDCounted(t *testing.T) {
	conn, _, _ := startObservedServer(t)

	c := NewClient(&xidCorruptor{conn}, ONC{})
	c.Prog, c.Vers = 7, 1
	cm := NewMetrics()
	c.Metrics = cm

	_, err := c.Do(nil, doubleOp, func(e *Encoder) { e.PutU32BEC(1) })
	if !errors.Is(err, ErrBadXID) {
		t.Fatalf("err = %v, want ErrBadXID", err)
	}
	if got := cm.BadXIDs.Load(); got != 1 {
		t.Errorf("bad xids = %d", got)
	}
	if op := findOp(t, cm.Snapshot(), "double"); op.Errors != 1 {
		t.Errorf("double errors = %d", op.Errors)
	}
}

// --- Serve connection-error routing ----------------------------------------

// failConn errors on the first Recv with a non-EOF failure.
type failConn struct{ recvErr error }

func (c *failConn) Send([]byte) error     { return nil }
func (c *failConn) Recv() ([]byte, error) { return nil, c.recvErr }
func (c *failConn) Close() error          { return nil }

// oneShotListener yields one connection, then blocks until closed.
type oneShotListener struct {
	conn Conn
	once sync.Once
	ch   chan Conn
}

func newOneShotListener(c Conn) *oneShotListener {
	l := &oneShotListener{conn: c, ch: make(chan Conn, 1)}
	l.ch <- c
	return l
}

func (l *oneShotListener) Accept() (Conn, error) {
	c, ok := <-l.ch
	if !ok {
		return nil, ErrClosed
	}
	return c, nil
}
func (l *oneShotListener) Close() error { l.once.Do(func() { close(l.ch) }); return nil }
func (l *oneShotListener) Addr() string { return "test" }

func TestServeRoutesConnErrors(t *testing.T) {
	s := NewServer(ONC{})
	s.Metrics = NewMetrics()
	tr := &Tracer{Seed: 3}
	s.Tracer = tr

	l := newOneShotListener(&failConn{recvErr: errors.New("wire torn")})
	go func() {
		time.Sleep(5 * time.Millisecond)
		l.Close()
	}()
	if err := s.Serve(l); !errors.Is(err, ErrClosed) {
		t.Fatalf("Serve = %v", err)
	}
	// Give the per-connection goroutine time to record the failure.
	deadline := time.Now().Add(time.Second)
	for (s.Metrics.ConnErrors.Load() == 0 || len(connErrSpans(tr)) == 0) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := s.Metrics.ConnErrors.Load(); got != 1 {
		t.Fatalf("conn errors = %d", got)
	}
	spans := connErrSpans(tr)
	if len(spans) != 1 || !strings.Contains(spans[0].Err, "wire torn") {
		t.Errorf("conn-error spans = %+v, want one carrying the transport error", spans)
	}
}

// --- zero-cost disabled path ------------------------------------------------

// TestCallAllocsUnchanged guards the call path's steady-state
// allocations: a loopback call whose caller releases the reply decoder
// (the ownership contract generated stubs follow) costs exactly one
// allocation — the in-process pipe's copy of the request — with no
// tracer attached and with a tracer whose sampler declines. Skipping
// the Release would cost two more (the reply buffer and the decoder
// both miss their pools), so the budget leaves no slack for a per-call
// struct that escapes to the heap.
func TestCallAllocsUnchanged(t *testing.T) {
	budget := 1.0
	if raceEnabled {
		// The race detector makes sync.Pool drop a random share of Puts
		// (3 allocs/op measured), so the race run keeps the old ceiling.
		budget = 5
	}
	for _, tc := range []struct {
		name   string
		tracer *Tracer
	}{
		{"no-tracer", nil},
		{"unsampled-tracer", &Tracer{SampleRate: 0, Seed: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, _, _ := startObservedServer(t)
			c := NewClient(conn, ONC{})
			c.Prog, c.Vers = 7, 1
			c.Tracer = tc.tracer
			marshal := func(e *Encoder) { e.PutU32BEC(4) }
			avg := testing.AllocsPerRun(300, func() {
				d, err := c.Do(nil, doubleOp, marshal)
				if err != nil {
					t.Fatal(err)
				}
				d.Release()
			})
			if avg > budget {
				t.Errorf("released call allocates %.2f/op (budget %.0f)", avg, budget)
			}
		})
	}
}

func TestObservePathAllocs(t *testing.T) {
	var h Histogram
	if avg := testing.AllocsPerRun(100, func() { h.Observe(time.Microsecond) }); avg != 0 {
		t.Errorf("Observe allocates %.1f/op", avg)
	}
	m := NewMetrics()
	m.Op("warm") // pre-register so the steady state is measured
	if avg := testing.AllocsPerRun(100, func() { m.Op("warm").Calls.Add(1) }); avg != 0 {
		t.Errorf("Op+Add allocates %.1f/op", avg)
	}
	var e Encoder
	e.Grow(1 << 12)
	e.Reset()
	if avg := testing.AllocsPerRun(100, func() { e.Reset(); e.Grow(64) }); avg != 0 {
		t.Errorf("Grow allocates %.1f/op after warmup", avg)
	}
}

// --- benchmarks -------------------------------------------------------------

// benchClient measures loopback calls that release their reply decoder
// as generated stubs do, so every call recycles pooled buffers.
func benchClient(b *testing.B, metrics *Metrics, tracer *Tracer) {
	clientEnd, serverEnd := Pipe()
	s := NewServer(ONC{})
	s.Register(7, 1, echoDispatch)
	done := make(chan struct{})
	go func() { defer close(done); s.ServeConn(serverEnd) }()
	b.Cleanup(func() { clientEnd.Close(); <-done })

	c := NewClient(clientEnd, ONC{})
	c.Prog, c.Vers = 7, 1
	c.Metrics = metrics
	c.Tracer = tracer
	marshal := func(e *Encoder) { e.PutU32BEC(4) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := c.Do(nil, doubleOp, marshal)
		if err != nil {
			b.Fatal(err)
		}
		d.Release()
	}
}

func BenchmarkClientCall(b *testing.B)        { benchClient(b, nil, nil) }
func BenchmarkClientCallMetrics(b *testing.B) { benchClient(b, NewMetrics(), nil) }
func BenchmarkClientCallTraced(b *testing.B) {
	benchClient(b, NewMetrics(), &Tracer{SampleRate: 1})
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i))
	}
}

func BenchmarkSnapshotWrite(b *testing.B) {
	m := NewMetrics()
	for i := 0; i < 8; i++ {
		op := m.Op(fmt.Sprintf("op-%d", i))
		op.Calls.Add(uint64(i))
		op.Latency.Observe(time.Duration(i) * time.Microsecond)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Snapshot().WriteTo(io.Discard)
	}
}
