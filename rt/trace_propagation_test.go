package rt

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// End-to-end trace propagation: the annotation must survive every
// transport the runtime stacks under a call — fault injection, CRC
// framing, adaptive batching, pool failover — and the spans recorded on
// both ends must reassemble into one tree per call.

// startTracedServer runs an ONC echo server with the given tracer on a
// fresh pipe and returns the client end.
func startTracedServer(t *testing.T, tr *Tracer) Conn {
	t.Helper()
	clientEnd, serverEnd := Pipe()
	s := NewServer(ONC{})
	s.Workers = 2
	s.Tracer = tr
	s.Register(7, 1, echoDispatch)
	done := make(chan struct{})
	go func() { defer close(done); s.ServeConn(serverEnd) }()
	t.Cleanup(func() { clientEnd.Close(); <-done })
	return clientEnd
}

// waitSpans polls until the ring holds at least n spans (server dispatch
// spans are recorded after the reply is sent, so the client may observe
// its reply first).
func waitSpans(t *testing.T, tr *Tracer, n int) []*Span {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if spans := tr.Spans(); len(spans) >= n {
			return spans
		}
		if time.Now().After(deadline) {
			t.Fatalf("ring holds %d spans, want at least %d", len(tr.Spans()), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// assertCallTree checks one trace's spans form the canonical shape:
// a client call root, attempt children under it, and a server dispatch
// span parented to the exact attempt that carried the request.
func assertCallTree(t *testing.T, spans []*Span) {
	t.Helper()
	var root *Span
	byID := make(map[uint64]*Span)
	for _, sp := range spans {
		byID[sp.ID] = sp
		if sp.Parent == 0 {
			if root != nil {
				t.Fatalf("trace %s has two roots (%s and %s)", sp.Trace, root.Kind, sp.Kind)
			}
			root = sp
		}
	}
	if root == nil {
		t.Fatalf("trace has no root among %d spans", len(spans))
	}
	var dispatches int
	for _, sp := range spans {
		if sp == root {
			continue
		}
		parent, ok := byID[sp.Parent]
		if !ok {
			t.Fatalf("%s span %016x is an orphan (parent %016x not in trace)", sp.Kind, sp.ID, sp.Parent)
		}
		switch sp.Kind {
		case SpanAttempt:
			if parent.Kind != SpanClientCall {
				t.Errorf("attempt's parent is a %s span, want call", parent.Kind)
			}
		case SpanServerDispatch:
			dispatches++
			if parent.Kind != SpanAttempt {
				t.Errorf("dispatch's parent is a %s span, want attempt", parent.Kind)
			}
			if parent.XID != sp.XID {
				t.Errorf("dispatch XID %d != carrying attempt's XID %d", sp.XID, parent.XID)
			}
		}
	}
	if dispatches == 0 {
		t.Error("trace reached the server but recorded no dispatch span")
	}
}

func TestTracePropagatesThroughFaultAndChecksum(t *testing.T) {
	tr := &Tracer{SampleRate: 1, Seed: 11}
	clientEnd, serverEnd := Pipe()
	s := NewServer(ONC{})
	s.Workers = 2
	s.Tracer = tr
	s.Register(7, 1, echoDispatch)
	done := make(chan struct{})
	go func() { defer close(done); s.ServeConn(WrapChecksum(serverEnd)) }()
	t.Cleanup(func() { clientEnd.Close(); <-done })

	fc, err := NewFaultConn(clientEnd, FaultPlan{Seed: 1, Delay: 0.5, DelayMax: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	c := newEchoClient(WrapChecksum(fc))
	c.Tracer = tr

	const calls = 5
	for i := 0; i < calls; i++ {
		doubleCall(t, c, uint32(i+1))
	}
	// Each call records: call root + attempt + server dispatch.
	spans := waitSpans(t, tr, 3*calls)
	byTrace := SpansByTrace(spans)
	if len(byTrace) != calls {
		t.Fatalf("got %d traces, want %d", len(byTrace), calls)
	}
	for _, group := range byTrace {
		assertCallTree(t, group)
	}
}

func TestTracePropagatesThroughBatch(t *testing.T) {
	tr := &Tracer{SampleRate: 1, Seed: 13}
	inner := startTracedServer(t, tr)
	bc := NewBatchConn(inner, BatchConfig{MaxDelay: time.Millisecond, Tracer: tr})
	c := newEchoClient(bc)
	c.Tracer = tr
	defer bc.Close()

	// Concurrent callers give the coalescing writer something to pack:
	// the annotation rides inside each packed message, so the context
	// must survive batching and server-side unbatching.
	const calls = 8
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, err := c.Do(nil, doubleOp, func(e *Encoder) { e.PutU32BEC(uint32(i + 1)) })
			if err != nil {
				t.Error(err)
				return
			}
			d.Release()
		}(i)
	}
	wg.Wait()

	spans := waitSpans(t, tr, 3*calls)
	var traces int
	for _, group := range SpansByTrace(spans) {
		if group[0].Kind == SpanBatchFlush {
			continue // local batch-writer roots, not call trees
		}
		traces++
		assertCallTree(t, group)
	}
	if traces != calls {
		t.Fatalf("got %d call traces, want %d", traces, calls)
	}
}

func TestPoolFailoverKeepsTrace(t *testing.T) {
	tr := &Tracer{SampleRate: 1, Seed: 17}
	const size = 2
	kill := make([]func(), size)
	var killed [size]atomic.Bool
	dial := func(i int) (Conn, error) {
		if killed[i].Load() {
			return nil, errors.New("session's backend is gone")
		}
		clientEnd, serverEnd := Pipe()
		s := NewServer(ONC{})
		s.Workers = 2
		s.Tracer = tr
		s.Register(7, 1, echoDispatch)
		done := make(chan struct{})
		go func() { defer close(done); s.ServeConn(serverEnd) }()
		kill[i] = func() { killed[i].Store(true); serverEnd.Close() }
		t.Cleanup(func() { clientEnd.Close(); <-done })
		return clientEnd, nil
	}
	p, err := NewClientPool(PoolConfig{
		Size: size, Dial: dial, Proto: ONC{}, Prog: 7, Vers: 1,
		Retry:  &RetryPolicy{MaxAttempts: 1},
		Redial: true, // keeps the dead session in dispatch: failover happens at call time
		Tracer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	poolDouble(t, p, 1) // warm
	kill[0]()
	time.Sleep(5 * time.Millisecond) // let session 0's reader observe the close

	// Round-robin prefers session 1 next, so call twice: one of the two
	// is dispatched to the dead session 0 and must fail over — inside
	// the same trace.
	poolDouble(t, p, 2)
	poolDouble(t, p, 3)

	var failedOver []*Span
	for _, group := range SpansByTrace(tr.Spans()) {
		root := group[0]
		if root.Kind != SpanPoolCall {
			continue
		}
		for _, ev := range root.Events {
			if ev.Cause == "failover" {
				failedOver = group
			}
		}
	}
	if failedOver == nil {
		t.Fatal("no trace with a failover event on its pool root")
	}

	// The failed-over trace holds ONE trace ID end to end: the pool
	// root, a call span per session tried (the dead one errored, the
	// survivor succeeded), and the survivor's server-side dispatch.
	var calls, dispatches, callErrs int
	for _, sp := range failedOver {
		switch sp.Kind {
		case SpanClientCall:
			calls++
			if sp.Err != "" {
				callErrs++
			}
		case SpanServerDispatch:
			dispatches++
		}
		if sp.Trace != failedOver[0].Trace {
			t.Fatal("span escaped its trace") // unreachable by construction; documents intent
		}
	}
	if calls < 2 || callErrs == 0 {
		t.Errorf("failed-over trace has %d call spans (%d failed), want ≥2 with ≥1 failure", calls, callErrs)
	}
	if dispatches == 0 {
		t.Error("failed-over trace never reached a server")
	}
}

// connErrSpans returns the SpanConnError spans in tr's ring.
func connErrSpans(tr *Tracer) []*Span {
	var out []*Span
	for _, sp := range tr.Spans() {
		if sp.Kind == SpanConnError {
			out = append(out, sp)
		}
	}
	return out
}

// TestClientPoisonReportsConnError pins the teardown reporting: a
// connection poisoned under the client (peer gone mid-call) must count
// in Metrics.ConnErrors AND be recorded — even by a tracer that samples
// nothing — as a SpanConnError span carrying the pool session index
// and the teardown error, not only as the individual calls' failures.
func TestClientPoisonReportsConnError(t *testing.T) {
	clientEnd, serverEnd := Pipe()
	c := newEchoClient(clientEnd)
	c.Metrics = NewMetrics()
	tr := &Tracer{SampleRate: 0, Seed: 5}
	c.Tracer = tr
	c.Shard = 3
	defer clientEnd.Close()

	// Park a call, then kill the peer: the reply reader poisons the
	// session and drains the pending call.
	swallowed := make(chan struct{})
	go func() { serverEnd.Recv(); close(swallowed) }()
	errc := make(chan error, 1)
	go func() {
		_, err := c.Do(nil, doubleOp, func(e *Encoder) { e.PutU32BEC(1) })
		errc <- err
	}()
	<-swallowed
	serverEnd.Close()
	if err := <-errc; err == nil {
		t.Fatal("call survived its peer's death")
	}
	if got := c.Metrics.ConnErrors.Load(); got == 0 {
		t.Error("poisoned connection not counted in ConnErrors")
	}
	spans := connErrSpans(tr)
	if len(spans) == 0 {
		t.Fatal("no SpanConnError span recorded")
	}
	if sp := spans[0]; sp.Sess != 3 || sp.Err == "" || sp.Sampled {
		t.Errorf("conn-error span = sess %d err %q sampled %v, want sess 3 with the teardown error, unsampled", sp.Sess, sp.Err, sp.Sampled)
	}
}

func TestDupCachedResendRefusalSpan(t *testing.T) {
	tr := &Tracer{SampleRate: 1, Seed: 19}
	clientEnd, serverEnd := Pipe()
	s := NewServer(ONC{})
	s.Workers = 1
	s.DupWindow = 8
	s.Tracer = tr
	s.Register(7, 1, echoDispatch)
	done := make(chan struct{})
	go func() { defer close(done); s.ServeConn(serverEnd) }()
	t.Cleanup(func() { clientEnd.Close(); <-done })

	// Hand-craft one annotated request and retransmit it after the
	// reply arrives: the server must answer the duplicate from its
	// reply cache and record a refusal span parented to the attempt
	// that carried the duplicate.
	tc, _ := tr.sampleRoot()
	var e Encoder
	writeTraceContext(&e, tc)
	ONC{}.WriteRequest(&e, &ReqHeader{XID: 77, Prog: 7, Vers: 1, Proc: 1, OpName: "double"})
	e.PutU32BEC(21)
	req := append([]byte(nil), e.Bytes()...)

	recvReply := func() []byte {
		reply, err := clientEnd.Recv()
		if err != nil {
			t.Fatal(err)
		}
		return reply
	}
	if err := clientEnd.Send(req); err != nil {
		t.Fatal(err)
	}
	first := append([]byte(nil), recvReply()...)
	if err := clientEnd.Send(req); err != nil { // the retransmission
		t.Fatal(err)
	}
	second := recvReply()
	if string(first) != string(second) {
		t.Error("cached resend differs from the original reply")
	}

	var refusal *Span
	for _, sp := range waitSpans(t, tr, 2) {
		for _, ev := range sp.Events {
			if ev.Cause == "dup-cached-resend" {
				refusal = sp
			}
		}
	}
	if refusal == nil {
		t.Fatal("no dup-cached-resend refusal span recorded")
	}
	if refusal.Kind != SpanServerDispatch || refusal.Trace != tc.TraceID || refusal.Parent != tc.SpanID {
		t.Errorf("refusal span = kind %s trace %s parent %016x, want dispatch under the carrying attempt",
			refusal.Kind, refusal.Trace, refusal.Parent)
	}
}
