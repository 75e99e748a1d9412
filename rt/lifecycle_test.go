package rt

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for the call-lifecycle robustness layer: wire-propagated
// deadlines, client-driven cancellation, lameduck drain, the hedging
// safety gate, breaker half-open discipline, and duplicate suppression
// across a redial. Run with -race.

// startDrainableServer serves dispatch on one end of a pipe and returns
// the Server (so tests can Drain it) plus the client end. The server
// always carries Metrics so shed counters can be asserted.
func startDrainableServer(t *testing.T, dispatch Dispatch) (*Server, Conn) {
	t.Helper()
	clientEnd, serverEnd := Pipe()
	s := NewServer(ONC{})
	s.Workers = 2
	s.Metrics = NewMetrics()
	s.Register(7, 1, dispatch)
	done := make(chan struct{})
	go func() { defer close(done); s.ServeConn(serverEnd) }()
	t.Cleanup(func() { clientEnd.Close(); <-done })
	return s, clientEnd
}

// waitUntil polls cond up to the deadline; a miss fails the test.
func waitUntil(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDeadlineTravelsToHandler: a ctx deadline on Do arrives at
// the handler as ReqHeader.{HasDeadline,Deadline} with the remaining
// budget, and a deadline-less call arrives without one.
func TestDeadlineTravelsToHandler(t *testing.T) {
	type obs struct {
		has    bool
		budget time.Duration
	}
	seen := make(chan obs, 4)
	_, conn := startDrainableServer(t, func(h *ReqHeader, d *Decoder, e *Encoder) error {
		seen <- obs{h.HasDeadline, time.Until(h.Deadline)}
		return echoDispatch(h, d, e)
	})
	c := newEchoClient(conn)

	const budget = 500 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	d, err := c.Do(ctx, doubleOp, func(e *Encoder) { e.PutU32BEC(21) })
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if !d.Ensure(4) || d.U32BE() != 42 {
		t.Fatalf("bad reply: %v", d.Err())
	}
	d.Release()
	o := <-seen
	if !o.has {
		t.Fatal("handler saw no deadline from a deadline-carrying ctx")
	}
	if o.budget <= 0 || o.budget > budget {
		t.Errorf("handler budget = %v, want in (0, %v]", o.budget, budget)
	}

	doubleCall(t, c, 5)
	if o := <-seen; o.has {
		t.Error("deadline-less call arrived with HasDeadline set")
	}
}

// recordingConn captures every frame Send transmits.
type recordingConn struct {
	Conn
	mu    sync.Mutex
	sends [][]byte
}

func (r *recordingConn) Send(msg []byte) error {
	r.mu.Lock()
	r.sends = append(r.sends, append([]byte(nil), msg...))
	r.mu.Unlock()
	return r.Conn.Send(msg)
}

func (r *recordingConn) take() [][]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.sends
	r.sends = nil
	return out
}

// TestDeadlineWireBytes pins the compatibility contract: Do with a
// deadline-less ctx emits frames byte-identical (modulo XID) to a nil
// ctx, and only a deadline-carrying ctx adds the 16-byte annotation
// prefix.
func TestDeadlineWireBytes(t *testing.T) {
	rec := &recordingConn{Conn: startEchoServer(t, 1)}
	c := newEchoClient(rec)
	marshal := func(e *Encoder) { e.PutU32BEC(21) }

	if d, err := c.Do(nil, doubleOp, marshal); err != nil {
		t.Fatal(err)
	} else {
		d.Release()
	}
	if d, err := c.Do(context.Background(), doubleOp, marshal); err != nil {
		t.Fatal(err)
	} else {
		d.Release()
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if d, err := c.Do(ctx, doubleOp, marshal); err != nil {
		t.Fatal(err)
	} else {
		d.Release()
	}

	frames := rec.take()
	if len(frames) != 3 {
		t.Fatalf("captured %d frames, want 3", len(frames))
	}
	plain, ctxless, deadlined := frames[0], frames[1], frames[2]
	// The ONC XID is the leading u32; everything after it must match.
	if len(plain) != len(ctxless) || !bytes.Equal(plain[4:], ctxless[4:]) {
		t.Errorf("Do(Background) changed the wire bytes: %x vs %x", plain, ctxless)
	}
	if _, _, has := SplitDeadline(ctxless); has {
		t.Error("ctx-less frame carries a deadline annotation")
	}
	budget, rest, has := SplitDeadline(deadlined)
	if !has {
		t.Fatal("deadline-carrying frame has no annotation")
	}
	if budget <= 0 || budget > time.Second {
		t.Errorf("wire budget = %v, want in (0, 1s]", budget)
	}
	if len(deadlined) != len(plain)+deadlineWireSize {
		t.Errorf("annotation cost %d bytes, want %d", len(deadlined)-len(plain), deadlineWireSize)
	}
	if !bytes.Equal(rest[4:], plain[4:]) {
		t.Error("annotated frame's inner message differs from the plain frame")
	}
}

// TestExpiredOnArrivalShed: a request whose wire budget is already zero
// is refused with ReplyExpired before dispatch — the handler never
// runs, and the shed is counted.
func TestExpiredOnArrivalShed(t *testing.T) {
	var ran atomic.Bool
	s, conn := startDrainableServer(t, func(h *ReqHeader, d *Decoder, e *Encoder) error {
		ran.Store(true)
		return echoDispatch(h, d, e)
	})

	var e Encoder
	writeDeadline(&e, 0)
	ONC{}.WriteRequest(&e, &ReqHeader{XID: 99, Prog: 7, Vers: 1, Proc: 1})
	e.PutU32BEC(21)
	if err := conn.Send(e.Bytes()); err != nil {
		t.Fatal(err)
	}
	msg := recvWithin(t, conn, 2*time.Second)
	var d Decoder
	d.Reset(msg)
	rh, err := ONC{}.ReadReply(&d)
	if err != nil {
		t.Fatalf("reply: %v", err)
	}
	if rh.XID != 99 || rh.Status != ReplyExpired {
		t.Errorf("reply xid=%d status=%d, want xid=99 status=ReplyExpired", rh.XID, rh.Status)
	}
	if ran.Load() {
		t.Error("handler ran for an expired-on-arrival request")
	}
	if got := s.Metrics.ExpiredRejects.Load(); got != 1 {
		t.Errorf("ExpiredRejects = %d, want 1", got)
	}
}

// TestClientMapsReplyExpired: a ReplyExpired status surfaces as
// ErrExpired, is terminal for the retry loop, and does not trip the
// breaker (the server refused cheaply; the session is healthy).
func TestClientMapsReplyExpired(t *testing.T) {
	clientEnd, serverEnd := Pipe()
	t.Cleanup(func() { clientEnd.Close(); serverEnd.Close() })
	go func() {
		for {
			msg, err := serverEnd.Recv()
			if err != nil {
				return
			}
			_, msg, _ = SplitDeadline(msg)
			var d Decoder
			d.Reset(msg)
			h, err := ONC{}.ReadRequest(&d)
			if err != nil {
				return
			}
			var e Encoder
			ONC{}.WriteReply(&e, &RepHeader{XID: h.XID, Status: ReplyExpired})
			if serverEnd.Send(e.Bytes()) != nil {
				return
			}
		}
	}()

	c := newEchoClient(clientEnd)
	c.Retry = &RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond}
	c.Breaker = &Breaker{Threshold: 2, Cooldown: time.Minute}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_, err := c.Do(ctx, doubleIdemOp, func(e *Encoder) { e.PutU32BEC(1) })
	if !errors.Is(err, ErrExpired) {
		t.Fatalf("err = %v, want ErrExpired", err)
	}
	if !errors.Is(err, ErrNotRetryable) {
		t.Errorf("ErrExpired must be terminal (classified not-retryable), got %v", err)
	}
	if st := c.Breaker.State(); st != BreakerClosed {
		t.Errorf("breaker = %v after a zero-work refusal, want closed", st)
	}
}

// TestCtxCanceledWhileMarshalingNeverSent: a ctx canceled while the
// request is being marshaled — what a hedged call's losing attempt sees
// once the race is decided — fails the call with context.Canceled and
// puts nothing on the wire.
func TestCtxCanceledWhileMarshalingNeverSent(t *testing.T) {
	rec := &recordingConn{Conn: startEchoServer(t, 1)}
	c := newEchoClient(rec)
	ctx, cancel := context.WithCancel(context.Background())
	_, err := c.Do(ctx, doubleOp, func(e *Encoder) { cancel() })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sent := rec.take(); len(sent) != 0 {
		t.Errorf("%d frames sent for a call canceled while marshaling", len(sent))
	}
	doubleCall(t, c, 3) // the session is unharmed
}

// TestCtxCancelMidCall: canceling the caller's ctx returns immediately
// with context.Canceled, emits a cancel frame, and releases the
// handler's context server-side.
func TestCtxCancelMidCall(t *testing.T) {
	started := make(chan struct{}, 1)
	released := make(chan struct{}, 1)
	s, conn := startDrainableServer(t, func(h *ReqHeader, d *Decoder, e *Encoder) error {
		hctx := h.Context()
		started <- struct{}{}
		select {
		case <-hctx.Done():
			released <- struct{}{}
		case <-time.After(2 * time.Second):
		}
		return errors.New("abandoned")
	})
	c := newEchoClient(conn)
	c.Metrics = NewMetrics()

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := c.Do(ctx, doubleOp, func(e *Encoder) { e.PutU32BEC(1) })
		errCh <- err
	}()
	<-started
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := c.Metrics.CancelsSent.Load(); got != 1 {
		t.Errorf("CancelsSent = %d, want 1", got)
	}
	select {
	case <-released:
	case <-time.After(2 * time.Second):
		t.Fatal("handler context was never canceled by the cancel frame")
	}
	waitUntil(t, 2*time.Second, func() bool { return s.Metrics.CanceledCalls.Load() >= 1 },
		"server never counted the released call")
}

// TestCtxDeadlineExceededMidWait: a ctx deadline shorter than the
// client's own Timeout surfaces as context.DeadlineExceeded, not
// ErrTimeout — the caller's budget expired, not the transport's.
func TestCtxDeadlineExceededMidWait(t *testing.T) {
	_, conn := startDrainableServer(t, func(h *ReqHeader, d *Decoder, e *Encoder) error {
		// Stall well past the ctx deadline (but inside the client's own
		// Timeout) so the reply cannot race the expiry.
		time.Sleep(300 * time.Millisecond)
		return echoDispatch(h, d, e)
	})
	c := newEchoClient(conn)
	c.Timeout = 5 * time.Second

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := c.Do(ctx, doubleOp, func(e *Encoder) { e.PutU32BEC(1) })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if errors.Is(err, ErrTimeout) {
		t.Error("ctx expiry must not be classified as the client's own timeout")
	}
}

// TestDrainHappyPath: with nothing in flight, Drain settles cleanly,
// the client observes exactly one GOAWAY, and the session reports
// unhealthy so pools migrate.
func TestDrainHappyPath(t *testing.T) {
	s, conn := startDrainableServer(t, echoDispatch)
	c := newEchoClient(conn)
	c.Metrics = NewMetrics()
	doubleCall(t, c, 7)

	if !s.Drain(time.Second) {
		t.Error("Drain with nothing in flight reported stragglers")
	}
	if !s.Draining() {
		t.Error("Draining() = false after Drain")
	}
	waitUntil(t, 2*time.Second, func() bool { return c.Metrics.GoAways.Load() == 1 },
		"client never observed the GOAWAY frame")
	waitUntil(t, 2*time.Second, func() bool { return !c.Healthy() },
		"drained session still reports healthy")
}

// TestDrainKillsStragglers: a handler that outlives the drain deadline
// is canceled at the deadline instead of holding the socket open, and
// Drain reports the unclean settle.
func TestDrainKillsStragglers(t *testing.T) {
	started := make(chan struct{}, 1)
	released := make(chan struct{}, 1)
	s, conn := startDrainableServer(t, func(h *ReqHeader, d *Decoder, e *Encoder) error {
		hctx := h.Context()
		started <- struct{}{}
		select {
		case <-hctx.Done():
			released <- struct{}{}
		case <-time.After(5 * time.Second):
		}
		return nil
	})
	c := newEchoClient(conn)
	c.Timeout = 10 * time.Second
	errCh := make(chan error, 1)
	go func() {
		_, err := c.Do(nil, doubleOp, func(e *Encoder) { e.PutU32BEC(1) })
		errCh <- err
	}()
	<-started

	if s.Drain(50 * time.Millisecond) {
		t.Error("Drain with a blocked handler reported a clean settle")
	}
	select {
	case <-released:
	case <-time.After(2 * time.Second):
		t.Fatal("drain deadline did not cancel the straggling handler")
	}
	// The canceled handler returns and its reply may race the socket
	// close; either outcome is fine — the invariants are that Drain
	// reported the overrun and the straggler was released promptly.
	<-errCh
}

// TestDrainUnblocksStreamSender pins the satellite regression: a
// credit-starved StreamSender blocked in Send must be released promptly
// by the drain deadline with ErrStreamCanceled — not left to hang until
// its own timeout while the socket closes under it.
func TestDrainUnblocksStreamSender(t *testing.T) {
	var sent atomic.Uint64
	senderErr := make(chan error, 1)
	s, conn := startDrainableServer(t, func(h *ReqHeader, d *Decoder, e *Encoder) error {
		h.OpName = "count"
		h.OneWay = true
		sn := NewStreamSender(h)
		var ferr error
		for i := uint32(0); i < 100; i++ {
			if err := sn.Send(func(e *Encoder) { e.PutU32BEC(i) }); err != nil {
				ferr = err
				break
			}
			sent.Add(1)
		}
		senderErr <- ferr
		sn.Finish(ferr)
		return nil
	})
	c := newEchoClient(conn)
	// Window 1: the first chunk consumes all credit and the second Send
	// blocks; we never Recv, so no more credit ever arrives.
	if _, err := c.Stream(nil, &Op{Proc: 5, Name: "count"}, 1, func(e *Encoder) {}); err != nil {
		t.Fatalf("Stream: %v", err)
	}
	waitUntil(t, 2*time.Second, func() bool { return sent.Load() == 1 },
		"sender never transmitted its first chunk")

	begin := time.Now()
	if s.Drain(50 * time.Millisecond) {
		t.Error("Drain with a blocked sender reported a clean settle")
	}
	select {
	case err := <-senderErr:
		if !errors.Is(err, ErrStreamCanceled) {
			t.Errorf("sender unblocked with %v, want ErrStreamCanceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("drain left the credit-starved sender blocked")
	}
	if waited := time.Since(begin); waited > time.Second {
		t.Errorf("sender took %v to unblock; the drain deadline should release it promptly", waited)
	}
}

// TestGoAwayMigratesPool: draining one server of a two-server pool
// marks its session unhealthy via GOAWAY and the pool carries all
// subsequent traffic on the survivor.
func TestGoAwayMigratesPool(t *testing.T) {
	servers := make([]*Server, 2)
	for i := range servers {
		s := NewServer(ONC{})
		s.Workers = 2
		s.Register(7, 1, echoDispatch)
		servers[i] = s
	}
	var serveWG sync.WaitGroup
	cm := NewMetrics()
	p, err := NewClientPool(PoolConfig{
		Size: 2,
		Dial: func(i int) (Conn, error) {
			clientEnd, serverEnd := Pipe()
			serveWG.Add(1)
			go func() { defer serveWG.Done(); servers[i].ServeConn(serverEnd) }()
			return clientEnd, nil
		},
		Proto: ONC{}, Prog: 7, Vers: 1,
		Timeout: 2 * time.Second,
		Metrics: cm,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close(); serveWG.Wait() })

	for i := 1; i <= 4; i++ {
		poolDouble(t, p, uint32(i))
	}
	if !servers[0].Drain(time.Second) {
		t.Error("idle server drained uncleanly")
	}
	waitUntil(t, 2*time.Second, func() bool { return p.Healthy() == 1 },
		"pool never marked the drained session unhealthy")
	if cm.GoAways.Load() == 0 {
		t.Error("no GOAWAY counted at the client")
	}
	// Every post-drain call lands on the survivor and succeeds: the
	// rolling restart lost nothing.
	for i := 1; i <= 20; i++ {
		poolDouble(t, p, uint32(i))
	}
}

// TestBreakerHalfOpenConcurrentProbes pins the half-open discipline:
// after the cooldown, exactly one of N concurrent callers is admitted
// as the probe; a probe success recloses, a probe failure reopens.
func TestBreakerHalfOpenConcurrentProbes(t *testing.T) {
	b := &Breaker{Threshold: 1, Cooldown: 20 * time.Millisecond}
	if !b.allow() {
		t.Fatal("closed breaker refused a call")
	}
	b.failure()
	if st := b.State(); st != BreakerOpen {
		t.Fatalf("state = %v after threshold failures, want open", st)
	}
	if b.allow() {
		t.Error("open breaker admitted a call before the cooldown")
	}

	time.Sleep(30 * time.Millisecond)
	const probes = 16
	var admitted atomic.Int32
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < probes; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if b.allow() {
				admitted.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := admitted.Load(); got != 1 {
		t.Fatalf("half-open admitted %d of %d concurrent callers, want exactly 1 probe", got, probes)
	}
	if st := b.State(); st != BreakerHalfOpen {
		t.Errorf("state = %v while the probe is out, want half-open", st)
	}
	b.success()
	if st := b.State(); st != BreakerClosed {
		t.Errorf("state = %v after probe success, want closed", st)
	}

	// Round two: a failing probe goes straight back to open, and the
	// reopened breaker sheds immediately.
	b.failure()
	time.Sleep(30 * time.Millisecond)
	if !b.allow() {
		t.Fatal("no probe admitted after the second cooldown")
	}
	b.failure()
	if st := b.State(); st != BreakerOpen {
		t.Errorf("state = %v after probe failure, want open", st)
	}
	if b.allow() {
		t.Error("breaker admitted a call immediately after a failed probe")
	}
}

// TestDupCacheAcrossRedial: duplicate suppression is scoped to one
// connection. Within a connection, a retransmitted XID is answered from
// the reply cache without re-dispatch; after a redial the same XID is a
// fresh call (XIDs are per-session) and must re-dispatch. Counters are
// asserted via Snapshot.Sub deltas.
func TestDupCacheAcrossRedial(t *testing.T) {
	var calls atomic.Int32
	s := NewServer(ONC{})
	s.Workers = 2
	s.DupWindow = 64
	s.Metrics = NewMetrics()
	s.Register(7, 1, func(h *ReqHeader, d *Decoder, e *Encoder) error {
		calls.Add(1)
		return echoDispatch(h, d, e)
	})
	dial := func() (Conn, chan struct{}) {
		clientEnd, serverEnd := Pipe()
		done := make(chan struct{})
		go func() { defer close(done); s.ServeConn(serverEnd) }()
		return clientEnd, done
	}
	req := oncRequest(42, 1, 21)

	conn1, done1 := dial()
	base := s.Metrics.Snapshot()
	if err := conn1.Send(req); err != nil {
		t.Fatal(err)
	}
	reply1 := recvWithin(t, conn1, 2*time.Second)
	if err := conn1.Send(req); err != nil {
		t.Fatal(err)
	}
	reply2 := recvWithin(t, conn1, 2*time.Second)
	if !bytes.Equal(reply1, reply2) {
		t.Error("cached resend differs from the original reply")
	}
	afterDup := s.Metrics.Snapshot()
	if delta := afterDup.Sub(base); delta.DroppedDupes != 1 {
		t.Errorf("DroppedDupes delta = %d within one conn, want 1", delta.DroppedDupes)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("handler ran %d times for a retransmitted XID, want 1", got)
	}

	conn1.Close()
	<-done1
	conn2, done2 := dial()
	t.Cleanup(func() { conn2.Close(); <-done2 })
	if err := conn2.Send(req); err != nil {
		t.Fatal(err)
	}
	reply3 := recvWithin(t, conn2, 2*time.Second)
	if !bytes.Equal(reply1, reply3) {
		t.Error("re-dispatch on the new conn returned a different reply")
	}
	delta := s.Metrics.Snapshot().Sub(afterDup)
	if delta.DroppedDupes != 0 {
		t.Errorf("DroppedDupes delta = %d across a redial, want 0 (fresh cache)", delta.DroppedDupes)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("handler ran %d times after the redial, want 2 (same XID, new session)", got)
	}
}

// TestNonIdempotentNeverHedges pins the hedging safety gate: a pool
// with an aggressive hedge policy must refuse to hedge non-idempotent
// and oneway calls no matter how slow they run, while an idempotent
// call under the same latency does hedge.
func TestNonIdempotentNeverHedges(t *testing.T) {
	s := NewServer(ONC{})
	s.Workers = 8
	s.Register(7, 1, func(h *ReqHeader, d *Decoder, e *Encoder) error {
		time.Sleep(20 * time.Millisecond)
		return echoDispatch(h, d, e)
	})
	var serveWG sync.WaitGroup
	cm := NewMetrics()
	p, err := NewClientPool(PoolConfig{
		Size: 2,
		Dial: func(int) (Conn, error) {
			clientEnd, serverEnd := Pipe()
			serveWG.Add(1)
			go func() { defer serveWG.Done(); s.ServeConn(serverEnd) }()
			return clientEnd, nil
		},
		Proto: ONC{}, Prog: 7, Vers: 1,
		Timeout: 2 * time.Second,
		Hedge:   &HedgePolicy{Delay: 2 * time.Millisecond},
		Metrics: cm,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close(); serveWG.Wait() })

	// Non-idempotent: 20ms against a 2ms hedge delay, and still no hedge.
	for i := 1; i <= 4; i++ {
		d, err := p.Do(nil, doubleOp, func(e *Encoder) { e.PutU32BEC(uint32(i)) })
		if err != nil {
			t.Fatalf("non-idempotent call: %v", err)
		}
		d.Release()
	}
	if got := cm.HedgedCalls.Load(); got != 0 {
		t.Fatalf("pool hedged %d non-idempotent calls; a duplicate could execute twice", got)
	}
	// Oneway: nothing waits, nothing to hedge.
	if _, err := p.Do(nil, &Op{Proc: 3, Name: "note", Oneway: true, Idempotent: true}, func(e *Encoder) {}); err != nil {
		t.Fatalf("oneway call: %v", err)
	}
	if got := cm.HedgedCalls.Load(); got != 0 {
		t.Fatalf("pool hedged %d oneway calls", got)
	}
	// Idempotent control under the same latency: the gate opens.
	for i := 1; i <= 4; i++ {
		d, err := p.Do(nil, doubleIdemOp, func(e *Encoder) { e.PutU32BEC(uint32(i)) })
		if err != nil {
			t.Fatalf("idempotent call: %v", err)
		}
		d.Release()
	}
	if cm.HedgedCalls.Load() == 0 {
		t.Error("idempotent control never hedged — the gate assertions above are vacuous")
	}
}
