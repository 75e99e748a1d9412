package rt

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// Tests for the async/promise surface: Go transmits at issue
// time, Wait resolves through the shared classification loop, so a
// promise pipelines like the paper's §5 depth experiments and fails
// exactly like a sync call.

// TestPromisePipelined issues a window of async calls before collecting
// any reply: all requests must be in flight together (that is the point
// of the surface) and every promise must resolve to its own reply even
// though the server may answer out of order.
func TestPromisePipelined(t *testing.T) {
	before := ReadPoolStats()
	conn := startEchoServer(t, 4)
	c := newEchoClient(conn)

	const n = 32
	ps := make([]*Promise, n)
	for i := range ps {
		v := uint32(i + 1)
		ps[i] = c.Go(nil, doubleIdemOp, func(e *Encoder) { e.PutU32BEC(v) })
	}
	for i, p := range ps {
		d, err := p.Wait()
		if err != nil {
			t.Fatalf("promise %d: %v", i, err)
		}
		if !d.Ensure(4) {
			t.Fatalf("promise %d: %v", i, d.Err())
		}
		if got, want := d.U32BE(), uint32(2*(i+1)); got != want {
			t.Fatalf("promise %d = %d, want %d (reply cross-matched?)", i, got, want)
		}
		d.Release()
	}
	waitPoolBalance(t, before)
}

// TestPromiseOneway: a oneway op has no reply to collect, so its
// promise resolves to (nil, nil) once the request is sent, and the
// request still reaches the handler.
func TestPromiseOneway(t *testing.T) {
	conn, sm, _ := startObservedServer(t)
	c := newEchoClient(conn)
	note := &Op{Proc: 3, Name: "note", Oneway: true}
	if d, err := c.Go(nil, note, func(e *Encoder) {}).Wait(); d != nil || err != nil {
		t.Fatalf("oneway promise = (%v, %v), want (nil, nil)", d, err)
	}
	// The pipe delivers in order: once a later call is answered, the
	// note was dispatched.
	doubleCall(t, c, 1)
	if got := sm.Op("note").Calls.Load(); got != 1 {
		t.Errorf("server saw %d notes, want 1", got)
	}
}

// TestPromiseSettledOnce pins the single-shot contract: the second Wait
// reports ErrPromiseSettled instead of touching the consumed slot.
func TestPromiseSettledOnce(t *testing.T) {
	conn := startEchoServer(t, 1)
	c := newEchoClient(conn)

	p := c.Go(nil, doubleIdemOp, func(e *Encoder) { e.PutU32BEC(21) })
	d, err := p.Wait()
	if err != nil {
		t.Fatal(err)
	}
	d.Release()
	if _, err := p.Wait(); !errors.Is(err, ErrPromiseSettled) {
		t.Fatalf("second Wait = %v, want ErrPromiseSettled", err)
	}
}

// startStallServer serves a protocol whose proc 9 blocks until the test
// ends, so a bounded client deterministically times out with the
// request already on the wire (sent = true).
func startStallServer(t *testing.T) Conn {
	t.Helper()
	clientEnd, serverEnd := Pipe()
	release := make(chan struct{})
	s := NewServer(ONC{})
	s.Workers = 4
	s.Register(7, 1, func(h *ReqHeader, d *Decoder, e *Encoder) error {
		if h.Proc == 9 {
			h.OpName = "stall"
			<-release
			return nil
		}
		return echoDispatch(h, d, e)
	})
	done := make(chan struct{})
	go func() { defer close(done); s.ServeConn(serverEnd) }()
	t.Cleanup(func() { close(release); clientEnd.Close(); <-done })
	return clientEnd
}

// TestPromiseClassificationMatchesSync drives the same two failure
// scenarios through a sync call and through Go+Wait and checks
// the errors classify identically under errors.Is — the acceptance
// contract for the async surface.
func TestPromiseClassificationMatchesSync(t *testing.T) {
	policy := func() *RetryPolicy {
		return &RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond, Seed: 1}
	}

	// Scenario 1: dead transport from the first byte. The send fails
	// deterministically, so even after retries the error is retryable
	// (the request never reached a server).
	deadCall := func(async bool) error {
		clientEnd, serverEnd := Pipe()
		serverEnd.Close()
		t.Cleanup(func() { clientEnd.Close() })
		c := newEchoClient(clientEnd)
		c.Retry = policy()
		if async {
			_, err := c.Go(nil, doubleIdemOp, func(e *Encoder) { e.PutU32BEC(1) }).Wait()
			return err
		}
		_, err := c.Do(nil, doubleIdemOp, func(e *Encoder) { e.PutU32BEC(1) })
		return err
	}

	// Scenario 2: transmitted but never answered, non-idempotent. The
	// attempt times out with the request possibly executing server-side,
	// so the classified error must refuse the retry.
	stallCall := func(async bool) error {
		c := newEchoClient(startStallServer(t))
		c.Timeout = 25 * time.Millisecond
		c.Retry = policy()
		if async {
			_, err := c.Go(nil, &Op{Proc: 9, Name: "stall"}, func(e *Encoder) { e.PutU32BEC(1) }).Wait()
			return err
		}
		_, err := c.Do(nil, &Op{Proc: 9, Name: "stall"}, func(e *Encoder) { e.PutU32BEC(1) })
		return err
	}

	for _, tc := range []struct {
		name string
		call func(async bool) error
		is   []error
		not  []error
	}{
		{"dead-transport-idempotent", deadCall, []error{ErrRetryable}, []error{ErrNotRetryable}},
		{"stalled-nonidempotent", stallCall, []error{ErrNotRetryable, ErrTimeout}, []error{ErrRetryable}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			syncErr, asyncErr := tc.call(false), tc.call(true)
			if syncErr == nil || asyncErr == nil {
				t.Fatalf("want failures, got sync=%v async=%v", syncErr, asyncErr)
			}
			for _, sentinel := range tc.is {
				if !errors.Is(syncErr, sentinel) || !errors.Is(asyncErr, sentinel) {
					t.Errorf("errors.Is(%v) disagree: sync=%v (%t) async=%v (%t)",
						sentinel, syncErr, errors.Is(syncErr, sentinel), asyncErr, errors.Is(asyncErr, sentinel))
				}
			}
			for _, sentinel := range tc.not {
				if errors.Is(syncErr, sentinel) || errors.Is(asyncErr, sentinel) {
					t.Errorf("errors.Is(%v) should be false for both: sync=%v async=%v", sentinel, syncErr, asyncErr)
				}
			}
		})
	}
}

// TestPromiseBreakerPreempt pins the issue-time breaker check: an open
// breaker settles the promise before any transmit, and Wait reports
// ErrBreakerOpen exactly like the sync path.
func TestPromiseBreakerPreempt(t *testing.T) {
	conn := startEchoServer(t, 1)
	c := newEchoClient(conn)
	b := &Breaker{Threshold: 1, Cooldown: time.Hour}
	c.Breaker = b
	for i := 0; i < 2; i++ {
		b.failure() // trip it
	}
	p := c.Go(nil, doubleIdemOp, func(e *Encoder) { e.PutU32BEC(1) })
	if _, err := p.Wait(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("Wait = %v, want ErrBreakerOpen", err)
	}
}

// TestPoolCallAsync spreads ClientPool.Go calls across a pool and resolves them
// out of issue order; each promise must still carry its own reply.
func TestPoolCallAsync(t *testing.T) {
	const size = 3
	_, dial := newPoolFixture(t, size)
	p, err := NewClientPool(PoolConfig{Size: size, Dial: dial, Proto: ONC{}, Prog: 7, Vers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const n = 30
	ps := make([]*Promise, n)
	for i := range ps {
		v := uint32(i + 1)
		ps[i] = p.Go(nil, doubleIdemOp, func(e *Encoder) { e.PutU32BEC(v) })
	}
	// Resolve back-to-front to prove resolution order is free.
	for i := n - 1; i >= 0; i-- {
		d, err := ps[i].Wait()
		if err != nil {
			t.Fatalf("promise %d: %v", i, err)
		}
		if !d.Ensure(4) {
			t.Fatalf("promise %d: %v", i, d.Err())
		}
		if got, want := d.U32BE(), uint32(2*(i+1)); got != want {
			t.Fatalf("promise %d = %d, want %d", i, got, want)
		}
		d.Release()
	}
}

// TestPromiseConcurrentWaiters resolves promises from goroutines other
// than the issuer — the documented handoff pattern.
func TestPromiseConcurrentWaiters(t *testing.T) {
	conn := startEchoServer(t, 4)
	c := newEchoClient(conn)

	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		v := uint32(i + 1)
		p := c.Go(nil, doubleIdemOp, func(e *Encoder) { e.PutU32BEC(v) })
		wg.Add(1)
		go func(i int, p *Promise, want uint32) {
			defer wg.Done()
			d, err := p.Wait()
			if err != nil {
				errs[i] = err
				return
			}
			if !d.Ensure(4) {
				errs[i] = d.Err()
				return
			}
			if got := d.U32BE(); got != want {
				errs[i] = errors.New("wrong reply value")
			}
			d.Release()
		}(i, p, 2*v)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("waiter %d: %v", i, err)
		}
	}
}
