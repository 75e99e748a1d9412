package rt

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for the client fault-tolerance policy: backoff bounds, breaker
// state transitions, idempotency-gated retries, redial, and error
// classification. Run with -race.

func TestRetryBackoffWithinBounds(t *testing.T) {
	p := &RetryPolicy{BaseBackoff: time.Millisecond, MaxBackoff: 8 * time.Millisecond, Seed: 1}
	for k := 0; k < 8; k++ {
		ceil := time.Millisecond << k
		if ceil > 8*time.Millisecond {
			ceil = 8 * time.Millisecond
		}
		for i := 0; i < 50; i++ {
			if d := p.backoff(k); d < 0 || d > ceil {
				t.Fatalf("backoff(%d) = %v, want in [0, %v]", k, d, ceil)
			}
		}
	}
}

func TestRetryBackoffSeededDeterminism(t *testing.T) {
	seq := func() []time.Duration {
		p := &RetryPolicy{BaseBackoff: time.Millisecond, Seed: 99}
		var out []time.Duration
		for k := 0; k < 6; k++ {
			out = append(out, p.backoff(k))
		}
		return out
	}
	a, b := seq(), seq()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different jitter: %v vs %v", a, b)
		}
	}
}

func TestRetryDefaults(t *testing.T) {
	var nilPolicy *RetryPolicy
	if got := nilPolicy.attempts(); got != 3 {
		t.Errorf("nil policy attempts = %d, want 3", got)
	}
	if got := (&RetryPolicy{}).attempts(); got != 3 {
		t.Errorf("zero policy attempts = %d, want 3", got)
	}
	if got := (&RetryPolicy{MaxAttempts: 1}).attempts(); got != 1 {
		t.Errorf("MaxAttempts=1 attempts = %d, want 1", got)
	}
}

// TestBreakerLifecycle walks the full state machine: closed → open at
// the threshold, open → half-open after the cooldown, half-open →
// closed on a successful probe, and half-open → open on a failed one.
func TestBreakerLifecycle(t *testing.T) {
	b := &Breaker{Threshold: 3, Cooldown: 25 * time.Millisecond}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("initial state = %v", got)
	}
	if !b.allow() {
		t.Fatal("closed breaker rejected a call")
	}
	// Two failures: still under threshold.
	b.failure()
	if opened := b.failure(); opened {
		t.Fatal("breaker opened below threshold")
	}
	if !b.allow() {
		t.Fatal("breaker rejected a call below threshold")
	}
	// Third consecutive failure trips it.
	if opened := b.failure(); !opened {
		t.Fatal("breaker did not open at threshold")
	}
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after threshold = %v, want open", got)
	}
	if b.allow() {
		t.Fatal("open breaker admitted a call inside the cooldown")
	}
	// After the cooldown one probe is admitted, and only one.
	time.Sleep(30 * time.Millisecond)
	if !b.allow() {
		t.Fatal("breaker did not half-open after cooldown")
	}
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state after probe admit = %v, want half-open", got)
	}
	if b.allow() {
		t.Fatal("half-open breaker admitted a second probe")
	}
	// Probe success recloses and resets the failure count.
	b.success()
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after probe success = %v, want closed", got)
	}
	b.failure()
	b.failure()
	if got := b.State(); got != BreakerClosed {
		t.Fatal("failure count was not reset by success")
	}
	// Reopen path: trip it again, probe, fail the probe.
	if opened := b.failure(); !opened {
		t.Fatal("breaker did not reopen at threshold")
	}
	time.Sleep(30 * time.Millisecond)
	if !b.allow() {
		t.Fatal("no probe after second cooldown")
	}
	if opened := b.failure(); !opened {
		t.Fatal("failed probe did not reopen the breaker")
	}
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
}

func TestBreakerStateString(t *testing.T) {
	for s, want := range map[BreakerState]string{
		BreakerClosed: "closed", BreakerOpen: "open", BreakerHalfOpen: "half-open",
	} {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", s, got, want)
		}
	}
}

// --- client integration ------------------------------------------------------

// faultySend wraps a Conn and fails (or swallows) the first N Sends.
type faultySend struct {
	Conn
	failures atomic.Int32
	// swallow, when set, makes a "failed" Send return nil without
	// delivering: the lost-datagram shape (detected only by timeout)
	// rather than the reported-error shape.
	swallow bool
}

func (f *faultySend) Send(msg []byte) error {
	if f.failures.Add(-1) >= 0 {
		if f.swallow {
			return nil
		}
		return errors.New("transient transport failure")
	}
	return f.Conn.Send(msg)
}

// TestIdempotentRetrySucceeds: an idempotent call whose first attempt
// fails is re-sent under the policy and succeeds, with the retry
// counted.
func TestIdempotentRetrySucceeds(t *testing.T) {
	flaky := &faultySend{Conn: startEchoServer(t, 1)}
	flaky.failures.Store(1)
	c := newEchoClient(flaky)
	c.Metrics = NewMetrics()
	c.Retry = &RetryPolicy{MaxAttempts: 3, BaseBackoff: 100 * time.Microsecond, Seed: 1}

	d, err := c.Do(nil, doubleIdemOp, func(e *Encoder) { e.PutU32BEC(21) })
	if err != nil {
		t.Fatalf("idempotent call over flaky conn: %v", err)
	}
	d.Ensure(4)
	if got := d.U32BE(); got != 42 {
		t.Errorf("double(21) = %d", got)
	}
	d.Release()
	if got := c.Metrics.Retries.Load(); got != 1 {
		t.Errorf("Retries = %d, want 1", got)
	}
}

// TestLostRequestRetriedByTimeout: a request the transport silently
// swallows (no error, no delivery) is recovered by the per-attempt
// deadline and the retry policy.
func TestLostRequestRetriedByTimeout(t *testing.T) {
	flaky := &faultySend{Conn: startEchoServer(t, 1), swallow: true}
	flaky.failures.Store(1)
	c := newEchoClient(flaky)
	c.Metrics = NewMetrics()
	c.Timeout = 50 * time.Millisecond
	c.Retry = &RetryPolicy{MaxAttempts: 3, BaseBackoff: 100 * time.Microsecond, Seed: 1}

	d, err := c.Do(nil, doubleIdemOp, func(e *Encoder) { e.PutU32BEC(5) })
	if err != nil {
		t.Fatalf("call over swallowing conn: %v", err)
	}
	d.Ensure(4)
	if got := d.U32BE(); got != 10 {
		t.Errorf("double(5) = %d", got)
	}
	d.Release()
	if got := c.Metrics.Retries.Load(); got == 0 {
		t.Error("lost request was not retried")
	}
}

// TestNonIdempotentFailsFast: once the request may have reached the
// server, a non-idempotent operation is never re-sent — the call fails
// with ErrNotRetryable wrapping the transport cause, after exactly one
// attempt.
func TestNonIdempotentFailsFast(t *testing.T) {
	flaky := &faultySend{Conn: startEchoServer(t, 1)}
	flaky.failures.Store(1)
	c := newEchoClient(flaky)
	c.Retry = &RetryPolicy{MaxAttempts: 5, BaseBackoff: 100 * time.Microsecond, Seed: 1}

	_, err := c.Do(nil, doubleOp, func(e *Encoder) { e.PutU32BEC(1) })
	if !errors.Is(err, ErrNotRetryable) {
		t.Fatalf("non-idempotent failure = %v, want ErrNotRetryable", err)
	}
	if errors.Is(err, ErrRetryable) {
		t.Error("error classified both retryable and not")
	}
	// Exactly one attempt was consumed: the next call finds a healthy
	// conn (failures exhausted) and succeeds without retrying.
	doubleCall(t, c, 3)
}

// TestRetryExhaustionClassification: when every attempt times out the
// final error carries both the class (ErrRetryable) and the last cause
// (ErrTimeout), so callers can test either.
func TestRetryExhaustionClassification(t *testing.T) {
	clientEnd, serverEnd := Pipe()
	go func() { // peer swallows everything
		for {
			if _, err := serverEnd.Recv(); err != nil {
				return
			}
		}
	}()
	t.Cleanup(func() { clientEnd.Close() })
	c := newEchoClient(clientEnd)
	c.Metrics = NewMetrics()
	c.Timeout = 20 * time.Millisecond
	c.Retry = &RetryPolicy{MaxAttempts: 2, BaseBackoff: 100 * time.Microsecond, Seed: 1}

	_, err := c.Do(nil, doubleIdemOp, func(e *Encoder) { e.PutU32BEC(1) })
	if !errors.Is(err, ErrRetryable) {
		t.Errorf("exhausted retries = %v, want ErrRetryable class", err)
	}
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("exhausted retries = %v, want ErrTimeout cause", err)
	}
	if got := c.Metrics.Retries.Load(); got != 1 {
		t.Errorf("Retries = %d, want 1 (MaxAttempts 2)", got)
	}
}

// TestRetryBudgetBoundsTheCall: a wall-clock budget stops the retry
// loop even with attempts remaining.
func TestRetryBudgetBoundsTheCall(t *testing.T) {
	clientEnd, serverEnd := Pipe()
	go func() {
		for {
			if _, err := serverEnd.Recv(); err != nil {
				return
			}
		}
	}()
	t.Cleanup(func() { clientEnd.Close() })
	c := newEchoClient(clientEnd)
	c.Timeout = 20 * time.Millisecond
	c.Retry = &RetryPolicy{MaxAttempts: 100, BaseBackoff: 5 * time.Millisecond, Budget: 60 * time.Millisecond, Seed: 1}

	begin := time.Now()
	_, err := c.Do(nil, doubleIdemOp, func(e *Encoder) { e.PutU32BEC(1) })
	elapsed := time.Since(begin)
	if !errors.Is(err, ErrRetryable) {
		t.Errorf("budget-bounded call = %v, want ErrRetryable", err)
	}
	if elapsed > time.Second {
		t.Errorf("100-attempt policy ran %v past its 60ms budget", elapsed)
	}
}

// TestServerFaultIsTerminal: an ErrSystem reply means the transport
// works and the server executed (and faulted) — no retry, breaker
// healthy.
func TestServerFaultIsTerminal(t *testing.T) {
	sends := &countingConn{Conn: startEchoServer(t, 1)}
	c := newEchoClient(sends)
	c.Retry = &RetryPolicy{MaxAttempts: 5, BaseBackoff: 100 * time.Microsecond, Seed: 1}
	c.Breaker = &Breaker{Threshold: 1}

	_, err := c.Do(nil, &Op{Proc: 2, Name: "fail", Idempotent: true}, func(e *Encoder) {})
	if !errors.Is(err, ErrSystem) {
		t.Fatalf("server fault = %v, want ErrSystem", err)
	}
	if errors.Is(err, ErrRetryable) || errors.Is(err, ErrNotRetryable) {
		t.Errorf("server fault gained a retry classification: %v", err)
	}
	if got := sends.sends.Load(); got != 1 {
		t.Errorf("server fault was retried: %d sends", got)
	}
	if got := c.Breaker.State(); got != BreakerClosed {
		t.Errorf("breaker %v after server fault, want closed (transport healthy)", got)
	}
}

type countingConn struct {
	Conn
	sends atomic.Uint64
}

func (c *countingConn) Send(msg []byte) error {
	c.sends.Add(1)
	return c.Conn.Send(msg)
}

// TestRedialReconnects: killing the connection poisons the session;
// with Redial configured the next call transparently dials a
// replacement and succeeds.
func TestRedialReconnects(t *testing.T) {
	newServerConn := func() Conn {
		clientEnd, serverEnd := Pipe()
		s := NewServer(ONC{})
		s.Register(7, 1, echoDispatch)
		serveConn(t, s, serverEnd)
		return clientEnd
	}
	first := newServerConn()
	c := newEchoClient(first)
	c.Metrics = NewMetrics()
	c.Retry = &RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Millisecond, Seed: 1}
	c.Redial = func() (Conn, error) { return newServerConn(), nil }
	t.Cleanup(func() { c.Close() })

	doubleCall(t, c, 4)              // healthy on the first connection
	first.Close()                    // the link dies under us
	time.Sleep(5 * time.Millisecond) // let the reply reader poison the session
	doubleCall(t, c, 9)              // transparently redialed
	if got := c.Metrics.Reconnects.Load(); got != 1 {
		t.Errorf("Reconnects = %d, want 1", got)
	}
}

// TestRedialRespectsClose: Close wins over a concurrent redial — a
// closed client must not resurrect.
func TestRedialRespectsClose(t *testing.T) {
	conn := startEchoServer(t, 1)
	c := newEchoClient(conn)
	c.Retry = &RetryPolicy{MaxAttempts: 3, BaseBackoff: 100 * time.Microsecond, Seed: 1}
	c.Redial = func() (Conn, error) { a, _ := Pipe(); return a, nil }
	c.Close()
	if _, err := c.Do(nil, doubleIdemOp, func(e *Encoder) { e.PutU32BEC(1) }); !errors.Is(err, ErrClosed) {
		t.Errorf("call on closed redialing client = %v, want ErrClosed", err)
	}
}

// TestBreakerShedsAndRecovers drives the breaker through a full outage:
// consecutive transport failures open it, calls shed with
// ErrBreakerOpen without touching the wire, and after the cooldown a
// successful probe recloses it.
func TestBreakerShedsAndRecovers(t *testing.T) {
	healthy := startEchoServer(t, 1)
	var down atomic.Bool
	gate := &gatedConn{Conn: healthy, down: &down}
	c := newEchoClient(gate)
	c.Metrics = NewMetrics()
	c.Breaker = &Breaker{Threshold: 2, Cooldown: 30 * time.Millisecond}

	down.Store(true)
	for i := 0; i < 2; i++ {
		if _, err := c.Do(nil, doubleIdemOp, func(e *Encoder) { e.PutU32BEC(1) }); err == nil {
			t.Fatal("call over dead transport succeeded")
		}
	}
	if got := c.Breaker.State(); got != BreakerOpen {
		t.Fatalf("breaker %v after threshold failures, want open", got)
	}
	if got := c.Metrics.BreakerOpen.Load(); got != 1 {
		t.Errorf("BreakerOpen = %d, want 1", got)
	}
	before := gate.sends.Load()
	if _, err := c.Do(nil, doubleIdemOp, func(e *Encoder) { e.PutU32BEC(1) }); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("shed call = %v, want ErrBreakerOpen", err)
	}
	if gate.sends.Load() != before {
		t.Error("shed call still touched the transport")
	}
	if got := c.Metrics.BreakerRejects.Load(); got != 1 {
		t.Errorf("BreakerRejects = %d, want 1", got)
	}
	// Outage ends; the cooldown elapses; the probe recloses the breaker.
	down.Store(false)
	time.Sleep(35 * time.Millisecond)
	doubleCall(t, c, 8)
	if got := c.Breaker.State(); got != BreakerClosed {
		t.Errorf("breaker %v after successful probe, want closed", got)
	}
}

// gatedConn fails Sends while down is set, counting every attempt that
// reaches it.
type gatedConn struct {
	Conn
	down  *atomic.Bool
	sends atomic.Uint64
}

func (g *gatedConn) Send(msg []byte) error {
	g.sends.Add(1)
	if g.down.Load() {
		return errors.New("simulated outage")
	}
	return g.Conn.Send(msg)
}
