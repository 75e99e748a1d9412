package rt

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// Regression tests pinning the InFlight and QueueDepth gauge
// invariants: whatever a call's fate — success, timeout, send failure,
// poisoned session, breaker shed, admission reject, handler panic —
// both gauges return to zero once the system quiesces. A stuck gauge
// means an error path skipped its decrement (or a reject path
// incremented without handing off).
//
// The tests assert through Snapshot.Sub: a base snapshot before the
// workload, the delta after quiescence. That checks the per-interval
// contract the debug surface relies on (a gauge delta of zero over a
// quiesced interval) instead of absolute counter values, and so also
// regression-tests the diffing helper itself.

func waitGaugeZero(t *testing.T, name string, m *Metrics, base Snapshot, gauge func(Snapshot) int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if v := gauge(m.Snapshot().Sub(base)); v == 0 {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("%s gauge delta stuck at %d over a quiesced interval, want 0", name, v)
		}
		time.Sleep(time.Millisecond)
	}
}

func inFlight(s Snapshot) int64   { return s.InFlight }
func queueDepth(s Snapshot) int64 { return s.QueueDepth }

func TestInFlightZeroAfterSuccessAndDispatchError(t *testing.T) {
	conn, _, _ := startObservedServer(t)
	c := newEchoClient(conn)
	m := NewMetrics()
	c.Metrics = m
	base := m.Snapshot()

	doubleCall(t, c, 5)
	// Dispatch error (proc 2 always fails): server replies ErrSystem.
	if _, err := c.Do(nil, &Op{Proc: 2, Name: "fail"}, func(e *Encoder) {}); !errors.Is(err, ErrSystem) {
		t.Fatalf("fail call = %v, want ErrSystem", err)
	}
	// Oneway never increments InFlight (nothing is in flight to match).
	if _, err := c.Do(nil, &Op{Proc: 3, Name: "note", Oneway: true}, func(e *Encoder) {}); err != nil {
		t.Fatal(err)
	}
	waitGaugeZero(t, "InFlight", m, base, inFlight)
}

func TestInFlightZeroAfterTimeout(t *testing.T) {
	clientEnd, serverEnd := Pipe()
	c := newEchoClient(clientEnd)
	m := NewMetrics()
	c.Metrics = m
	base := m.Snapshot()
	c.Timeout = 10 * time.Millisecond
	defer clientEnd.Close()

	// The peer swallows the request: the call must time out.
	go func() { serverEnd.Recv() }()
	if _, err := c.Do(nil, doubleOp, func(e *Encoder) { e.PutU32BEC(1) }); !errors.Is(err, ErrTimeout) {
		t.Fatalf("swallowed call = %v, want ErrTimeout", err)
	}
	waitGaugeZero(t, "InFlight", m, base, inFlight)
}

func TestInFlightZeroAfterSendFailure(t *testing.T) {
	clientEnd, serverEnd := Pipe()
	c := newEchoClient(clientEnd)
	m := NewMetrics()
	c.Metrics = m
	base := m.Snapshot()

	serverEnd.Close()
	clientEnd.Close()
	if _, err := c.Do(nil, doubleOp, func(e *Encoder) { e.PutU32BEC(1) }); err == nil {
		t.Fatal("send on a closed conn succeeded")
	}
	waitGaugeZero(t, "InFlight", m, base, inFlight)
}

func TestInFlightZeroAfterPoisonDrain(t *testing.T) {
	clientEnd, serverEnd := Pipe()
	c := newEchoClient(clientEnd)
	m := NewMetrics()
	c.Metrics = m
	base := m.Snapshot()

	// Park several calls, then kill the peer: the reply reader drains
	// every pending call with the terminal error.
	const n = 4
	swallowed := make(chan struct{}, n)
	go func() {
		for {
			if _, err := serverEnd.Recv(); err != nil {
				return
			}
			swallowed <- struct{}{}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Do(nil, doubleOp, func(e *Encoder) { e.PutU32BEC(1) })
		}()
	}
	for i := 0; i < n; i++ {
		<-swallowed
	}
	serverEnd.Close()
	wg.Wait()
	waitGaugeZero(t, "InFlight", m, base, inFlight)
	clientEnd.Close()
}

func TestInFlightZeroAfterBreakerReject(t *testing.T) {
	clientEnd, serverEnd := Pipe()
	serverEnd.Close()
	clientEnd.Close()
	c := newEchoClient(clientEnd)
	m := NewMetrics()
	c.Metrics = m
	base := m.Snapshot()
	c.Breaker = &Breaker{Threshold: 1, Cooldown: time.Minute}
	c.Retry = &RetryPolicy{MaxAttempts: 1}

	c.Do(nil, doubleOp, func(e *Encoder) { e.PutU32BEC(1) }) // opens the breaker
	if _, err := c.Do(nil, doubleOp, func(e *Encoder) { e.PutU32BEC(1) }); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("shed call = %v, want ErrBreakerOpen", err)
	}
	if m.BreakerRejects.Load() == 0 {
		t.Error("BreakerRejects not counted")
	}
	waitGaugeZero(t, "InFlight", m, base, inFlight)
}

func TestQueueDepthZeroAfterPanicsAndErrors(t *testing.T) {
	clientEnd, serverEnd := Pipe()
	s := NewServer(ONC{})
	s.Workers = 2
	s.Metrics = NewMetrics()
	base := s.Metrics.Snapshot()
	s.Register(7, 1, func(h *ReqHeader, d *Decoder, e *Encoder) error {
		switch h.Proc {
		case 1:
			h.OpName = "boom"
			panic("handler exploded")
		case 2:
			h.OpName = "fail"
			return errors.New("work failed")
		}
		return ErrNoSuchOp
	})
	done := make(chan struct{})
	go func() { defer close(done); s.ServeConn(serverEnd) }()
	t.Cleanup(func() { clientEnd.Close(); <-done })

	c := newEchoClient(clientEnd)
	for proc := uint32(1); proc <= 3; proc++ {
		if _, err := c.Do(nil, &Op{Proc: proc, Name: "x"}, func(e *Encoder) {}); !errors.Is(err, ErrSystem) {
			t.Fatalf("proc %d = %v, want ErrSystem", proc, err)
		}
	}
	if s.Metrics.PanicsRecovered.Load() == 0 {
		t.Error("panic not recovered")
	}
	waitGaugeZero(t, "QueueDepth", s.Metrics, base, queueDepth)
}

func TestQueueDepthZeroAfterAdmissionReject(t *testing.T) {
	adm := &Admission{MaxLoad: 1}
	block := make(chan struct{})
	conn, sm := startAdmissionServer(t, adm, block)
	base := sm.Snapshot()
	c := newEchoClient(conn)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		d, err := c.Do(nil, doubleOp, func(e *Encoder) { e.PutU32BEC(1) })
		if err == nil {
			d.Release()
		}
	}()
	for deadline := time.Now().Add(2 * time.Second); adm.Load() < 1; {
		if time.Now().After(deadline) {
			t.Fatal("handler never occupied the gate")
		}
		time.Sleep(time.Millisecond)
	}
	// The reject path must not touch QueueDepth: the request never
	// reaches the queue.
	if _, err := c.Do(nil, doubleOp, func(e *Encoder) { e.PutU32BEC(2) }); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overloaded call = %v", err)
	}
	close(block)
	wg.Wait()
	waitGaugeZero(t, "QueueDepth", sm, base, queueDepth)
	if adm.Load() != 0 {
		t.Errorf("admission load = %d after quiescence, want 0", adm.Load())
	}
}

func TestQueueDepthZeroAfterConnTeardownMidQueue(t *testing.T) {
	// Queue a burst against a single slow worker, then rip the
	// connection down: queued jobs drain through the worker (reply sends
	// fail) and the gauge must come back to zero.
	clientEnd, serverEnd := Pipe()
	s := NewServer(ONC{})
	s.Workers = 1
	s.Metrics = NewMetrics()
	base := s.Metrics.Snapshot()
	release := make(chan struct{})
	var once sync.Once
	s.Register(7, 1, func(h *ReqHeader, d *Decoder, e *Encoder) error {
		h.OpName = "slow"
		once.Do(func() { <-release })
		if !d.Ensure(4) {
			return d.Err()
		}
		e.PutU32BEC(d.U32BE())
		return nil
	})
	done := make(chan struct{})
	go func() { defer close(done); s.ServeConn(serverEnd) }()

	c := newEchoClient(clientEnd)
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c.Do(nil, &Op{Proc: 1, Name: "slow"}, func(e *Encoder) { e.PutU32BEC(uint32(i)) })
		}(i)
	}
	// Let the burst queue up behind the blocked worker, then tear down.
	time.Sleep(20 * time.Millisecond)
	close(release)
	clientEnd.Close()
	wg.Wait()
	<-done
	waitGaugeZero(t, "QueueDepth", s.Metrics, base, queueDepth)
}
