package rt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// Tests for the hardened server: oversized-frame rejection (before any
// allocation), idle reaping, panic recovery, duplicate-XID suppression,
// and the client teardown races. Run with -race.

// --- oversized frames (regression: allocation-before-validation) -----------

// TestTCPRecvRejectsHugeClaimedFrame is the regression test for the
// oversized-allocation bug: a crafted record mark claiming a huge body
// must be rejected *before* the body buffer is allocated or read. The
// writer sends only the 4-byte mark — if the receiver validated after
// allocating-and-reading it would block forever waiting for a body that
// never comes; returning an error proves pre-validation.
func TestTCPRecvRejectsHugeClaimedFrame(t *testing.T) {
	cli, srv := net.Pipe()
	defer cli.Close()
	defer srv.Close()
	tc := &tcpConn{c: srv}
	tc.SetMaxMessage(1 << 16)

	go func() {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(1<<30)|0x80000000)
		cli.Write(hdr[:])
		// No body follows: a post-allocation check would hang here.
	}()

	errc := make(chan error, 1)
	go func() {
		_, err := tc.Recv()
		errc <- err
	}()
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), "oversized") {
			t.Fatalf("Recv = %v, want oversized-frame error", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv blocked on a hostile length claim (validated after allocation?)")
	}
}

// TestTCPRecvRejectsUnboundedFragmentTotal covers the second shape of
// the same bug: each fragment individually under the bound, but the
// cumulative total unbounded. The receiver must reject when the running
// total crosses the limit.
func TestTCPRecvRejectsUnboundedFragmentTotal(t *testing.T) {
	cli, srv := net.Pipe()
	defer cli.Close()
	defer srv.Close()
	tc := &tcpConn{c: srv}
	tc.SetMaxMessage(4096)

	stop := make(chan struct{})
	go func() {
		frag := make([]byte, 4+1024) // mark + 1KiB body, final bit clear
		binary.BigEndian.PutUint32(frag[:4], 1024)
		for {
			if _, err := cli.Write(frag); err != nil {
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	errc := make(chan error, 1)
	go func() {
		_, err := tc.Recv()
		errc <- err
	}()
	select {
	case err := <-errc:
		close(stop)
		if err == nil || !strings.Contains(err.Error(), "oversized") {
			t.Fatalf("Recv = %v, want oversized-frame error", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv accumulated non-final fragments without bound")
	}
}

// TestServeConnDropsOversizedAfterReceipt covers transports without
// length pre-validation (datagrams, in-process pipes): the server drops
// the oversized frame after receipt, counts it, and keeps serving.
func TestServeConnDropsOversizedAfterReceipt(t *testing.T) {
	clientEnd, serverEnd := Pipe()
	s := NewServer(ONC{})
	s.MaxMessage = 256
	s.Metrics = NewMetrics()
	s.Register(7, 1, echoDispatch)
	done := make(chan struct{})
	go func() { defer close(done); s.ServeConn(serverEnd) }()
	t.Cleanup(func() { clientEnd.Close(); <-done })

	if err := clientEnd.Send(make([]byte, 1024)); err != nil { // hostile frame
		t.Fatal(err)
	}
	c := newEchoClient(clientEnd)
	doubleCall(t, c, 6) // the connection survives
	if got := s.Metrics.Oversized.Load(); got != 1 {
		t.Errorf("Oversized = %d, want 1", got)
	}
}

// --- idle reaping ------------------------------------------------------------

// TestServerIdleReap: a connection silent past IdleTimeout is reaped
// cleanly — ServeConn returns nil, and the reap is counted.
func TestServerIdleReap(t *testing.T) {
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	s := NewServer(ONC{})
	s.IdleTimeout = 40 * time.Millisecond
	s.Metrics = NewMetrics()
	s.Register(7, 1, echoDispatch)

	errc := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			errc <- err
			return
		}
		errc <- s.ServeConn(conn)
	}()
	conn, err := DialTCP(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })

	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("idle reap surfaced an error: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("silent connection was never reaped")
	}
	if got := s.Metrics.IdleReaped.Load(); got != 1 {
		t.Errorf("IdleReaped = %d, want 1", got)
	}
}

// --- panic recovery ----------------------------------------------------------

// TestServerPanicRecovery: a panicking handler yields an RPC system
// error for that caller — and nothing worse. The worker, the
// connection, and later requests all survive.
func TestServerPanicRecovery(t *testing.T) {
	clientEnd, serverEnd := Pipe()
	s := NewServer(ONC{})
	s.Metrics = NewMetrics()
	s.Register(7, 1, func(h *ReqHeader, d *Decoder, e *Encoder) error {
		if h.Proc == 9 {
			panic("poisoned request")
		}
		return echoDispatch(h, d, e)
	})
	done := make(chan struct{})
	go func() { defer close(done); s.ServeConn(serverEnd) }()
	t.Cleanup(func() { clientEnd.Close(); <-done })

	c := newEchoClient(clientEnd)
	if _, err := c.Do(nil, &Op{Proc: 9, Name: "boom"}, func(e *Encoder) {}); !errors.Is(err, ErrSystem) {
		t.Fatalf("panicking handler returned %v to the caller, want ErrSystem", err)
	}
	if got := s.Metrics.PanicsRecovered.Load(); got != 1 {
		t.Errorf("PanicsRecovered = %d, want 1", got)
	}
	// The same worker keeps serving.
	doubleCall(t, c, 11)
	if got := s.Metrics.DispatchErrors.Load(); got != 1 {
		t.Errorf("DispatchErrors = %d, want 1 (the recovered panic)", got)
	}
}

// --- duplicate suppression ---------------------------------------------------

// oncRequest builds a raw ONC request frame (bypassing the Client so
// the test controls the XID and can retransmit).
func oncRequest(xid, proc uint32, payload uint32) []byte {
	var e Encoder
	ONC{}.WriteRequest(&e, &ReqHeader{XID: xid, Prog: 7, Vers: 1, Proc: proc})
	e.PutU32BEC(payload)
	return append([]byte(nil), e.Bytes()...)
}

// recvWithin reads one frame or fails after the deadline.
func recvWithin(t *testing.T, conn Conn, d time.Duration) []byte {
	t.Helper()
	type res struct {
		msg []byte
		err error
	}
	ch := make(chan res, 1)
	go func() {
		msg, err := conn.Recv()
		ch <- res{msg, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatalf("recv: %v", r.err)
		}
		return r.msg
	case <-time.After(d):
		t.Fatal("no reply within deadline")
		return nil
	}
}

// TestServerDupSuppressionCachedReply: a retransmitted XID whose
// original already answered is re-answered from the reply cache —
// byte-identical, without re-dispatching.
func TestServerDupSuppressionCachedReply(t *testing.T) {
	clientEnd, serverEnd := Pipe()
	s := NewServer(ONC{})
	s.DupWindow = 16
	s.Metrics = NewMetrics()
	calls := 0
	s.Register(7, 1, func(h *ReqHeader, d *Decoder, e *Encoder) error {
		calls++
		return echoDispatch(h, d, e)
	})
	done := make(chan struct{})
	go func() { defer close(done); s.ServeConn(serverEnd) }()
	t.Cleanup(func() { clientEnd.Close(); <-done })

	req := oncRequest(42, 1, 21)
	if err := clientEnd.Send(req); err != nil {
		t.Fatal(err)
	}
	reply1 := recvWithin(t, clientEnd, 2*time.Second)
	time.Sleep(10 * time.Millisecond) // let the worker cache the sent reply

	if err := clientEnd.Send(req); err != nil { // retransmit, same XID
		t.Fatal(err)
	}
	reply2 := recvWithin(t, clientEnd, 2*time.Second)
	if !bytes.Equal(reply1, reply2) {
		t.Error("cached reply differs from the original")
	}
	if got := s.Metrics.DroppedDupes.Load(); got != 1 {
		t.Errorf("DroppedDupes = %d, want 1", got)
	}
	if calls != 1 {
		t.Errorf("duplicate was re-dispatched: %d handler calls", calls)
	}
	// A fresh XID still dispatches normally.
	if err := clientEnd.Send(oncRequest(43, 1, 5)); err != nil {
		t.Fatal(err)
	}
	recvWithin(t, clientEnd, 2*time.Second)
	if calls != 2 {
		t.Errorf("fresh XID after a dup saw %d handler calls, want 2", calls)
	}
}

// TestServerDupSuppressionInProgress: a duplicate arriving while the
// original is still dispatching is dropped outright (its reply is
// already on the way); exactly one reply reaches the wire.
func TestServerDupSuppressionInProgress(t *testing.T) {
	clientEnd, serverEnd := Pipe()
	gate := make(chan struct{})
	entered := make(chan struct{}, 4)
	s := NewServer(ONC{})
	s.DupWindow = 16
	s.Workers = 2
	s.Metrics = NewMetrics()
	s.Register(7, 1, func(h *ReqHeader, d *Decoder, e *Encoder) error {
		entered <- struct{}{}
		<-gate
		e.PutU32BEC(77)
		return nil
	})
	done := make(chan struct{})
	go func() { defer close(done); s.ServeConn(serverEnd) }()
	t.Cleanup(func() { clientEnd.Close(); <-done })

	req := oncRequest(7, 1, 0)
	if err := clientEnd.Send(req); err != nil {
		t.Fatal(err)
	}
	<-entered // the original is mid-dispatch
	if err := clientEnd.Send(req); err != nil {
		t.Fatal(err)
	}
	// Wait until the decode loop has judged the duplicate.
	deadline := time.Now().Add(2 * time.Second)
	for s.Metrics.DroppedDupes.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := s.Metrics.DroppedDupes.Load(); got != 1 {
		t.Fatalf("DroppedDupes = %d, want 1", got)
	}
	close(gate)
	recvWithin(t, clientEnd, 2*time.Second) // exactly one reply...
	extra := make(chan struct{}, 1)
	go func() {
		if _, err := clientEnd.Recv(); err == nil {
			extra <- struct{}{}
		}
	}()
	select {
	case <-extra:
		t.Error("in-progress duplicate produced a second reply")
	case <-time.After(50 * time.Millisecond):
	}
}

// --- teardown races (satellite: Client.fail vs concurrent Close) ------------

// TestFailCloseRaceStress hammers the completion invariant: concurrent
// calls, a client Close, and a server-side connection kill all race.
// Every call must return exactly once (no hang, no double-complete —
// the race detector guards the latter), and the pools must balance once
// the dust settles.
func TestFailCloseRaceStress(t *testing.T) {
	rounds := 40
	if testing.Short() {
		rounds = 8
	}
	before := ReadPoolStats()
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < rounds; round++ {
		clientEnd, serverEnd := Pipe()
		s := NewServer(ONC{})
		s.Workers = 2
		s.Register(7, 1, echoDispatch)
		served := make(chan struct{})
		go func() { defer close(served); s.ServeConn(serverEnd) }()

		c := newEchoClient(clientEnd)
		const callers, perCaller = 6, 4
		var wg sync.WaitGroup
		wg.Add(callers)
		for g := 0; g < callers; g++ {
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perCaller; i++ {
					d, err := c.Do(nil, doubleOp, func(e *Encoder) { e.PutU32BEC(uint32(g + 1)) })
					if err != nil {
						continue // ErrClosed et al. are expected mid-teardown
					}
					if d.Ensure(4) {
						if got := d.U32BE(); got != uint32(2*(g+1)) {
							t.Errorf("double(%d) = %d under teardown race", g+1, got)
						}
					}
					d.Release()
				}
			}(g)
		}
		// Two competing killers, staggered pseudo-randomly.
		killDelay := time.Duration(rng.Intn(500)) * time.Microsecond
		var killers sync.WaitGroup
		killers.Add(2)
		go func() { defer killers.Done(); time.Sleep(killDelay); c.Close() }()
		go func() { defer killers.Done(); time.Sleep(killDelay); serverEnd.Close() }()
		wg.Wait() // every call returned exactly once
		killers.Wait()
		c.Close()
		<-served
	}
	// Quiescence: readers and workers drain, then the pools balance.
	waitPoolBalance(t, before)
}

// waitPoolBalance polls until every pool checkout since the snapshot
// has been returned, failing with the deltas if they never balance.
func waitPoolBalance(t *testing.T, before PoolStats) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		delta := ReadPoolStats().Sub(before)
		if delta.Balanced() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool leak after quiescence: %+v", delta)
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
}
