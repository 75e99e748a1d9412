package rt

import (
	"errors"
	"io"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for the credit-windowed server-push stream surface: delivery
// order, zero-window blocking, cancellation, error and teardown
// classification, and pool hygiene.

// streamFixture serves a hand-written stream dispatcher shaped exactly
// like a generated arm: proc 5 ("count") streams `n` sequence-numbered
// u32 chunks, pacing against the consumer's credit. sent counts
// successfully transmitted chunks; senderErr reports the handler's Send
// loop outcome when it ends.
type streamFixture struct {
	conn      Conn
	sent      atomic.Uint64
	senderErr chan error
}

func startStreamServer(t *testing.T) *streamFixture {
	t.Helper()
	f := &streamFixture{senderErr: make(chan error, 16)}
	clientEnd, serverEnd := Pipe()
	s := NewServer(ONC{})
	s.Workers = 4
	s.Register(7, 1, func(h *ReqHeader, d *Decoder, e *Encoder) error {
		if h.Proc != 5 {
			return echoDispatch(h, d, e)
		}
		h.OpName = "count"
		if !d.Ensure(8) {
			return d.Err()
		}
		n := d.U32BE()
		failAfter := d.U32BE() // stream a work error after this many chunks (0 = never)
		h.OneWay = true
		sn := NewStreamSender(h)
		var workErr error
		for i := uint32(0); i < n; i++ {
			if failAfter > 0 && i == failAfter {
				workErr = errors.New("mid-stream work failure")
				break
			}
			if err := sn.Send(func(e *Encoder) { e.PutU32BEC(i) }); err != nil {
				f.senderErr <- err
				sn.Finish(err)
				return nil
			}
			f.sent.Add(1)
		}
		f.senderErr <- workErr
		sn.Finish(workErr)
		return nil
	})
	done := make(chan struct{})
	go func() { defer close(done); s.ServeConn(serverEnd) }()
	t.Cleanup(func() { clientEnd.Close(); <-done })
	f.conn = clientEnd
	return f
}

// countStream opens a proc-5 stream for n chunks with the given window.
func countStream(t *testing.T, c *Client, n, failAfter uint32, window int) *ClientStream {
	t.Helper()
	st, err := c.Stream(nil, &Op{Proc: 5, Name: "count"}, window, func(e *Encoder) {
		e.PutU32BEC(n)
		e.PutU32BEC(failAfter)
	})
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	return st
}

// recvAll consumes chunks until the terminal status, verifying the
// sequence numbers arrive dense and in order, and returns the terminal.
func recvAll(t *testing.T, st *ClientStream) (got uint32, terminal error) {
	t.Helper()
	for {
		d, err := st.Recv()
		if err != nil {
			return got, err
		}
		if !d.Ensure(4) {
			t.Fatalf("chunk %d: %v", got, d.Err())
		}
		if seq := d.U32BE(); seq != got {
			t.Fatalf("chunk out of order: got seq %d, want %d", seq, got)
		}
		d.Release()
		got++
	}
}

func TestStreamDeliversInOrder(t *testing.T) {
	before := ReadPoolStats()
	f := startStreamServer(t)
	c := newEchoClient(f.conn)

	const n = 200
	st := countStream(t, c, n, 0, 8)
	got, terminal := recvAll(t, st)
	if !errors.Is(terminal, io.EOF) {
		t.Fatalf("terminal = %v, want io.EOF", terminal)
	}
	if got != n {
		t.Fatalf("received %d chunks, want %d", got, n)
	}
	if err := <-f.senderErr; err != nil {
		t.Fatalf("sender ended with %v", err)
	}
	waitPoolBalance(t, before)
}

// TestStreamCoexistsWithCalls interleaves a long stream with pipelined
// sync and async calls on the same session: the XID multiplexer must
// route chunks and replies independently.
func TestStreamCoexistsWithCalls(t *testing.T) {
	f := startStreamServer(t)
	c := newEchoClient(f.conn)

	const n = 64
	st := countStream(t, c, n, 0, 4)
	var got uint32
	for {
		doubleCall(t, c, got+1)
		p := c.Go(nil, doubleIdemOp, func(e *Encoder) { e.PutU32BEC(9) })
		d, err := st.Recv()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				t.Fatalf("terminal = %v, want io.EOF", err)
			}
			pd, perr := p.Wait()
			if perr != nil {
				t.Fatal(perr)
			}
			pd.Release()
			break
		}
		if !d.Ensure(4) {
			t.Fatal(d.Err())
		}
		if seq := d.U32BE(); seq != got {
			t.Fatalf("chunk %d arrived as %d (cross-matched with a call?)", got, seq)
		}
		d.Release()
		got++
		pd, perr := p.Wait()
		if perr != nil {
			t.Fatal(perr)
		}
		pd.Release()
	}
	if got != n {
		t.Fatalf("received %d chunks, want %d", got, n)
	}
}

// TestStreamZeroWindowBlocksSender pins the backpressure contract: with
// a window of zero the server's first Send must not transmit until the
// consumer grants credit — one Grant(1) admits exactly one chunk.
func TestStreamZeroWindowBlocksSender(t *testing.T) {
	f := startStreamServer(t)
	c := newEchoClient(f.conn)

	st := countStream(t, c, 3, 0, 0)
	time.Sleep(50 * time.Millisecond)
	if n := f.sent.Load(); n != 0 {
		t.Fatalf("sender transmitted %d chunks with zero credit", n)
	}
	for i := uint32(0); i < 3; i++ {
		if err := st.Grant(1); err != nil {
			t.Fatalf("Grant: %v", err)
		}
		d, err := st.Recv()
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		if !d.Ensure(4) {
			t.Fatal(d.Err())
		}
		if seq := d.U32BE(); seq != i {
			t.Fatalf("seq = %d, want %d", seq, i)
		}
		d.Release()
		// One credit, one chunk: the sender must be blocked again.
		time.Sleep(10 * time.Millisecond)
		if n := f.sent.Load(); n != uint64(i+1) {
			t.Fatalf("after %d grants the sender transmitted %d chunks", i+1, n)
		}
	}
	if _, err := st.Recv(); !errors.Is(err, io.EOF) {
		t.Fatalf("terminal = %v, want io.EOF", err)
	}
}

// TestStreamCancelUnblocksSender cancels mid-transfer: the handler's
// blocked Send returns ErrStreamCanceled, the consumer's Recv reports
// the cancel, and nothing leaks.
func TestStreamCancelUnblocksSender(t *testing.T) {
	before := ReadPoolStats()
	f := startStreamServer(t)
	c := newEchoClient(f.conn)

	st := countStream(t, c, 1000, 0, 2)
	// Take a couple of chunks, then walk away.
	for i := 0; i < 2; i++ {
		d, err := st.Recv()
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		d.Release()
	}
	st.Cancel()
	if err := <-f.senderErr; !errors.Is(err, ErrStreamCanceled) {
		t.Fatalf("sender ended with %v, want ErrStreamCanceled", err)
	}
	if _, err := st.Recv(); !errors.Is(err, ErrStreamCanceled) {
		t.Fatalf("Recv after Cancel = %v, want ErrStreamCanceled", err)
	}
	st.Cancel() // idempotent
	waitPoolBalance(t, before)
}

// TestStreamWorkErrorClassifiesLikeSync streams a handler failure: the
// consumer sees the delivered prefix, then a terminal matching
// ErrSystem — the same classification a failing single-shot dispatch
// produces.
func TestStreamWorkErrorClassifiesLikeSync(t *testing.T) {
	f := startStreamServer(t)
	c := newEchoClient(f.conn)

	st := countStream(t, c, 10, 4, 4)
	got, terminal := recvAll(t, st)
	if got != 4 {
		t.Fatalf("received %d chunks before the error, want 4", got)
	}
	if !errors.Is(terminal, ErrSystem) {
		t.Fatalf("terminal = %v, want ErrSystem", terminal)
	}
	if err := <-f.senderErr; err == nil {
		t.Fatal("sender should have reported the work error")
	}
	// Sticky terminal.
	if _, err := st.Recv(); !errors.Is(err, ErrSystem) {
		t.Fatalf("second Recv = %v, want ErrSystem", err)
	}
}

// TestStreamTeardownMidTransfer severs the connection under a live
// stream: the consumer must get a terminal matching ErrStreamBroken
// (and ErrRetryable — re-issue from the start), never a hang or a
// silently short transfer, and the pools must balance afterwards.
func TestStreamTeardownMidTransfer(t *testing.T) {
	before := ReadPoolStats()
	clientEnd, serverEnd := Pipe()
	s := NewServer(ONC{})
	s.Workers = 2
	release := make(chan struct{})
	s.Register(7, 1, func(h *ReqHeader, d *Decoder, e *Encoder) error {
		h.OpName, h.OneWay = "count", true
		sn := NewStreamSender(h)
		for i := uint32(0); ; i++ {
			if i == 8 {
				close(release) // signal the test to cut the link
			}
			if err := sn.Send(func(e *Encoder) { e.PutU32BEC(i) }); err != nil {
				sn.Finish(err)
				return nil
			}
		}
	})
	done := make(chan struct{})
	go func() { defer close(done); s.ServeConn(serverEnd) }()
	t.Cleanup(func() { clientEnd.Close(); <-done })

	c := newEchoClient(clientEnd)
	st, err := c.Stream(nil, &Op{Proc: 5, Name: "count"}, 4, func(e *Encoder) {})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		<-release
		serverEnd.Close()
	}()
	var terminal error
	for {
		d, rerr := st.Recv()
		if rerr != nil {
			terminal = rerr
			break
		}
		d.Release()
	}
	if !errors.Is(terminal, ErrStreamBroken) {
		t.Fatalf("terminal = %v, want ErrStreamBroken", terminal)
	}
	if !errors.Is(terminal, ErrRetryable) {
		t.Fatalf("terminal = %v, want ErrRetryable (re-issue from the start)", terminal)
	}
	waitPoolBalance(t, before)
}

// dropNthChunkConn swallows the nth outgoing stream chunk frame,
// simulating loss in transit below the runtime (a lossy link whose
// integrity layer discarded a damaged frame).
type dropNthChunkConn struct {
	Conn
	n, seen int
}

func (c *dropNthChunkConn) Send(msg []byte) error {
	if kind, _, _, _, ok := SplitStream(msg); ok && kind == streamChunk {
		c.seen++
		if c.seen == c.n {
			return nil
		}
	}
	return c.Conn.Send(msg)
}

// TestStreamShortDeliveryClassified pins the end-frame chunk count: a
// chunk lost in transit — even one adjacent to the end of the stream —
// must turn the clean end into ErrStreamBroken (retryable), never a
// silently short EOF.
func TestStreamShortDeliveryClassified(t *testing.T) {
	before := ReadPoolStats()
	clientEnd, serverEnd := Pipe()
	s := NewServer(ONC{})
	s.Workers = 2
	s.Register(7, 1, func(h *ReqHeader, d *Decoder, e *Encoder) error {
		h.OpName, h.OneWay = "count", true
		sn := NewStreamSender(h)
		var workErr error
		for i := uint32(0); i < 6; i++ {
			if err := sn.Send(func(e *Encoder) { e.PutU32BEC(i) }); err != nil {
				workErr = err
				break
			}
		}
		sn.Finish(workErr)
		return nil
	})
	lossy := &dropNthChunkConn{Conn: serverEnd, n: 4}
	done := make(chan struct{})
	go func() { defer close(done); s.ServeConn(lossy) }()
	t.Cleanup(func() { clientEnd.Close(); <-done })

	c := newEchoClient(clientEnd)
	st, err := c.Stream(nil, &Op{Proc: 5, Name: "count"}, 8, func(e *Encoder) {})
	if err != nil {
		t.Fatal(err)
	}
	var got int
	var terminal error
	for {
		d, rerr := st.Recv()
		if rerr != nil {
			terminal = rerr
			break
		}
		d.Release()
		got++
	}
	if got != 5 {
		t.Fatalf("delivered %d chunks, want 5 (one dropped)", got)
	}
	if !errors.Is(terminal, ErrStreamBroken) {
		t.Fatalf("terminal = %v, want ErrStreamBroken (short delivery)", terminal)
	}
	if !errors.Is(terminal, ErrRetryable) {
		t.Fatalf("terminal = %v, want ErrRetryable", terminal)
	}
	waitPoolBalance(t, before)
}

// TestStreamOvergrantRejected pins the window-buffer bound: credit
// beyond the receive buffer is refused without sending, so the
// delivery invariant (chunks never overflow the channel) holds.
func TestStreamOvergrantRejected(t *testing.T) {
	f := startStreamServer(t)
	c := newEchoClient(f.conn)
	st := countStream(t, c, 1, 0, 0)
	if err := st.Grant(1 << 20); err == nil {
		t.Fatal("huge Grant should be refused")
	}
	st.Cancel()
	<-f.senderErr
}
