package rt

import (
	"bytes"
	"sync"
	"testing"
)

func TestPipeRoundTrip(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	msgs := [][]byte{{1}, {2, 3}, make([]byte, 100_000)}
	go func() {
		for _, m := range msgs {
			if err := a.Send(m); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for _, want := range msgs {
		got, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("message mismatch (%d bytes)", len(want))
		}
	}
}

func TestPipeClose(t *testing.T) {
	a, b := Pipe()
	a.Close()
	if _, err := b.Recv(); err != ErrClosed {
		t.Errorf("recv after close = %v", err)
	}
	if err := b.Send([]byte{1}); err != ErrClosed {
		t.Errorf("send after close = %v", err)
	}
}

func TestPipeSendCopiesBuffer(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	buf := []byte{1, 2, 3}
	if err := a.Send(buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 99 // the caller may reuse its buffer
	got, err := b.Recv()
	if err != nil || got[0] != 1 {
		t.Errorf("message aliased caller buffer: %v %v", got, err)
	}
}

func TestTCPRecordMarking(t *testing.T) {
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	var serverErr error
	go func() {
		defer wg.Done()
		c, err := l.Accept()
		if err != nil {
			serverErr = err
			return
		}
		defer c.Close()
		for {
			m, err := c.Recv()
			if err != nil {
				return
			}
			if err := c.Send(m); err != nil {
				serverErr = err
				return
			}
		}
	}()
	c, err := DialTCP(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, n := range []int{0, 1, 5, 70_000, 1 << 20} {
		msg := bytes.Repeat([]byte{0xAB}, n)
		if err := c.Send(msg); err != nil {
			t.Fatal(err)
		}
		got, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Errorf("echo of %d bytes mismatched", n)
		}
	}
	c.Close()
	wg.Wait()
	if serverErr != nil {
		t.Error(serverErr)
	}
}

func TestUDPRoundTrip(t *testing.T) {
	server, addr, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	go func() {
		for {
			m, err := server.Recv()
			if err != nil {
				return
			}
			server.Send(m)
		}
	}()
	c, err := DialUDP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	msg := []byte("datagram")
	if err := c.Send(msg); err != nil {
		t.Fatal(err)
	}
	got, err := c.Recv()
	if err != nil || !bytes.Equal(got, msg) {
		t.Errorf("udp echo = %v, %v", got, err)
	}
	// Oversize datagrams are rejected client-side.
	if err := c.Send(make([]byte, 128<<10)); err == nil {
		t.Error("oversize datagram accepted")
	}
}

func TestClientServerConcurrentClients(t *testing.T) {
	s := NewServer(ONC{})
	s.Register(1, 1, func(h *ReqHeader, d *Decoder, e *Encoder) error {
		if !d.Ensure(4) {
			return d.Err()
		}
		v := d.U32BE()
		e.Grow(4)
		e.PutU32BE(v * 2)
		return nil
	})
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	serveListener(t, s, l)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			conn, err := DialTCP(l.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			c := NewClient(conn, ONC{})
			c.Prog, c.Vers = 1, 1
			defer c.Close()
			for i := 0; i < 50; i++ {
				v := uint32(g*1000 + i)
				d, err := c.Do(nil, &Op{Proc: 0, Name: "dbl"}, func(e *Encoder) {
					e.Grow(4)
					e.PutU32BE(v)
				})
				if err != nil {
					t.Error(err)
					return
				}
				if !d.Ensure(4) {
					t.Error(d.Err())
					return
				}
				if got := d.U32BE(); got != v*2 {
					t.Errorf("got %d, want %d", got, v*2)
					return
				}
				d.Release()
			}
		}(g)
	}
	wg.Wait()
}

func TestServerUnknownProgram(t *testing.T) {
	s := NewServer(ONC{})
	a, b := Pipe()
	defer a.Close()
	serveConn(t, s, b)
	c := NewClient(a, ONC{})
	c.Prog, c.Vers = 9, 9
	if _, err := c.Do(nil, &Op{Proc: 0, Name: "x"}, func(e *Encoder) {}); err != ErrSystem {
		t.Errorf("unknown program err = %v", err)
	}
}
