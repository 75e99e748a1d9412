package rt

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for the sharded connection pool: dispatch policies, health-aware
// load shedding, failover, and teardown.

// poolFixture runs `size` independent echo servers and returns a dial
// function plus per-session request counters.
type poolFixture struct {
	counts []atomic.Uint64
	kill   []func() // severs session i's server-side conn
}

func newPoolFixture(t *testing.T, size int) (*poolFixture, func(i int) (Conn, error)) {
	t.Helper()
	f := &poolFixture{counts: make([]atomic.Uint64, size), kill: make([]func(), size)}
	dial := func(i int) (Conn, error) {
		clientEnd, serverEnd := Pipe()
		s := NewServer(ONC{})
		s.Workers = 2
		s.Register(7, 1, func(h *ReqHeader, d *Decoder, e *Encoder) error {
			f.counts[i].Add(1)
			return echoDispatch(h, d, e)
		})
		done := make(chan struct{})
		go func() { defer close(done); s.ServeConn(serverEnd) }()
		f.kill[i] = func() { serverEnd.Close() }
		t.Cleanup(func() { clientEnd.Close(); <-done })
		return clientEnd, nil
	}
	return f, dial
}

func poolDouble(t *testing.T, p *ClientPool, v uint32) {
	t.Helper()
	d, err := p.Do(nil, doubleIdemOp, func(e *Encoder) { e.PutU32BEC(v) })
	if err != nil {
		t.Fatalf("double(%d): %v", v, err)
	}
	if !d.Ensure(4) {
		t.Fatalf("double(%d): %v", v, d.Err())
	}
	if got := d.U32BE(); got != 2*v {
		t.Errorf("double(%d) = %d", v, got)
	}
	d.Release()
}

func TestPoolRoundRobinSpreads(t *testing.T) {
	const size = 3
	f, dial := newPoolFixture(t, size)
	p, err := NewClientPool(PoolConfig{Size: size, Dial: dial, Proto: ONC{}, Prog: 7, Vers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const calls = 30
	for i := 0; i < calls; i++ {
		poolDouble(t, p, uint32(i+1))
	}
	for i := 0; i < size; i++ {
		if got := f.counts[i].Load(); got != calls/size {
			t.Errorf("session %d served %d calls, want %d (round-robin)", i, got, calls/size)
		}
	}
}

func TestPoolHashByOpAffinity(t *testing.T) {
	const size = 4
	f, dial := newPoolFixture(t, size)
	p, err := NewClientPool(PoolConfig{Size: size, Dial: dial, Proto: ONC{}, Prog: 7, Vers: 1, Policy: HashByOp})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const calls = 20
	for i := 0; i < calls; i++ {
		poolDouble(t, p, uint32(i+1))
	}
	want := int(fnv1a("double") % size)
	for i := 0; i < size; i++ {
		expect := uint64(0)
		if i == want {
			expect = calls
		}
		if got := f.counts[i].Load(); got != expect {
			t.Errorf("session %d served %d calls, want %d (hash affinity)", i, got, expect)
		}
	}
}

func TestPoolFailover(t *testing.T) {
	const size = 3
	f, dial := newPoolFixture(t, size)
	m := NewMetrics()
	p, err := NewClientPool(PoolConfig{
		Size: size, Dial: dial, Proto: ONC{}, Prog: 7, Vers: 1,
		Retry:            &RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond, Seed: 1},
		BreakerThreshold: 1, BreakerCooldown: time.Minute,
		Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	for i := 0; i < size; i++ {
		poolDouble(t, p, uint32(i+1)) // warm every session
	}
	f.kill[0]() // session 0's server goes away

	// Every call must still succeed: session 0 fails, its breaker opens,
	// and the pool fails over to 1/2 (and skips 0 once unhealthy).
	for i := 0; i < 30; i++ {
		poolDouble(t, p, uint32(100+i))
	}
	if got := m.SessionFailovers.Load(); got == 0 {
		t.Error("no failovers recorded despite a dead session")
	}
	if h := p.Healthy(); h != size-1 {
		t.Errorf("Healthy() = %d, want %d (session 0's breaker should be open)", h, size-1)
	}
	if f.counts[1].Load()+f.counts[2].Load() < 30 {
		t.Error("surviving sessions did not absorb the load")
	}
}

func TestPoolAllUnhealthyStillTries(t *testing.T) {
	// With every breaker open, the pool must still hand the call to the
	// preferred session (whose half-open probe is the recovery path)
	// rather than failing without trying.
	const size = 2
	f, dial := newPoolFixture(t, size)
	p, err := NewClientPool(PoolConfig{
		Size: size, Dial: dial, Proto: ONC{}, Prog: 7, Vers: 1,
		BreakerThreshold: 1, BreakerCooldown: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	_ = f

	for i := 0; i < size; i++ {
		p.Client(i).Breaker.failure() // force both breakers open
	}
	time.Sleep(5 * time.Millisecond) // past the cooldown: probes admitted
	poolDouble(t, p, 7)
}

func TestPoolConcurrentCalls(t *testing.T) {
	const size = 4
	_, dial := newPoolFixture(t, size)
	p, err := NewClientPool(PoolConfig{Size: size, Dial: dial, Proto: ONC{}, Prog: 7, Vers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				poolDouble(t, p, uint32(g*1000+i+1))
			}
		}(g)
	}
	wg.Wait()
}

func TestPoolClose(t *testing.T) {
	_, dial := newPoolFixture(t, 2)
	p, err := NewClientPool(PoolConfig{Size: 2, Dial: dial, Proto: ONC{}, Prog: 7, Vers: 1})
	if err != nil {
		t.Fatal(err)
	}
	poolDouble(t, p, 1)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Do(nil, doubleOp, func(e *Encoder) { e.PutU32BEC(1) }); !errors.Is(err, ErrClosed) {
		t.Errorf("Do after Close = %v, want ErrClosed", err)
	}
	if err := p.Close(); err != nil && !errors.Is(err, ErrClosed) {
		t.Errorf("second Close = %v", err)
	}
}

func TestPoolBatchWrap(t *testing.T) {
	_, dial := newPoolFixture(t, 2)
	p, err := NewClientPool(PoolConfig{
		Size: 2, Dial: dial, Proto: ONC{}, Prog: 7, Vers: 1,
		Batch: &BatchConfig{MaxMessages: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 2; i++ {
		if _, ok := p.Client(i).sess.conn.(*BatchConn); !ok {
			t.Errorf("session %d conn is %T, want *BatchConn", i, p.Client(i).sess.conn)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				poolDouble(t, p, uint32(g*100+i+1))
			}
		}(g)
	}
	wg.Wait()
}

func TestPoolConfigValidation(t *testing.T) {
	if _, err := NewClientPool(PoolConfig{Proto: ONC{}}); err == nil {
		t.Error("missing Dial accepted")
	}
	if _, err := NewClientPool(PoolConfig{Dial: func(int) (Conn, error) { a, _ := Pipe(); return a, nil }}); err == nil {
		t.Error("missing Proto accepted")
	}
}
