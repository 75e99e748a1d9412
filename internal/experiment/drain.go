package experiment

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	ts "flick/internal/teststubs"
	"flick/rt"
)

// This file is the rolling-restart soak: a fleet of K servers behind a
// K-session ClientPool, with a restarter goroutine draining and
// replacing one server at a time while caller goroutines hammer the
// pool. The invariant the harness exists to prove: a drain is
// loss-free. Every call accepted by a draining server is answered;
// every call shed after GOAWAY is shed with a failover-safe status and
// lands on another server; nothing returns a wrong answer or an
// unclassified error; no pooled buffer leaks.

// DrainConfig parameterizes one rolling-restart soak.
type DrainConfig struct {
	// Calls is the total number of Sum round trips (default 8000),
	// split across Callers goroutines (default 8).
	Calls   int
	Callers int
	// Seed makes the run reproducible (fault plans, retry jitter,
	// payloads, restart cadence).
	Seed int64
	// Plan is the per-connection fault plan (zero for a clean-link run,
	// which must be 100% loss-free).
	Plan rt.FaultPlan
	// Servers is the fleet size, and the pool size (default 4); session
	// i always dials the current incarnation of server i.
	Servers int
	// Restarts is how many rolling restarts the restarter performs
	// while traffic flows (default 2 passes over the fleet).
	Restarts int
	// DrainTimeout bounds each server's Drain (default 250ms).
	DrainTimeout time.Duration
	// RestartEvery spaces restarts out so traffic flows between them
	// (default 3ms).
	RestartEvery time.Duration
}

// DrainResult aggregates one soak's outcome.
type DrainResult struct {
	Calls      uint64
	Succeeded  uint64
	Mismatches uint64 // wrong answers: must be zero, always
	// Classified failure classes; FailedOther (unclassified) must be 0.
	FailedRetryable    uint64
	FailedNotRetryable uint64
	FailedBreaker      uint64
	FailedOther        uint64

	// Drain accounting.
	Restarts    uint64 // drains performed
	CleanDrains uint64 // drains where every in-flight call settled in time
	// Client-side lifecycle counters.
	GoAways, Reconnects, SessionFailovers uint64
	// Server-side shed counters (summed over all incarnations).
	DrainRejects, ExpiredRejects, CanceledCalls uint64

	PoolDelta rt.PoolStats
	Wall      time.Duration
}

// RunDrain executes one rolling-restart soak and waits for quiescence
// before returning.
func RunDrain(cfg DrainConfig) (*DrainResult, error) {
	if cfg.Calls <= 0 {
		cfg.Calls = 8000
	}
	if cfg.Callers <= 0 {
		cfg.Callers = 8
	}
	if cfg.Servers <= 0 {
		cfg.Servers = 4
	}
	if cfg.Restarts <= 0 {
		cfg.Restarts = 2 * cfg.Servers
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 250 * time.Millisecond
	}
	if cfg.RestartEvery <= 0 {
		cfg.RestartEvery = 3 * time.Millisecond
	}

	serverMetrics := rt.NewMetrics()
	clientMetrics := rt.NewMetrics()

	var mu sync.Mutex
	var serveWG sync.WaitGroup
	connSeed := cfg.Seed
	// servers[i] is server i's current incarnation; a restart swaps in
	// a fresh Server before draining the old one, so session i's redial
	// lands on the replacement.
	servers := make([]*rt.Server, cfg.Servers)
	faulty := cfg.Plan != (rt.FaultPlan{})

	newServer := func() *rt.Server {
		srv := rt.NewServer(rt.ONC{})
		srv.Workers = 4
		srv.DupWindow = 4096
		srv.MaxMessage = 1 << 20
		srv.Metrics = serverMetrics
		ts.RegisterBenchXDR(srv, pipelineImpl{})
		return srv
	}
	for i := range servers {
		servers[i] = newServer()
	}

	// dial builds one link from session i to server i's current
	// incarnation, optionally hostile (FaultConn under CRC framing,
	// exactly as the chaos soak wires it).
	dial := func(i int) (rt.Conn, error) {
		mu.Lock()
		connSeed++
		seed := connSeed
		srv := servers[i]
		mu.Unlock()
		clientPipe, serverPipe := rt.Pipe()
		clientSide := clientPipe
		serverSide := serverPipe
		if faulty {
			plan := cfg.Plan
			plan.Seed = seed
			fc, err := rt.NewFaultConn(clientPipe, plan)
			if err != nil {
				return nil, err
			}
			clientSide = rt.WrapChecksum(fc)
			serverSide = rt.WrapChecksum(serverPipe)
		}
		serveWG.Add(1)
		go func() { defer serveWG.Done(); srv.ServeConn(serverSide) }()
		return clientSide, nil
	}

	poolBefore := rt.ReadPoolStats()
	retry := &rt.RetryPolicy{
		MaxAttempts: 8,
		BaseBackoff: 200 * time.Microsecond,
		MaxBackoff:  5 * time.Millisecond,
		Seed:        cfg.Seed + 7,
	}
	pool, err := rt.NewClientPool(rt.PoolConfig{
		Size:             cfg.Servers,
		Dial:             dial,
		Proto:            rt.ONC{},
		Timeout:          150 * time.Millisecond,
		Retry:            retry,
		BreakerThreshold: 64,
		BreakerCooldown:  2 * time.Millisecond,
		Redial:           true,
		Metrics:          clientMetrics,
	})
	if err != nil {
		return nil, err
	}

	res := &DrainResult{}
	per := cfg.Calls / cfg.Callers
	if per < 1 {
		per = 1
	}
	var wg sync.WaitGroup
	var resMu sync.Mutex
	done := make(chan struct{})
	start := time.Now()

	// The restarter: one rolling pass at a time, draining server
	// (r mod K) and swapping in a fresh incarnation first so redials
	// land on the replacement. This is the rolling-restart procedure an
	// operator would script; the soak proves it loses nothing.
	var restartWG sync.WaitGroup
	restartWG.Add(1)
	go func() {
		defer restartWG.Done()
		for r := 0; r < cfg.Restarts; r++ {
			select {
			case <-done:
				return
			case <-time.After(cfg.RestartEvery):
			}
			i := r % cfg.Servers
			mu.Lock()
			old := servers[i]
			servers[i] = newServer()
			mu.Unlock()
			clean := old.Drain(cfg.DrainTimeout)
			resMu.Lock()
			res.Restarts++
			if clean {
				res.CleanDrains++
			}
			resMu.Unlock()
		}
	}()

	for g := 0; g < cfg.Callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(g)*1000003))
			v := make([]int32, 16)
			var local DrainResult
			for i := 0; i < per; i++ {
				n := 1 + rng.Intn(len(v))
				var want int32
				for j := 0; j < n; j++ {
					v[j] = int32(rng.Intn(1 << 20))
					want += v[j]
				}
				local.Calls++
				d, err := pool.Do(nil, &ts.BenchSumXDROp, func(e *rt.Encoder) {
					ts.MarshalBenchSumXDRRequest(e, v[:n])
				})
				var ret int32
				if err == nil {
					ret, err = ts.UnmarshalBenchSumXDRReply(d)
					d.Release()
				}
				switch {
				case err == nil && ret == want:
					local.Succeeded++
				case err == nil:
					local.Mismatches++
				case errors.Is(err, rt.ErrBreakerOpen):
					local.FailedBreaker++
				case errors.Is(err, rt.ErrRetryable):
					local.FailedRetryable++
				case errors.Is(err, rt.ErrNotRetryable):
					local.FailedNotRetryable++
				default:
					local.FailedOther++
				}
			}
			resMu.Lock()
			res.Calls += local.Calls
			res.Succeeded += local.Succeeded
			res.Mismatches += local.Mismatches
			res.FailedBreaker += local.FailedBreaker
			res.FailedRetryable += local.FailedRetryable
			res.FailedNotRetryable += local.FailedNotRetryable
			res.FailedOther += local.FailedOther
			resMu.Unlock()
		}(g)
	}
	wg.Wait()
	close(done)
	restartWG.Wait()
	res.Wall = time.Since(start)

	// Teardown: close the pool (server conns see EOF and ServeConn
	// returns), then wait for quiescence and pooled-buffer balance.
	pool.Close()
	serveWG.Wait()
	deadline := time.Now().Add(3 * time.Second)
	for {
		res.PoolDelta = rt.ReadPoolStats().Sub(poolBefore)
		if res.PoolDelta.Balanced() || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	res.GoAways = clientMetrics.GoAways.Load()
	res.Reconnects = clientMetrics.Reconnects.Load()
	res.SessionFailovers = clientMetrics.SessionFailovers.Load()
	res.DrainRejects = serverMetrics.DrainRejects.Load()
	res.ExpiredRejects = serverMetrics.ExpiredRejects.Load()
	res.CanceledCalls = serverMetrics.CanceledCalls.Load()
	return res, nil
}

// Drain reports the rolling-restart soak at increasing fault rates:
// the clean-link row must be perfectly loss-free (ok == calls), and
// every row must show zero wrong answers, zero unclassified errors,
// and no pool leak.
func Drain() *Report {
	return drainReport(8000, []float64{0, 0.05})
}

// DrainShort is the CI-sized run: clean link only, fewer calls.
func DrainShort() *Report {
	return drainReport(2000, []float64{0})
}

func drainReport(calls int, rates []float64) *Report {
	rep := &Report{
		Title: "Rolling restart: lameduck drain under load",
		Cols: []string{"fault rate", "calls", "ok", "failed", "wrong", "restarts",
			"clean drains", "goaways", "drain sheds", "redials", "failovers", "pool leak"},
		Notes: []string{
			"K=4 servers behind a K-session pool; a restarter drains one server at a time (GOAWAY, settle, close) and swaps in a replacement",
			"drained sessions report unhealthy and the pool migrates; sheds after GOAWAY are ReplyOverloaded (failover-safe, nothing executed)",
			"clean-link row must be 100% ok; 'wrong' and pool leaks must be 0 at every rate",
		},
	}
	for _, rate := range rates {
		var plan rt.FaultPlan
		if rate > 0 {
			plan = DefaultChaosPlan(rate)
		}
		res, err := RunDrain(DrainConfig{Calls: calls, Callers: 8, Seed: 1, Plan: plan})
		if err != nil {
			rep.AddRow(fmt.Sprintf("%.0f%%", rate*100), "error: "+err.Error())
			continue
		}
		failed := res.FailedRetryable + res.FailedNotRetryable + res.FailedBreaker + res.FailedOther
		leak := "none"
		if !res.PoolDelta.Balanced() {
			leak = fmt.Sprintf("%+v", res.PoolDelta)
		}
		rep.AddRow(
			fmt.Sprintf("%.0f%%", rate*100),
			fmt.Sprintf("%d", res.Calls),
			fmt.Sprintf("%d", res.Succeeded),
			fmt.Sprintf("%d", failed),
			fmt.Sprintf("%d", res.Mismatches),
			fmt.Sprintf("%d", res.Restarts),
			fmt.Sprintf("%d", res.CleanDrains),
			fmt.Sprintf("%d", res.GoAways),
			fmt.Sprintf("%d", res.DrainRejects),
			fmt.Sprintf("%d", res.Reconnects),
			fmt.Sprintf("%d", res.SessionFailovers),
			leak,
		)
	}
	return rep
}
