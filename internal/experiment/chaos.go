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

// This file is the chaos soak harness: generated stubs driven over a
// deliberately hostile link (rt.FaultConn under a CRC32-C integrity
// layer) with the full client fault-tolerance stack engaged — retry
// policy, redial, circuit breaker — against a hardened server (panic
// recovery, duplicate suppression, message bounds). The invariant the
// harness exists to prove: under drops, duplicates, reordering,
// corruption, truncation, and mid-stream resets, a call either returns
// the right answer or a classified error — never a wrong answer — and
// the runtime leaks neither pooled buffers nor goroutines.

// ChaosConfig parameterizes one soak run.
type ChaosConfig struct {
	// Calls is the total number of Sum round trips issued (default
	// 10000), split across Callers goroutines (default 8).
	Calls   int
	Callers int
	// Seed makes the whole run reproducible: it seeds every fault plan
	// (per connection), the retry jitter, and the payload generators.
	Seed int64
	// Plan is the per-connection fault plan; its Seed field is
	// overridden per dial so redialed connections draw fresh fault
	// sequences that are still deterministic in aggregate.
	Plan rt.FaultPlan
	// Workers is the server-side worker pool size (default 4).
	Workers int
	// PingEvery, when positive, issues a oneway Ping before every Nth
	// Sum to mix fire-and-forget traffic into the soak.
	PingEvery int
	// PoolSize, when positive, drives the soak through an rt.ClientPool
	// of that many sessions — each its own hostile link with its own
	// breaker and redial — instead of a single client. The pooled soak
	// additionally proves session failover under chaos.
	PoolSize int
	// Batch, when true (pooled mode only), wraps every session's link
	// in a coalescing BatchConn, putting the batch envelope itself
	// under fire: a corrupted batch frame must degrade into the loss of
	// its calls, never into a wrong answer.
	Batch bool
	// Tracer, when non-nil, is attached to every client session AND
	// every server the soak dials up, so client and server spans land
	// in one ring and reassemble into complete trees. Size the ring for
	// the run (a traced chaos call records 3+ spans) before passing it.
	Tracer *rt.Tracer
}

// ChaosResult aggregates one soak run's outcome.
type ChaosResult struct {
	Calls      uint64
	Succeeded  uint64
	Mismatches uint64 // wrong answers: must be zero, always
	// Failure classes (errors are acceptable under chaos; wrong answers
	// and unclassified errors are not).
	FailedRetryable    uint64
	FailedNotRetryable uint64
	FailedBreaker      uint64
	FailedOther        uint64

	// Client-side resilience counters.
	Retries, Reconnects       uint64
	BreakerOpen, StaleReplies uint64
	// Pooled-mode counters: calls re-dispatched to another session, and
	// calls that travelled inside multi-message batch frames.
	SessionFailovers, BatchedCalls uint64
	// Server-side hardening counters.
	DroppedDupes, PanicsRecovered, Oversized uint64
	// Link-level damage.
	FaultsInjected  uint64
	ChecksumRejects uint64

	// PoolDelta is the pool checkout imbalance after quiescence: any
	// non-balanced delta is a leaked buffer.
	PoolDelta rt.PoolStats
	Wall      time.Duration
}

// RunChaos executes one soak and waits for full quiescence (servers
// drained, pools balanced or timed out) before returning.
func RunChaos(cfg ChaosConfig) (*ChaosResult, error) {
	if cfg.Calls <= 0 {
		cfg.Calls = 10000
	}
	if cfg.Callers <= 0 {
		cfg.Callers = 8
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}

	serverMetrics := rt.NewMetrics()
	clientMetrics := rt.NewMetrics()

	var mu sync.Mutex
	var faults []*rt.FaultConn
	var checks []*rt.ChecksumConn
	var serveWG sync.WaitGroup
	connSeed := cfg.Seed

	// dial builds one hostile link: the client speaks through a CRC
	// layer wrapping a FaultConn (so injected corruption and truncation
	// are detected and degrade into loss), the server answers behind its
	// own CRC layer with the hardening features on. Used for the first
	// connection and by the client's Redial after every reset.
	dial := func() (rt.Conn, error) {
		mu.Lock()
		connSeed++
		seed := connSeed
		mu.Unlock()
		clientPipe, serverPipe := rt.Pipe()
		plan := cfg.Plan
		plan.Seed = seed
		fc, err := rt.NewFaultConn(clientPipe, plan)
		if err != nil {
			return nil, err
		}
		clientSide := rt.WrapChecksum(fc)
		serverSide := rt.WrapChecksum(serverPipe)

		srv := rt.NewServer(rt.ONC{})
		srv.Workers = cfg.Workers
		srv.DupWindow = 4096
		srv.MaxMessage = 1 << 20
		srv.Metrics = serverMetrics
		srv.Tracer = cfg.Tracer
		ts.RegisterBenchXDR(srv, pipelineImpl{})
		serveWG.Add(1)
		go func() { defer serveWG.Done(); srv.ServeConn(serverSide) }()

		mu.Lock()
		faults = append(faults, fc)
		checks = append(checks, clientSide, serverSide)
		mu.Unlock()
		return clientSide, nil
	}

	poolBefore := rt.ReadPoolStats()
	retry := &rt.RetryPolicy{
		MaxAttempts: 8,
		BaseBackoff: 200 * time.Microsecond,
		MaxBackoff:  5 * time.Millisecond,
		Seed:        cfg.Seed + 7,
	}

	// The soak drives either a single resilient client (the PR 4
	// configuration) or, in pooled mode, the scale-out fabric's
	// ClientPool — same hostile links, same retry policy, per-session
	// breakers, failover across sessions.
	var sumCall func(v []int32) (int32, error)
	var pingCall func(nonce int32)
	var closeClient func()
	var debugPool *rt.ClientPool
	if cfg.PoolSize > 0 {
		var batch *rt.BatchConfig
		if cfg.Batch {
			batch = &rt.BatchConfig{MaxMessages: 16}
		}
		pool, err := rt.NewClientPool(rt.PoolConfig{
			Size:             cfg.PoolSize,
			Dial:             func(int) (rt.Conn, error) { return dial() },
			Proto:            rt.ONC{},
			Timeout:          150 * time.Millisecond,
			Retry:            retry,
			BreakerThreshold: 64,
			BreakerCooldown:  2 * time.Millisecond,
			Redial:           true,
			Batch:            batch,
			Metrics:          clientMetrics,
			Tracer:           cfg.Tracer,
		})
		if err != nil {
			return nil, err
		}
		sumCall = func(v []int32) (int32, error) {
			d, err := pool.Do(nil, &ts.BenchSumXDROp, func(e *rt.Encoder) {
				ts.MarshalBenchSumXDRRequest(e, v)
			})
			if err != nil {
				return 0, err
			}
			ret, err := ts.UnmarshalBenchSumXDRReply(d)
			d.Release()
			return ret, err
		}
		pingCall = func(nonce int32) {
			pool.Do(nil, &ts.BenchPingXDROp, func(e *rt.Encoder) {
				ts.MarshalBenchPingXDRRequest(e, nonce)
			})
		}
		closeClient = func() { pool.Close() }
		debugPool = pool
	} else {
		first, err := dial()
		if err != nil {
			return nil, err
		}
		client := ts.NewBenchXDRClient(first)
		client.C.Metrics = clientMetrics
		client.C.Tracer = cfg.Tracer
		client.C.Timeout = 150 * time.Millisecond
		client.C.Retry = retry
		client.C.Redial = dial
		client.C.Breaker = &rt.Breaker{Threshold: 64, Cooldown: 2 * time.Millisecond}
		sumCall = client.Sum
		pingCall = func(nonce int32) { client.Ping(nonce) }
		closeClient = func() { client.C.Close() }
	}

	if Debug != nil {
		Debug.Publish(rt.DebugConfig{Metrics: clientMetrics, Tracer: cfg.Tracer, Pool: debugPool})
	}

	res := &ChaosResult{}
	per := cfg.Calls / cfg.Callers
	if per < 1 {
		per = 1
	}
	var wg sync.WaitGroup
	var resMu sync.Mutex
	start := time.Now()
	for g := 0; g < cfg.Callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(g)*1000003))
			v := make([]int32, 16)
			var local ChaosResult
			for i := 0; i < per; i++ {
				if cfg.PingEvery > 0 && i%cfg.PingEvery == 0 {
					pingCall(int32(i)) // oneway: errors acceptable, ignored
				}
				n := 1 + rng.Intn(len(v))
				var want int32
				for j := 0; j < n; j++ {
					v[j] = int32(rng.Intn(1 << 20))
					want += v[j]
				}
				local.Calls++
				ret, err := sumCall(v[:n])
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
	res.Wall = time.Since(start)

	// Teardown: close the live connection, wait for every server (old
	// ones died at redial time) to drain, then give the reply readers a
	// moment to finish returning pooled decoders.
	closeClient()
	serveWG.Wait()
	deadline := time.Now().Add(3 * time.Second)
	for {
		res.PoolDelta = rt.ReadPoolStats().Sub(poolBefore)
		if res.PoolDelta.Balanced() || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	res.Retries = clientMetrics.Retries.Load()
	res.Reconnects = clientMetrics.Reconnects.Load()
	res.BreakerOpen = clientMetrics.BreakerOpen.Load()
	res.StaleReplies = clientMetrics.StaleReplies.Load()
	res.SessionFailovers = clientMetrics.SessionFailovers.Load()
	res.BatchedCalls = clientMetrics.BatchedCalls.Load()
	res.DroppedDupes = serverMetrics.DroppedDupes.Load()
	res.PanicsRecovered = serverMetrics.PanicsRecovered.Load()
	res.Oversized = serverMetrics.Oversized.Load()
	mu.Lock()
	for _, f := range faults {
		res.FaultsInjected += f.Stats.Drops.Load() + f.Stats.Dups.Load() +
			f.Stats.Reorders.Load() + f.Stats.Corrupts.Load() +
			f.Stats.Truncates.Load() + f.Stats.Resets.Load() + f.Stats.Delays.Load()
	}
	for _, cs := range checks {
		res.ChecksumRejects += cs.Rejected.Load()
	}
	mu.Unlock()
	return res, nil
}

// DefaultChaosPlan spreads a combined fault rate evenly across the six
// damaging fault kinds (plus a small delay share), matching the soak
// target of "N% combined faults".
func DefaultChaosPlan(combined float64) rt.FaultPlan {
	share := combined / 6
	return rt.FaultPlan{
		Drop:      share,
		Duplicate: share,
		Reorder:   share,
		Corrupt:   share,
		Truncate:  share,
		Reset:     share,
		Delay:     combined / 10,
		DelayMax:  500 * time.Microsecond,
	}
}

// Chaos sweeps the combined fault rate and reports, per row, what the
// fault-tolerance stack absorbed: faults injected, frames rejected by
// the integrity layer, retries, reconnects, duplicate suppressions —
// and the two hard invariants, wrong answers and pool leaks, which must
// both read zero at every rate.
func Chaos() *Report {
	return chaosReport(4000, []float64{0, 0.02, 0.05, 0.10})
}

func chaosReport(calls int, rates []float64) *Report {
	rep := &Report{
		Title: "Chaos soak: generated stubs over a faulty link",
		Cols: []string{"fault rate", "calls", "ok", "failed", "faults", "crc drops",
			"retries", "redials", "dupes", "stale", "wrong", "pool leak"},
		Notes: []string{
			"Sum() round trips through FaultConn (drop/dup/reorder/corrupt/truncate/reset) under CRC32-C framing",
			"client: 8 retries, full-jitter backoff, redial-on-poison, breaker; server: dup cache, panic guard, bounds",
			"'failed' are classified errors (acceptable under chaos); 'wrong' answers and pool leaks must be 0",
		},
	}
	for _, rate := range rates {
		res, err := RunChaos(ChaosConfig{
			Calls: calls, Callers: 8, Seed: 1, Plan: DefaultChaosPlan(rate), PingEvery: 16,
		})
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
			fmt.Sprintf("%d", res.FaultsInjected),
			fmt.Sprintf("%d", res.ChecksumRejects),
			fmt.Sprintf("%d", res.Retries),
			fmt.Sprintf("%d", res.Reconnects),
			fmt.Sprintf("%d", res.DroppedDupes),
			fmt.Sprintf("%d", res.StaleReplies),
			fmt.Sprintf("%d", res.Mismatches),
			leak,
		)
	}
	return rep
}
