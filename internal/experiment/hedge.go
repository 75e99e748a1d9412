package experiment

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	ts "flick/internal/teststubs"
	"flick/rt"
)

// This file is the hedged-request experiment: a pool over a server
// whose handler latency is bimodal — almost always fast, occasionally
// stuck behind a ~10ms stall (a GC pause, a slow disk, a deep queue).
// Hedging launches a second attempt on a different session once the
// first has outlived the operation's observed p95, and the first
// well-formed reply wins. The claim under test is the classic
// tail-at-scale one: a small, bounded amount of duplicate work buys a
// large p99 reduction, and the duplicate work is bounded by the hedge
// rate the delay percentile implies.

// HedgeConfig parameterizes one bimodal-latency run.
type HedgeConfig struct {
	// Calls is the number of Sum round trips (default 4000), split
	// across Callers goroutines (default 4).
	Calls   int
	Callers int
	Seed    int64
	// Sessions is the pool size (default 4).
	Sessions int
	// SlowProb is the per-request probability of a slow handler
	// (default 0.05); SlowDelay is the stall (default 10ms).
	SlowProb  float64
	SlowDelay time.Duration
	// Hedge enables hedging with this policy; nil runs the baseline.
	Hedge *rt.HedgePolicy
}

// HedgeResult is one run's latency distribution plus hedge accounting.
type HedgeResult struct {
	Calls                  uint64
	Mismatches             uint64
	Errors                 uint64
	P50, P95, P99          time.Duration
	HedgedCalls, HedgeWins uint64
	CancelsSent            uint64
	Wall                   time.Duration
}

// hedgeImpl wraps the pipeline implementation with a bimodal Sum: a
// seeded per-request draw decides whether this execution stalls.
// Because the draw is per execution, a hedged duplicate on another
// session draws independently — which is exactly the situation where
// hedging pays.
type hedgeImpl struct {
	pipelineImpl
	mu    sync.Mutex
	rng   *rand.Rand
	prob  float64
	delay time.Duration
}

func (h *hedgeImpl) Sum(v []int32) (int32, error) {
	h.mu.Lock()
	slow := h.rng.Float64() < h.prob
	h.mu.Unlock()
	if slow {
		time.Sleep(h.delay)
	}
	return h.pipelineImpl.Sum(v)
}

// RunHedge executes one bimodal-latency run.
func RunHedge(cfg HedgeConfig) (*HedgeResult, error) {
	if cfg.Calls <= 0 {
		cfg.Calls = 4000
	}
	if cfg.Callers <= 0 {
		cfg.Callers = 4
	}
	if cfg.Sessions <= 0 {
		cfg.Sessions = 4
	}
	if cfg.SlowProb <= 0 {
		cfg.SlowProb = 0.05
	}
	if cfg.SlowDelay <= 0 {
		cfg.SlowDelay = 10 * time.Millisecond
	}

	clientMetrics := rt.NewMetrics()
	impl := &hedgeImpl{
		rng:   rand.New(rand.NewSource(cfg.Seed + 31)),
		prob:  cfg.SlowProb,
		delay: cfg.SlowDelay,
	}
	srv := rt.NewServer(rt.ONC{})
	srv.Workers = 8
	ts.RegisterBenchXDR(srv, impl)

	var serveWG sync.WaitGroup
	pool, err := rt.NewClientPool(rt.PoolConfig{
		Size: cfg.Sessions,
		Dial: func(int) (rt.Conn, error) {
			clientSide, serverSide := rt.Pipe()
			serveWG.Add(1)
			go func() { defer serveWG.Done(); srv.ServeConn(serverSide) }()
			return clientSide, nil
		},
		Proto:   rt.ONC{},
		Timeout: time.Second,
		Hedge:   cfg.Hedge,
		Metrics: clientMetrics,
	})
	if err != nil {
		return nil, err
	}

	res := &HedgeResult{}
	per := cfg.Calls / cfg.Callers
	if per < 1 {
		per = 1
	}
	lats := make([][]time.Duration, cfg.Callers)
	var wg sync.WaitGroup
	var resMu sync.Mutex
	start := time.Now()
	for g := 0; g < cfg.Callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(g)*1000003))
			v := make([]int32, 16)
			local := make([]time.Duration, 0, per)
			var mismatches, errs uint64
			for i := 0; i < per; i++ {
				n := 1 + rng.Intn(len(v))
				var want int32
				for j := 0; j < n; j++ {
					v[j] = int32(rng.Intn(1 << 20))
					want += v[j]
				}
				t0 := time.Now()
				d, err := pool.Do(nil, &ts.BenchSumXDROp, func(e *rt.Encoder) {
					ts.MarshalBenchSumXDRRequest(e, v[:n])
				})
				var ret int32
				if err == nil {
					ret, err = ts.UnmarshalBenchSumXDRReply(d)
					d.Release()
				}
				local = append(local, time.Since(t0))
				switch {
				case err != nil:
					errs++
				case ret != want:
					mismatches++
				}
			}
			lats[g] = local
			resMu.Lock()
			res.Mismatches += mismatches
			res.Errors += errs
			resMu.Unlock()
		}(g)
	}
	wg.Wait()
	res.Wall = time.Since(start)
	pool.Close()
	serveWG.Wait()

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	res.Calls = uint64(len(all))
	pick := func(q float64) time.Duration {
		if len(all) == 0 {
			return 0
		}
		i := int(q * float64(len(all)-1))
		return all[i]
	}
	res.P50, res.P95, res.P99 = pick(0.50), pick(0.95), pick(0.99)
	res.HedgedCalls = clientMetrics.HedgedCalls.Load()
	res.HedgeWins = clientMetrics.HedgeWins.Load()
	res.CancelsSent = clientMetrics.CancelsSent.Load()
	return res, nil
}

// Hedge reports the bimodal-latency workload with hedging off and on:
// the hedged row must cut p99 (the 10ms mode all but vanishes from the
// tail) while the hedge rate stays near the slow-mode probability —
// that is the "bounded duplicate work" half of the claim.
func Hedge() *Report {
	rep := &Report{
		Title: "Hedged requests: bimodal server latency, pool of 4 sessions",
		Cols: []string{"mode", "calls", "p50", "p95", "p99", "hedged",
			"hedge rate", "wins", "cancels", "wrong", "errors"},
		Notes: []string{
			"handler stalls 10ms with probability 5% per execution (independent per attempt); pool hedges idempotent calls after max(op p95, 1ms)",
			"the winner's reply is kept, the loser is canceled via the cancel frame (released server-side, decoder collected)",
			"'hedged' counts second attempts launched (duplicate work, bounded by the hedge rate); 'wrong' must be 0",
		},
	}
	for _, mode := range []struct {
		name  string
		hedge *rt.HedgePolicy
	}{
		{"off", nil},
		{"on", &rt.HedgePolicy{Percentile: 0.95, MinDelay: time.Millisecond}},
	} {
		res, err := RunHedge(HedgeConfig{Calls: 4000, Callers: 4, Seed: 1, Hedge: mode.hedge})
		if err != nil {
			rep.AddRow(mode.name, "error: "+err.Error())
			continue
		}
		rate := "0%"
		if res.Calls > 0 {
			rate = fmt.Sprintf("%.1f%%", 100*float64(res.HedgedCalls)/float64(res.Calls))
		}
		rep.AddRow(
			mode.name,
			fmt.Sprintf("%d", res.Calls),
			res.P50.Round(time.Microsecond).String(),
			res.P95.Round(time.Microsecond).String(),
			res.P99.Round(time.Microsecond).String(),
			fmt.Sprintf("%d", res.HedgedCalls),
			rate,
			fmt.Sprintf("%d", res.HedgeWins),
			fmt.Sprintf("%d", res.CancelsSent),
			fmt.Sprintf("%d", res.Mismatches),
			fmt.Sprintf("%d", res.Errors),
		)
	}
	return rep
}
