// Sharded connection pool: the client half of the scale-out fabric.
//
// One multiplexed session hides latency well, but at serving scale it
// becomes the bottleneck — a single reply-reader goroutine, a single
// wire, and a single failure domain. ClientPool shards traffic over N
// independent sessions to the same target, each with its own breaker,
// redial loop, and (optionally) coalescing writer, and dispatches calls
// round-robin or by consistent-hash over the operation name. A session
// whose breaker has opened or whose connection is poisoned beyond
// redial is skipped at dispatch time; a call that fails on one session
// with a provably-safe-to-resend error fails over to the next.
package rt

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// DispatchPolicy selects how a ClientPool spreads calls over sessions.
type DispatchPolicy int

const (
	// RoundRobin rotates calls across sessions — the default, and the
	// right choice when every session reaches the same server.
	RoundRobin DispatchPolicy = iota
	// HashByOp pins each operation name to one session (FNV-1a mod
	// pool size), keeping one operation's calls in order on the wire
	// and giving per-op server-side caches locality. Other sessions
	// still serve as failover targets.
	HashByOp
)

// PoolConfig describes a ClientPool. Dial and Proto are required;
// every other field has a usable zero value.
type PoolConfig struct {
	// Size is the number of sessions (default 4).
	Size int
	// Dial opens the i-th session's connection; it is also used for
	// redials of that session when Redial is set.
	Dial func(i int) (Conn, error)
	// Policy selects the dispatch strategy (default RoundRobin).
	Policy DispatchPolicy

	// Proto is the wire protocol; Prog/Vers/ObjectKey identify the
	// target exactly as on Client (ObjectKey defaults to "flick").
	Proto     Protocol
	Prog      uint32
	Vers      uint32
	ObjectKey []byte

	// Timeout bounds each attempt's reply wait, per session.
	Timeout time.Duration
	// Retry is shared by all sessions (RetryPolicy is concurrency-safe;
	// sharing one keeps the jitter stream common).
	Retry *RetryPolicy
	// BreakerThreshold, when positive, attaches a per-session Breaker
	// with this consecutive-failure threshold and BreakerCooldown.
	// Per-session breakers are what make failover useful: one dead
	// session opens its own breaker and drops out of dispatch while the
	// rest keep serving.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Redial, when true, lets each session redial itself (via Dial with
	// its own index) after its connection is poisoned.
	Redial bool

	// Batch, when non-nil, wraps every session's connection in a
	// BatchConn with this configuration — the adaptive-batching half of
	// the fabric. The config's Metrics defaults to the pool's.
	Batch *BatchConfig

	// Hedge, when non-nil, enables hedged requests for idempotent
	// operations: if the primary attempt has not answered within the
	// policy's delay, a second attempt is launched on a different
	// session and the first well-formed reply wins. See HedgePolicy for
	// the delay derivation and the safety gate.
	Hedge *HedgePolicy

	// Metrics is shared by all sessions.
	Metrics *Metrics

	// Tracer, when non-nil, is shared by all sessions and by the pool
	// itself: the pool owns each sampled call's root span (SpanPoolCall)
	// and passes its context down, so attempts that fail over to
	// another session stay in one trace — same trace ID, a fresh
	// call/attempt span per session tried — with failovers recorded as
	// cause-labeled events on the root.
	Tracer *Tracer
}

// HedgePolicy configures hedged requests: the tail-latency defense
// that trades bounded duplicate work for the chance to dodge one slow
// server, queue, or link. A hedge only ever launches for operations
// declared idempotent and not oneway, and only when the pool has a
// second session to launch it on — a duplicated non-idempotent request
// could execute twice, so the pool refuses to hedge it no matter what
// the policy says. The client→server cancel frame keeps the duplicate
// work bounded: as soon as one attempt wins, the loser's context is
// canceled and the cancel frame releases the server-side work.
type HedgePolicy struct {
	// Delay, when positive, is a fixed hedge delay. When zero the delay
	// is derived per call from the operation's observed latency
	// histogram at Percentile — the classic "hedge after the p95"
	// scheme, which bounds duplicate work to roughly (1-Percentile) of
	// calls once the histogram has warmed up.
	Delay time.Duration
	// Percentile is the latency quantile the derived delay tracks
	// (default 0.95). Ignored when Delay is set.
	Percentile float64
	// MinDelay floors the derived delay so a cold or very fast
	// histogram cannot hedge every call instantly (default 1ms).
	MinDelay time.Duration
}

// delayFor derives the hedge delay for one operation.
func (h *HedgePolicy) delayFor(metrics *Metrics, opName string) time.Duration {
	if h.Delay > 0 {
		return h.Delay
	}
	var d time.Duration
	if metrics != nil {
		pct := h.Percentile
		if pct <= 0 || pct > 1 {
			pct = 0.95
		}
		if snap := metrics.Op(opName).Latency.Snapshot(); snap.Count > 0 {
			d = snap.Quantile(pct)
		}
	}
	floor := h.MinDelay
	if floor <= 0 {
		floor = time.Millisecond
	}
	if d < floor {
		d = floor
	}
	return d
}

func (c *PoolConfig) size() int {
	if c.Size <= 0 {
		return 4
	}
	return c.Size
}

// ClientPool fans calls out over N multiplexed sessions. Its Do and Go
// take the same arguments as Client's, with the session picked per
// call; Client(i) exposes a session for anything else (streams).
type ClientPool struct {
	sessions []*Client
	policy   DispatchPolicy
	metrics  *Metrics
	tracer   *Tracer
	hedge    *HedgePolicy
	next     atomic.Uint32
	closed   atomic.Bool
}

// NewClientPool dials cfg.Size sessions and assembles the pool.
// Sessions dialed before an error are closed again; the error reports
// which session failed.
func NewClientPool(cfg PoolConfig) (*ClientPool, error) {
	if cfg.Dial == nil {
		return nil, errors.New("rt: PoolConfig.Dial is required")
	}
	if cfg.Proto == nil {
		return nil, errors.New("rt: PoolConfig.Proto is required")
	}
	n := cfg.size()
	p := &ClientPool{
		sessions: make([]*Client, 0, n),
		policy:   cfg.Policy,
		metrics:  cfg.Metrics,
		tracer:   cfg.Tracer,
		hedge:    cfg.Hedge,
	}
	dial := func(i int) (Conn, error) {
		conn, err := cfg.Dial(i)
		if err != nil {
			return nil, err
		}
		if cfg.Batch != nil {
			bc := *cfg.Batch
			if bc.Metrics == nil {
				bc.Metrics = cfg.Metrics
			}
			if bc.Tracer == nil {
				bc.Tracer = cfg.Tracer
			}
			conn = NewBatchConn(conn, bc)
		}
		return conn, nil
	}
	for i := 0; i < n; i++ {
		conn, err := dial(i)
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("rt: pool session %d: %w", i, err)
		}
		c := NewClient(conn, cfg.Proto)
		c.Prog, c.Vers = cfg.Prog, cfg.Vers
		if cfg.ObjectKey != nil {
			c.ObjectKey = cfg.ObjectKey
		}
		c.Timeout = cfg.Timeout
		c.Retry = cfg.Retry
		c.Metrics = cfg.Metrics
		c.Tracer = cfg.Tracer
		c.Shard = i
		if cfg.BreakerThreshold > 0 {
			c.Breaker = &Breaker{Threshold: cfg.BreakerThreshold, Cooldown: cfg.BreakerCooldown}
		}
		if cfg.Redial {
			i := i
			c.Redial = func() (Conn, error) { return dial(i) }
		}
		p.sessions = append(p.sessions, c)
	}
	return p, nil
}

// Len returns the number of sessions.
func (p *ClientPool) Len() int { return len(p.sessions) }

// Client returns the i-th session for inspection (tests, metrics).
func (p *ClientPool) Client(i int) *Client { return p.sessions[i] }

// Healthy counts sessions currently reporting Healthy.
func (p *ClientPool) Healthy() int {
	n := 0
	for _, c := range p.sessions {
		if c.Healthy() {
			n++
		}
	}
	return n
}

// Close closes every session. Idempotent; returns the first error.
func (p *ClientPool) Close() error {
	p.closed.Store(true)
	var first error
	for _, c := range p.sessions {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// fnv1a hashes an operation name for HashByOp dispatch.
func fnv1a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// pick returns the preferred session index for one call.
func (p *ClientPool) pick(opName string) int {
	if p.policy == HashByOp {
		return int(fnv1a(opName) % uint32(len(p.sessions)))
	}
	return int(p.next.Add(1)-1) % len(p.sessions)
}

// failoverSafe reports whether err is provably safe to re-send on
// another session: the breaker shed it unsent, the server rejected it
// before dispatch, or the retry machinery classified it retryable
// (which already encodes the idempotency rules). A bare transport
// error from a policy-free session is NOT safe — the request may have
// executed.
func failoverSafe(err error) bool {
	return errors.Is(err, ErrBreakerOpen) ||
		errors.Is(err, ErrOverloaded) ||
		errors.Is(err, ErrRetryable)
}

// Do dispatches one invocation of op: pick a session by policy, skip
// unhealthy sessions (unless every session is unhealthy, in which case
// the preferred one gets the call anyway — its breaker probe or redial
// is the recovery path), and fail over to the next session when an
// attempt fails in a way that is provably safe to re-send. ctx means
// what it means for Client.Do; when the pool's Tracer samples the
// call, the pool records the root span and threads its context into
// every session tried, so a failover continues the same trace.
func (p *ClientPool) Do(ctx context.Context, op *Op, marshal func(*Encoder)) (*Decoder, error) {
	if p.closed.Load() {
		return nil, ErrClosed
	}
	inv := invocation{ctx: ctx, op: op, marshal: marshal, metrics: p.metrics}
	if tracer := p.tracer; tracer != nil {
		if inv.ct = startCallTrace(tracer, ctx, SpanPoolCall, op.Name, 0); inv.ct != nil {
			inv.ctx = ContextWithTrace(ctx, inv.ct.tc)
		}
		// Unsampled pool failures are recorded by the session client's
		// own always-sample-on-error path; recording them here too
		// would double-count every failure.
	}
	var d *Decoder
	var err error
	if p.hedge != nil && op.Idempotent && !op.Oneway && len(p.sessions) > 1 {
		d, err = p.dispatchHedged(&inv)
	} else {
		d, err = p.dispatchAt(&inv, p.steer(p.pick(op.Name)), -1)
	}
	inv.ct.finish(err)
	return d, err
}

// steer walks forward from start to the first session reporting
// Healthy; when every session is unhealthy it returns start unchanged
// (the preferred session's breaker probe or redial is the recovery
// path).
func (p *ClientPool) steer(start int) int {
	n := len(p.sessions)
	for off := 0; off < n; off++ {
		if p.sessions[(start+off)%n].Healthy() {
			return (start + off) % n
		}
	}
	return start
}

// dispatchAt runs the failover loop from a chosen starting session,
// optionally excluding one index (a hedged call's other attempt owns
// it — the whole point of the hedge is hitting a *different* server
// queue). The first attempt goes to start even if unhealthy; failover
// candidates must report Healthy.
func (p *ClientPool) dispatchAt(inv *invocation, start, skip int) (*Decoder, error) {
	n := len(p.sessions)
	var lastErr error
	tried := 0
	for off := 0; off < n; off++ {
		idx := (start + off) % n
		if idx == skip {
			continue
		}
		c := p.sessions[idx]
		if tried > 0 {
			if !c.Healthy() {
				continue
			}
			if p.metrics != nil {
				p.metrics.SessionFailovers.Add(1)
			}
			if inv.ct != nil {
				inv.ct.event("failover", fmt.Sprintf("to session %d after: %v", c.Shard, lastErr))
			}
		}
		tried++
		d, err := c.Do(inv.ctx, inv.op, inv.marshal)
		if err == nil {
			return d, nil
		}
		lastErr = err
		if !failoverSafe(err) {
			return nil, err
		}
	}
	return nil, lastErr
}

// hedgeResult is one attempt's outcome in a hedged dispatch.
type hedgeResult struct {
	d     *Decoder
	err   error
	hedge bool
}

// dispatchHedged races a primary attempt against a delayed hedge on a
// different session. The primary launches immediately; if it has not
// settled within the policy delay, the hedge launches with the other
// attempt's session excluded from its failover set. The first
// well-formed reply wins; the loser's context is canceled, which sends
// the cancel frame releasing its server-side work, and its decoder (if
// a reply arrives anyway) is collected and released off the hot path.
//
// Only called for idempotent, non-oneway operations on pools with at
// least two sessions — the gates live in Do and are pinned by test,
// because a hedged non-idempotent request could execute twice.
func (p *ClientPool) dispatchHedged(inv *invocation) (*Decoder, error) {
	n := len(p.sessions)
	start := p.steer(p.pick(inv.op.Name))
	hedgeStart := -1
	for off := 1; off < n; off++ {
		if i := (start + off) % n; p.sessions[i].Healthy() {
			hedgeStart = i
			break
		}
	}
	if hedgeStart < 0 {
		// No second healthy session to hedge on: plain dispatch.
		return p.dispatchAt(inv, start, -1)
	}

	parent := inv.ctx
	if parent == nil {
		parent = context.Background()
	}
	// Each attempt gets its own copy of the invocation: its own
	// cancelable ctx, a nil callTrace — callTrace.event is not
	// concurrency-safe, and the loser can outlive this call; hedge
	// lifecycle events are recorded here, by the coordinator — and the
	// caller's marshal function behind a guard revoked before Do
	// returns, so the loser never reads the caller's arguments after
	// that.
	guard := &marshalGuard{f: inv.marshal}
	prim, hedge := *inv, *inv
	prim.ct, hedge.ct = nil, nil
	prim.marshal, hedge.marshal = guard.marshal, guard.marshal
	var pcancel, hcancel context.CancelFunc
	prim.ctx, pcancel = context.WithCancel(parent)
	hedge.ctx, hcancel = context.WithCancel(parent)
	defer pcancel()
	defer hcancel()

	resCh := make(chan hedgeResult, 2)
	go func() {
		// Ownership passes through the result channel: the coordinator
		// hands the winner's decoder to the caller and releases losers.
		d, err := p.dispatchAt(&prim, start, hedgeStart) //lint:allow releasecheck
		resCh <- hedgeResult{d: d, err: err}             //lint:allow poolescape
	}()
	launched := 1

	ct := inv.ct
	delay := p.hedge.delayFor(p.metrics, inv.op.Name)
	timer := time.NewTimer(delay)
	var first hedgeResult
	select {
	case first = <-resCh:
		timer.Stop()
	case <-timer.C:
		if p.metrics != nil {
			p.metrics.HedgedCalls.Add(1)
		}
		ct.event("hedge", fmt.Sprintf("launched on session %d after %v", hedgeStart, delay))
		go func() {
			d, err := p.dispatchAt(&hedge, hedgeStart, start) //lint:allow releasecheck
			resCh <- hedgeResult{d: d, err: err, hedge: true} //lint:allow poolescape
		}()
		launched = 2
		first = <-resCh
	}

	collected := 1
	winner := first
	if winner.err != nil && launched == 2 {
		// The first result failed; the race is not over — the other
		// attempt may still produce the reply.
		second := <-resCh
		collected = 2
		if second.err == nil || !second.hedge {
			// Prefer the success; when both failed, report the
			// primary's error (the hedge's is usually context.Canceled
			// or a duplicate of the same failure).
			winner = second
		}
	}

	// Cancel the loser now: its awaiting attempt abandons the wait and
	// sends the cancel frame that releases the server-side work; one
	// that has not marshaled yet skips the marshal and, its ctx
	// canceled, never sends (see Client.prepare).
	pcancel()
	hcancel()
	guard.revoke()
	if outstanding := launched - collected; outstanding > 0 {
		go func() {
			for i := 0; i < outstanding; i++ {
				if r := <-resCh; r.d != nil {
					// The loser's reply arrived anyway (duplicate
					// work): release the pooled decoder.
					r.d.Release()
				}
			}
		}()
	}
	if winner.err == nil && winner.hedge {
		if p.metrics != nil {
			p.metrics.HedgeWins.Add(1)
		}
		ct.event("hedge-win", fmt.Sprintf("hedge on session %d answered first", hedgeStart))
	}
	return winner.d, winner.err
}

// marshalGuard lets a hedged call's coordinator revoke the caller's
// marshal function: after revoke returns, no attempt is inside it and
// none will enter it again.
type marshalGuard struct {
	mu      sync.Mutex
	revoked bool
	f       func(*Encoder)
}

func (g *marshalGuard) marshal(e *Encoder) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.revoked {
		g.f(e)
	}
}

func (g *marshalGuard) revoke() {
	g.mu.Lock()
	g.revoked = true
	g.mu.Unlock()
}

// Go issues one asynchronous invocation of op through the pool: the
// session is picked by policy with unhealthy sessions skipped, exactly
// as for Do, and the returned promise resolves on that session.
// Failover happens at issue time only — a promise that fails resolves
// with the classified error rather than re-dispatching, because
// re-sending from Wait would reorder the request against promises
// issued after it. Callers that want cross-session retries check
// failoverSafe classes (ErrRetryable, ErrOverloaded, ErrBreakerOpen)
// on the settled error and re-issue. A closed pool's sessions are
// closed clients: the promise settles with ErrClosed.
func (p *ClientPool) Go(ctx context.Context, op *Op, marshal func(*Encoder)) *Promise {
	return p.sessions[p.steer(p.pick(op.Name))].Go(ctx, op, marshal)
}

// SessionHealth is one session's health snapshot for the debug surface.
type SessionHealth struct {
	Index int `json:"index"`
	// Healthy mirrors Client.Healthy at snapshot time.
	Healthy bool `json:"healthy"`
	// Breaker is the session breaker's state name ("closed", "open",
	// "half-open"; "none" when the session has no breaker).
	Breaker string `json:"breaker"`
	// InFlight is the number of calls currently awaiting replies on the
	// session.
	InFlight int `json:"in_flight"`
	// Err is the session's poison error ("" while unpoisoned); a
	// redialing session clears it on the next call.
	Err string `json:"err,omitempty"`
}

// Health reports every session's current health, for the debug surface
// and operators; indices match Client(i).
func (p *ClientPool) Health() []SessionHealth {
	out := make([]SessionHealth, len(p.sessions))
	for i, c := range p.sessions {
		sh := SessionHealth{
			Index:   i,
			Healthy: c.Healthy(),
			Breaker: "none",
		}
		if b := c.Breaker; b != nil {
			sh.Breaker = b.State().String()
		}
		sh.InFlight = c.PendingCalls()
		if err := c.SessionErr(); err != nil {
			sh.Err = err.Error()
		}
		out[i] = sh
	}
	return out
}
