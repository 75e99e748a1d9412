package rt

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrBadXID reports a reply whose transaction id matches no call this
// client has in flight. Calls are multiplexed over the connection and
// replies are matched to callers by XID, so out-of-order replies are
// normal; a reply for an XID that was never issued (and is not in the
// retired window of recently completed or timed-out calls, whose late
// and duplicate replies are dropped silently and counted in
// StaleReplies) means the stream is desynchronized — a broken peer or
// frame corruption — and subsequent replies may misparse. The client
// poisons the session: every pending call returns this error; with a
// Redial function configured the next call transparently reconnects,
// otherwise every later call fails too. The BadXIDs counter in an
// attached Metrics makes the condition visible to operators.
var ErrBadXID = errors.New("rt: reply xid matches no pending call (connection desynchronized)")

// ErrTimeout reports a call attempt that exceeded the client's per-call
// deadline. The call's reply slot is retired: if the reply arrives
// later it is dropped (and counted in StaleReplies) without disturbing
// other in-flight calls.
var ErrTimeout = errors.New("rt: call deadline exceeded")

// ErrExpired reports a call the server shed because its propagated
// deadline (the wire deadline annotation; see Client.Do) had already
// passed before dispatch. The handler provably did not run, but
// retrying is pointless — the end-to-end budget is spent — so the
// error classifies as non-retryable.
var ErrExpired = errors.New("rt: deadline expired before dispatch (server shed the call)")

// retiredWindow is the number of recently completed or abandoned XIDs a
// session remembers so that late or duplicated replies (timed-out
// calls, retransmitting links) are recognized and dropped instead of
// being mistaken for desynchronization.
const retiredWindow = 1024

// retiredRing is a fixed-size set of recently retired XIDs: a ring for
// FIFO eviction plus a map for O(1) membership. Zero-allocation in
// steady state (the map is pre-sized and insert/delete balance).
type retiredRing struct {
	set  map[uint32]struct{}
	ring [retiredWindow]uint32
	next int
	full bool
}

func (r *retiredRing) add(xid uint32) {
	if r.set == nil {
		r.set = make(map[uint32]struct{}, retiredWindow)
	}
	if r.full {
		delete(r.set, r.ring[r.next])
	}
	r.ring[r.next] = xid
	r.set[xid] = struct{}{}
	r.next++
	if r.next == retiredWindow {
		r.next, r.full = 0, true
	}
}

func (r *retiredRing) has(xid uint32) bool {
	_, ok := r.set[xid]
	return ok
}

// session is one connection's worth of client state: the in-flight
// table, the retired-XID window, and the poison marker. Retrying and
// reconnecting swap in a whole fresh session, so stale replies from a
// dying connection can never touch the new one's calls.
//
// Completion invariant (this is what makes concurrent fail/Close/
// timeout/delivery safe): a call completes exactly once, because every
// completer — the reply reader delivering, fail draining, or the
// issuing goroutine abandoning on timeout or send error — must first
// remove the call from pending under mu, and only the remover touches
// the call slot afterwards.
type session struct {
	conn Conn
	// ownsArena caches ownsArena(conn): reply buffers from a raw
	// transport transfer to the pooled decoder for arena recycling.
	ownsArena bool

	mu      sync.Mutex
	pending map[uint32]*call
	// streams is the open server-push stream table (stream.go), keyed —
	// like pending — by request XID, so one reader demultiplexes calls
	// and streams together.
	streams map[uint32]*ClientStream
	retired retiredRing
	// failed, once set, poisons the session: every pending call was
	// drained with it and every subsequent register on this session
	// returns it.
	failed   error
	readerOn bool
	// draining is set when the server announces lameduck drain (a
	// GOAWAY frame): calls already in flight will still complete, but
	// Healthy reports false so pools migrate new work to other
	// sessions before the server closes the connection.
	draining bool
}

func newSession(conn Conn) *session {
	return &session{conn: conn, ownsArena: ownsArena(conn), pending: make(map[uint32]*call), streams: make(map[uint32]*ClientStream)}
}

// forget removes xid from the in-flight table, retiring it so a late or
// duplicate reply is dropped rather than treated as desynchronization.
// It reports whether the call was still pending (false means another
// completer got there first).
func (s *session) forget(xid uint32) bool {
	s.mu.Lock()
	_, ok := s.pending[xid]
	if ok {
		delete(s.pending, xid)
		s.retired.add(xid)
	}
	s.mu.Unlock()
	return ok
}

// fail poisons the session with err (first failure wins) and drains
// every pending call with it. Safe to call from multiple goroutines
// concurrently (reader on receive error, Close, a redialing caller):
// each pending call is drained by exactly one of them because removal
// from the table is what claims the right to complete it.
func (s *session) fail(err error) {
	s.mu.Lock()
	if s.failed == nil {
		s.failed = err
	}
	drained := make([]*call, 0, len(s.pending))
	for xid, ca := range s.pending {
		delete(s.pending, xid)
		drained = append(drained, ca)
	}
	var streams []*ClientStream
	for xid, st := range s.streams {
		delete(s.streams, xid)
		streams = append(streams, st)
	}
	err = s.failed
	s.mu.Unlock()
	for _, ca := range drained {
		ca.err = err
		ca.done <- struct{}{}
	}
	for _, st := range streams {
		// A mid-transfer teardown is terminal for the stream: the
		// consumer cannot know how much arrived, so the classified
		// error says "re-issue from the start" (retryable — the
		// delivered prefix is discarded, nothing executed twice).
		st.terminate(retryable(fmt.Errorf("%w: %v", ErrStreamBroken, err)))
	}
}

func (s *session) failedErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed
}

// markDraining flags the session as draining, reporting whether this
// call was the first to do so.
func (s *session) markDraining() bool {
	s.mu.Lock()
	was := s.draining
	s.draining = true
	s.mu.Unlock()
	return !was
}

func (s *session) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Op is one operation's static call descriptor: the presentation facts
// the IDL compiler knows at generation time. Generated stubs declare
// one package-level Op per operation and pass its address to Do, Go,
// or Stream, so the call path carries a single pointer instead of
// positional flags.
type Op struct {
	// Proc is the operation code (the ONC procedure number; Mach and
	// Fluke message ids).
	Proc uint32
	// Name is the operation name: GIOP's wire discriminator, and the
	// label metrics and spans report.
	Name string
	// Oneway operations expect no reply: Do returns (nil, nil) as soon
	// as the transport accepts the request.
	Oneway bool
	// Idempotent operations may be re-sent after an ambiguous failure
	// (the IDL's //flick:idempotent annotation); it gates retries and
	// hedging.
	Idempotent bool
}

// invocation is one call's state, threaded by pointer down the call
// path (invoke → settleAttempts → callOnce → beginAttempt/awaitAttempt,
// and the pool's dispatch loop) and held by a Promise between issue and
// Wait. Sync callers keep it on their stack: nothing on the path
// retains the pointer, which TestCallAllocsUnchanged pins.
type invocation struct {
	ctx     context.Context
	op      *Op
	marshal func(*Encoder)
	metrics *Metrics
	// ct is the sampled call's (or pool root's) trace state; nil when
	// unsampled.
	ct *callTrace
}

// Client issues RPCs over one connection. Calls are multiplexed: any
// number of goroutines may call Do concurrently, each call is tagged with
// a fresh XID, and a dedicated reply-reader goroutine matches replies
// to callers by XID, so replies may complete out of order (a pipelined
// server is free to answer cheap requests before expensive ones).
//
// Marshal buffers follow the pooled ownership contract (see pool.go):
// each call marshals into a pooled Encoder released on send, and each
// reply arrives in a pooled Decoder that the caller — in practice the
// generated client stub — releases with Decoder.Release after
// unmarshaling.
//
// Fault tolerance is opt-in: with Retry, Redial, and/or Breaker set
// the client classifies failures (see ErrRetryable/ErrNotRetryable),
// re-attempts idempotent or never-sent calls under the retry policy,
// transparently reconnects poisoned sessions, and sheds load when the
// breaker opens. With all three nil (the default) failure handling is
// exactly the raw single-attempt behaviour.
type Client struct {
	proto Protocol

	// Prog and Vers identify the ONC program; ObjectKey the GIOP target.
	Prog      uint32
	Vers      uint32
	ObjectKey []byte

	// Metrics, when non-nil, collects per-operation call/error counts,
	// latency histograms, byte totals, encoder/decoder space-check
	// counters, fault-tolerance counters (Retries, Reconnects,
	// BreakerOpen, BreakerRejects, ConnErrors), and the InFlight gauge.
	// Set before the first call and do not change it after; nil (the
	// default) costs one pointer test per call.
	Metrics *Metrics

	// Tracer, when non-nil, head-samples calls at its SampleRate and
	// records call/attempt spans (span.go); sampled calls carry the
	// trace annotation on the wire so the server's dispatch span joins
	// the same trace. With SampleRate 0 only failed calls are recorded
	// (always-sample-on-error) and nothing is propagated; connection
	// teardowns are always recorded as SpanConnError spans. Must be set
	// before the first call; nil (the default) costs one pointer test
	// per call and the unsampled path does not allocate.
	Tracer *Tracer

	// Shard labels this client's spans, connection-error spans
	// included, with its pool session index (set by ClientPool; 0 for
	// direct clients). Set before the first call.
	Shard int

	// Timeout, when positive, bounds each call attempt's wait for its
	// reply. An attempt that times out returns ErrTimeout (retried
	// under the Retry policy for idempotent operations); its late
	// reply, if it ever arrives, is dropped without poisoning the
	// connection. Set before the first call.
	Timeout time.Duration

	// Retry, when non-nil, re-attempts failed calls that are safe to
	// retry: idempotent operations, and calls whose request provably
	// never reached the transport. Set before the first call.
	Retry *RetryPolicy

	// Redial, when non-nil, reconnects a poisoned client: after a
	// receive failure, desynchronization, or injected reset drains the
	// session, the next call (or retry attempt) dials a fresh
	// connection and carries on. In-flight calls on the dead session
	// fail with the session's terminal error and are retried under the
	// Retry policy if eligible. Set before the first call.
	Redial func() (Conn, error)

	// Breaker, when non-nil, sheds calls with ErrBreakerOpen after
	// consecutive transport failures (see Breaker). Set before the
	// first call.
	Breaker *Breaker

	xid    atomic.Uint32
	closed atomic.Bool

	// sessMu guards the current-session pointer and serializes
	// redials (one goroutine dials; the rest wait and share the
	// result).
	sessMu sync.Mutex
	sess   *session
}

// NewClient wraps a connection with a message protocol.
func NewClient(conn Conn, proto Protocol) *Client {
	return &Client{
		proto:     proto,
		ObjectKey: []byte("flick"),
		sess:      newSession(conn),
	}
}

// Close releases the connection. Calls still in flight — and any call
// issued afterwards — return ErrClosed deterministically rather than a
// raw transport error. Close is idempotent.
func (c *Client) Close() error {
	c.closed.Store(true)
	c.sessMu.Lock()
	s := c.sess
	c.sessMu.Unlock()
	err := s.conn.Close()
	s.fail(ErrClosed)
	return err
}

// Healthy reports whether the client can plausibly complete a call
// right now: it is open, its breaker (if any) is not shedding, its
// session's server is not draining, and the session is either
// unpoisoned or redialable. ClientPool uses it to steer calls toward
// healthy sessions; a false answer is advisory (a half-open breaker
// may still admit a probe, a racing failure may still poison a healthy
// session). A draining session reports unhealthy so pools migrate
// traffic away before the server closes the socket; once it does, a
// redialable client turns healthy again and reconnects — to the
// restarted server — on its next call.
func (c *Client) Healthy() bool {
	if c.closed.Load() {
		return false
	}
	if b := c.Breaker; b != nil && !b.Ready() {
		return false
	}
	c.sessMu.Lock()
	s := c.sess
	c.sessMu.Unlock()
	s.mu.Lock()
	draining, ferr := s.draining, s.failed
	s.mu.Unlock()
	if draining && ferr == nil {
		// GOAWAY received and the socket is still up: in-flight work
		// completes, but new work belongs elsewhere.
		return false
	}
	if c.Redial == nil && ferr != nil {
		return false
	}
	return true
}

// PendingCalls returns the number of calls currently awaiting replies
// on the client's session (the in-flight table size), for the debug
// surface.
func (c *Client) PendingCalls() int {
	c.sessMu.Lock()
	s := c.sess
	c.sessMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// SessionErr returns the current session's poison error, or nil while
// the session is healthy. With Redial configured the error clears on
// the next call (which swaps in a fresh session).
func (c *Client) SessionErr() error {
	c.sessMu.Lock()
	s := c.sess
	c.sessMu.Unlock()
	return s.failedErr()
}

// session returns the current healthy session, transparently dialing a
// replacement when the current one is poisoned and a Redial function is
// configured. Only one goroutine dials; concurrent callers wait on
// sessMu and share the fresh session.
func (c *Client) session(metrics *Metrics, ct *callTrace) (*session, error) {
	c.sessMu.Lock()
	defer c.sessMu.Unlock()
	if c.closed.Load() {
		return nil, ErrClosed
	}
	s := c.sess
	ferr := s.failedErr()
	if ferr == nil {
		return s, nil
	}
	if c.Redial == nil {
		return nil, ferr
	}
	conn, err := c.Redial()
	if err != nil {
		return nil, fmt.Errorf("rt: redial: %w", err)
	}
	if c.closed.Load() {
		// Close raced the dial: don't resurrect a closed client.
		conn.Close()
		return nil, ErrClosed
	}
	s.conn.Close()
	ns := newSession(conn)
	c.sess = ns
	if metrics != nil {
		metrics.Reconnects.Add(1)
	}
	if ct != nil {
		ct.event("redial", fmt.Sprintf("reconnected after: %v", ferr))
	}
	return ns, nil
}

// Do performs one invocation of op: marshal writes the request payload
// into a pooled encoder; the returned decoder is positioned at the
// reply payload and owned by the caller, who must release it with
// Decoder.Release after unmarshaling. Oneway operations return (nil,
// nil) as soon as the transport accepts the request. Do is safe for
// concurrent use; calls proceed independently and may complete out of
// order.
//
// op.Idempotent gates retries: with a Retry policy attached, a failed
// attempt is re-sent only when the operation is idempotent or the
// request provably never reached the transport — otherwise the call
// fails fast with an error matching ErrNotRetryable, because retrying
// might execute the operation twice.
//
// A non-nil ctx participates three ways. Trace continuation: when ctx
// carries a sampled TraceContext (a server handler forwarding via
// (*ReqHeader).Context, or ContextWithTrace), the call joins that
// trace as a child span instead of making a fresh sampling decision.
// Deadline propagation: a ctx deadline bounds the wait for the reply
// and travels on the wire as a deadline annotation, so the server
// inherits the remaining budget and sheds expired work before dispatch
// (ErrExpired). Cancellation: ctx.Done() aborts the call — before
// send, or during the wait, in which case a best-effort cancel frame
// releases the server-side work — classified as non-retryable
// context.Canceled / context.DeadlineExceeded. A nil ctx means none of
// these.
func (c *Client) Do(ctx context.Context, op *Op, marshal func(*Encoder)) (*Decoder, error) {
	inv := invocation{ctx: ctx, op: op, marshal: marshal, metrics: c.Metrics}
	tracer := c.Tracer
	if inv.metrics == nil && tracer == nil {
		// Fast path: observability disabled costs exactly the two nil
		// tests above (no timestamps, no per-call allocation beyond the
		// transport's own).
		return c.invoke(&inv)
	}
	if tracer != nil {
		// nil when the head declines to sample: the call proceeds with
		// no tracing state and no wire annotation, allocation-free.
		inv.ct = startCallTrace(tracer, ctx, SpanClientCall, op.Name, c.Shard)
	}
	begin := time.Now()
	d, err := c.invoke(&inv)
	c.observe(&inv, begin, d, err)
	return d, err
}

// observe records one settled invocation: per-op metrics (calls,
// errors, reply bytes, latency since begin) and the call span — or,
// for an unsampled failure, the always-recorded error span (a lone
// root with a never-propagated trace ID).
func (c *Client) observe(inv *invocation, begin time.Time, d *Decoder, err error) {
	if metrics := inv.metrics; metrics != nil {
		op := metrics.Op(inv.op.Name)
		op.Calls.Add(1)
		if d != nil {
			op.RepBytes.Add(uint64(d.Size()))
		}
		if err != nil {
			op.Errors.Add(1)
		}
		if inv.op.Oneway {
			metrics.Oneways.Add(1)
		}
		op.Latency.Observe(time.Since(begin))
	}
	if tracer := c.Tracer; tracer != nil {
		if inv.ct != nil {
			inv.ct.finish(err)
		} else if err != nil {
			recordErrorSpan(tracer, SpanClientCall, inv.op.Name, c.Shard, begin, err)
		}
	}
}

// invoke runs the resilience loop around single call attempts. Without
// Retry, Redial, and Breaker it is exactly one raw attempt (errors
// unwrapped, zero added cost). With them it classifies each failure,
// paces re-attempts with the policy's jittered backoff inside the
// optional per-call budget, and keeps the breaker posted.
func (c *Client) invoke(inv *invocation) (*Decoder, error) {
	if c.Retry == nil && c.Redial == nil && c.Breaker == nil {
		d, err, _ := c.callOnce(inv)
		return d, err
	}

	if b := c.Breaker; b != nil && !b.allow() {
		if inv.metrics != nil {
			inv.metrics.BreakerRejects.Add(1)
		}
		inv.ct.event("breaker-reject", "call shed, breaker open")
		return nil, ErrBreakerOpen
	}

	d, err, sent := c.callOnce(inv)
	return c.settleAttempts(inv, d, err, sent)
}

// settleAttempts classifies the outcome of an already-made first
// attempt and, under the retry policy, paces and classifies any
// remaining attempts. It is the shared second half of the resilience
// loop: the sync path enters it from invoke immediately after its
// first attempt, and the async path enters it from Promise.Wait when
// the pipelined first attempt resolves — which is what makes promise
// errors classify exactly like sync errors. The retry budget, when
// set, bounds the re-attempt phase (it opens when settling begins, so
// an async caller's think time between issue and Wait is not charged
// against it).
func (c *Client) settleAttempts(inv *invocation, d *Decoder, err error, sent bool) (*Decoder, error) {
	ctx, metrics, ct := inv.ctx, inv.metrics, inv.ct
	attempts := 1
	if c.Retry != nil {
		attempts = c.Retry.attempts()
	}
	var deadline time.Time
	if c.Retry != nil && c.Retry.Budget > 0 {
		deadline = time.Now().Add(c.Retry.Budget)
	}
	var lastErr error
	for k := 0; ; k++ {
		if k > 0 {
			if metrics != nil {
				metrics.Retries.Add(1)
			}
			if ct != nil {
				ct.event("retry", fmt.Sprintf("attempt %d after: %v", k+1, lastErr))
			}
			sleep := c.Retry.backoff(k - 1)
			if !deadline.IsZero() {
				rem := time.Until(deadline)
				if rem <= 0 {
					break
				}
				if sleep > rem {
					sleep = rem
				}
			}
			if !sleepCtx(ctx, sleep) {
				// The caller gave up mid-backoff: no further attempts.
				return nil, notRetryable(ctx.Err())
			}
			d, err, sent = c.callOnce(inv)
		}
		if err == nil {
			if c.Breaker != nil {
				c.Breaker.success()
			}
			return d, nil
		}
		if errors.Is(err, ErrSystem) {
			// The server answered (with a fault): the transport works,
			// and retrying would re-execute. Terminal, breaker-healthy.
			if c.Breaker != nil {
				c.Breaker.success()
			}
			return nil, err
		}
		if errors.Is(err, ErrExpired) {
			// The server answered by shedding expired work before
			// dispatch: the transport works (breaker-healthy), but the
			// end-to-end budget is spent, so retrying cannot help.
			if c.Breaker != nil {
				c.Breaker.success()
			}
			ct.event("expired", "server shed the call, propagated deadline passed")
			return nil, notRetryable(err)
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// The caller abandoned the call (or its deadline passed):
			// terminal by definition, and no evidence about transport
			// health either way, so the breaker is left alone.
			return nil, notRetryable(err)
		}
		if errors.Is(err, ErrOverloaded) {
			// The server answered by shedding the call before dispatch:
			// the transport works (breaker-healthy) and the operation
			// did not execute, so the retry loop re-attempts it under
			// backoff even when non-idempotent.
			if c.Breaker != nil {
				c.Breaker.success()
			}
			ct.event("admission-reject", "server shed the call before dispatch")
			lastErr = err
			if k+1 >= attempts {
				break
			}
			if !deadline.IsZero() && !time.Now().Before(deadline) {
				break
			}
			continue
		}
		if c.closed.Load() {
			return nil, err
		}
		if b := c.Breaker; b != nil {
			if b.failure() {
				if metrics != nil {
					metrics.BreakerOpen.Add(1)
				}
				ct.event("breaker-open", "consecutive failures tripped the breaker")
			}
		}
		if !inv.op.Idempotent && sent {
			// The request may have reached the server; re-sending a
			// non-idempotent operation could execute it twice.
			return nil, notRetryable(err)
		}
		lastErr = err
		if k+1 >= attempts {
			break
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			break
		}
	}
	return nil, retryable(lastErr)
}

// callOnce is one attempt: the transmit half (beginAttempt) and, for a
// two-way call, the bounded wait for the matched reply (awaitAttempt).
// sent reports whether the request may have reached the peer (false
// only when it provably did not: registration failed, or the transport
// refused the whole message deterministically). When the call is
// sampled the attempt is a SpanAttempt child span whose ID is the one
// propagated in the wire annotation, so the server-side dispatch span
// parents to exactly the attempt that carried it.
func (c *Client) callOnce(inv *invocation) (dec *Decoder, err error, sent bool) {
	inv.ct.startAttempt()
	s, ca, xid, err, sent := c.beginAttempt(inv)
	if err == nil && ca != nil {
		dec, err = c.awaitAttempt(inv, s, ca, xid)
	}
	inv.ct.endAttempt(err)
	return dec, err, sent
}

// prepare is the front half every request shares (calls, promises,
// and streams): honor ctx before spending any work — a canceled or
// already-expired context provably never reaches the wire — acquire
// the session (redialing if needed), and marshal the request into a
// pooled encoder behind the deadline and trace annotations. The caller
// owns the returned encoder.
func (c *Client) prepare(inv *invocation) (s *session, enc *Encoder, xid uint32, err error) {
	if c.closed.Load() {
		return nil, nil, 0, ErrClosed
	}
	var budget time.Duration
	hasBudget := false
	if ctx := inv.ctx; ctx != nil {
		select {
		case <-ctx.Done():
			return nil, nil, 0, ctx.Err()
		default:
		}
		if dl, ok := ctx.Deadline(); ok {
			budget = time.Until(dl)
			hasBudget = true
			if budget <= 0 {
				return nil, nil, 0, context.DeadlineExceeded
			}
		}
	}
	metrics, ct := inv.metrics, inv.ct
	s, err = c.session(metrics, ct)
	if err != nil {
		return nil, nil, 0, err
	}
	xid = c.xid.Add(1)
	h := ReqHeader{
		XID:       xid,
		Prog:      c.Prog,
		Vers:      c.Vers,
		Proc:      inv.op.Proc,
		OpName:    inv.op.Name,
		ObjectKey: c.ObjectKey,
		OneWay:    inv.op.Oneway,
	}
	enc = getEncoder()
	if metrics != nil {
		enc.EnableStats(true)
	}
	if hasBudget {
		// The deadline annotation is outermost: the server strips it
		// before the trace annotation and the protocol header. Like the
		// trace prefix its 16 bytes are a multiple of every protocol's
		// MaxAlign, so payload alignment is unchanged; deadline-less
		// calls write nothing and stay byte-identical.
		writeDeadline(enc, budget)
	}
	if ct != nil {
		// The annotation precedes the protocol header; its 32 bytes are
		// a multiple of every protocol's MaxAlign, so payload alignment
		// is unchanged.
		ct.lastXID = xid
		writeTraceContext(enc, TraceContext{TraceID: ct.tc.TraceID, SpanID: ct.attempt, Sampled: true})
	}
	c.proto.WriteRequest(enc, &h)
	inv.marshal(enc)
	if inv.ctx != nil && inv.ctx.Err() != nil {
		// Canceled while marshaling (a hedged call's loser whose marshal
		// guard was revoked): the incomplete request never reaches the
		// wire.
		putEncoder(enc)
		return nil, nil, 0, inv.ctx.Err()
	}
	if metrics != nil {
		metrics.Op(inv.op.Name).ReqBytes.Add(uint64(enc.Len()))
		metrics.addEnc(enc.TakeStats())
	}
	return s, enc, xid, nil
}

// register enters a call slot (ca) or a stream (st) in the session's
// tables under xid before its request is sent, so a reply or chunk
// cannot race past it, and makes sure someone is reading replies on
// the session. It fails with the poison error on a failed session.
func (c *Client) register(s *session, xid uint32, ca *call, st *ClientStream) error {
	s.mu.Lock()
	if s.failed != nil {
		err := s.failed
		s.mu.Unlock()
		return err
	}
	if ca != nil {
		s.pending[xid] = ca
	} else {
		s.streams[xid] = st
	}
	startReader := !s.readerOn
	s.readerOn = true
	s.mu.Unlock()
	if startReader {
		go c.readReplies(s)
	}
	return nil
}

// beginAttempt is the transmit half of one attempt: prepare,
// register-before-send, and transmit. On success for a two-way call it
// returns the session and registered call slot for awaitAttempt to
// claim; for a oneway call it returns a nil slot (nothing is owed). It
// is split from awaitAttempt so the async path can transmit many
// requests before collecting any reply — the returned slot is exactly
// what a Promise holds.
func (c *Client) beginAttempt(inv *invocation) (s *session, ca *call, xid uint32, err error, sent bool) {
	s, enc, xid, err := c.prepare(inv)
	if err != nil {
		return nil, nil, 0, err, false
	}
	metrics, oneway := inv.metrics, inv.op.Oneway
	if oneway {
		// Oneway-aware batching: nothing waits on this message, so a
		// coalescing conn may hold it for company instead of cutting a
		// linger short (see BatchConn.SendLazy). Bytes flattens any
		// alias segments — a lazily held message must not reference
		// caller memory.
		if ls, ok := s.conn.(lazySender); ok {
			err = ls.SendLazy(enc.Bytes())
		} else {
			err = sendEncoded(s.conn, enc)
		}
	} else {
		ca = getCall()
		if err := c.register(s, xid, ca, nil); err != nil {
			putCall(ca)
			putEncoder(enc)
			return nil, nil, 0, err, false
		}
		if metrics != nil {
			metrics.InFlight.Add(1)
		}
		// Vectored when the stub aliased payload segments and the
		// transport can scatter/gather; the plain contiguous send
		// otherwise.
		err = sendEncoded(s.conn, enc)
	}
	putEncoder(enc)
	if err != nil {
		// ErrClosed is a deterministic whole-message refusal: the
		// transport never took the frame, so even a non-idempotent call
		// is safe to re-send on a fresh connection. Any other send
		// error may have left a prefix on the wire.
		sent = !errors.Is(err, ErrClosed)
		if !oneway {
			if !s.forget(xid) {
				// The reader (or a drain) delivered concurrently:
				// consume the signal so the pooled call is clean.
				<-ca.done
				if ca.dec != nil {
					putDecoder(ca.dec)
				}
			}
			putCall(ca)
			if metrics != nil {
				metrics.InFlight.Add(-1)
			}
		}
		if c.closed.Load() {
			return nil, nil, xid, ErrClosed, sent
		}
		return nil, nil, xid, fmt.Errorf("rt: send: %w", err), sent
	}
	if oneway {
		return nil, nil, xid, nil, true
	}
	return s, ca, xid, nil, true
}

// awaitAttempt is the collect half of one attempt: the bounded wait
// for the reply the reader delivers into the registered call slot. It
// must be entered exactly once per successful two-way beginAttempt —
// it consumes the slot. The wait is bounded by the client Timeout and
// the ctx deadline, whichever is sooner, and interrupted immediately
// by ctx cancellation; an abandoned call sends a best-effort cancel
// frame so the server can release the in-flight work.
func (c *Client) awaitAttempt(inv *invocation, s *session, ca *call, xid uint32) (dec *Decoder, err error) {
	ctx, metrics := inv.ctx, inv.metrics
	// Wait for the reader to deliver the matched reply (or the drain
	// error), bounded by the per-call deadline when one is set.
	var ctxDone <-chan struct{}
	timeout := c.Timeout
	// abandonErr is what an elapsed timer means: ErrTimeout for the
	// client's own Timeout, context.DeadlineExceeded when the ctx
	// deadline is the tighter bound.
	abandonErr := error(ErrTimeout)
	if ctx != nil {
		ctxDone = ctx.Done()
		if dl, ok := ctx.Deadline(); ok {
			if rem := time.Until(dl); timeout <= 0 || rem < timeout {
				if rem <= 0 {
					rem = 1
				}
				timeout, abandonErr = rem, context.DeadlineExceeded
			}
		}
	}
	if timeout > 0 || ctxDone != nil {
		var timerC <-chan time.Time
		var timer *time.Timer
		if timeout > 0 {
			timer = time.NewTimer(timeout)
			timerC = timer.C
		}
		select {
		case <-ca.done:
			if timer != nil {
				timer.Stop()
			}
		case <-timerC:
			if s.forget(xid) {
				// The reply had not arrived: retire the slot. A late
				// reply finds the XID in the retired window and is
				// dropped.
				return c.abandonAttempt(s, ca, xid, metrics, abandonErr)
			}
			// Delivery raced the deadline; take the reply.
			<-ca.done
		case <-ctxDone:
			if timer != nil {
				timer.Stop()
			}
			if s.forget(xid) {
				return c.abandonAttempt(s, ca, xid, metrics, ctx.Err())
			}
			<-ca.done
		}
	} else {
		<-ca.done
	}
	if metrics != nil {
		metrics.InFlight.Add(-1)
	}
	d, derr := ca.dec, ca.err
	putCall(ca)
	if derr != nil {
		return nil, derr
	}
	if metrics != nil {
		// Drain the header-read checks now; the unmarshal-side checks
		// drain when the stub releases the decoder (d.sink).
		metrics.addDec(d.TakeStats())
	}
	return d, nil
}

// abandonAttempt releases a forgotten call slot and tells the server —
// best-effort — that nobody is waiting anymore, so it can shed the
// work if still queued or cancel the handler's context if running. The
// late reply, if it ever arrives, finds the XID retired and is dropped.
func (c *Client) abandonAttempt(s *session, ca *call, xid uint32, metrics *Metrics, err error) (*Decoder, error) {
	putCall(ca)
	if metrics != nil {
		metrics.InFlight.Add(-1)
		metrics.CancelsSent.Add(1)
	}
	sendStreamCtl(s.conn, frameCallCancel, xid, 0)
	return nil, err
}

// sleepCtx sleeps for d unless ctx is done first, reporting whether the
// full sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if ctx == nil {
		time.Sleep(d)
		return true
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// readReplies is a session's dedicated reply reader: it owns the
// receive side of the connection, matches each reply to its in-flight
// call by XID, and hands the positioned decoder over. It exits — after
// draining every pending call with the terminal error — when the
// connection fails, the client closes, or the stream desynchronizes.
// The session it drains is left poisoned; with Redial configured the
// next call swaps in a fresh session (and a fresh reader).
func (c *Client) readReplies(s *session) {
	metrics := c.Metrics
	for {
		msg, err := s.conn.Recv()
		if err != nil {
			if c.closed.Load() {
				s.fail(ErrClosed)
			} else {
				ferr := fmt.Errorf("rt: recv: %w", err)
				s.fail(ferr)
				c.connTornDown(ferr)
			}
			return
		}
		if kind, sxid, arg, payload, ok := SplitStream(msg); ok {
			if kind == frameGoAway {
				// Lameduck drain announcement: in-flight calls still
				// complete, but Healthy turns false so pools migrate
				// new traffic before the server closes the socket.
				if s.markDraining() && metrics != nil {
					metrics.GoAways.Add(1)
				}
				_ = arg // drain-deadline hint; advisory
				continue
			}
			// A stream frame (chunk, end, err): structurally tagged, so
			// it routes around the reply parser entirely (stream.go).
			c.streamFrame(s, kind, sxid, arg, payload, metrics)
			continue
		}
		d := getDecoder()
		if metrics != nil {
			d.EnableStats(true)
			d.sink = metrics
		}
		if s.ownsArena {
			// The raw transport drew msg from the receive arena; hand
			// ownership to the decoder so Release recycles it (or pins
			// it if the stub aliased views out of it).
			d.ResetArena(msg)
		} else {
			d.Reset(msg)
		}
		rh, err := c.proto.ReadReply(d)
		if err != nil {
			// The reply header did not parse: nothing identifies the
			// caller and the stream position is suspect. Poison.
			putDecoder(d)
			ferr := fmt.Errorf("rt: reply header: %w", err)
			s.fail(ferr)
			c.connTornDown(ferr)
			return
		}

		s.mu.Lock()
		ca, ok := s.pending[rh.XID]
		if ok {
			delete(s.pending, rh.XID)
			// Retire delivered XIDs too: a retransmitting link can
			// duplicate a reply, and the duplicate must not be taken
			// for desynchronization.
			s.retired.add(rh.XID)
			s.mu.Unlock()
			switch rh.Status {
			case ReplyOK:
				// Ownership handoff, not retention: the reader passes
				// the decoder to the pending call slot; the stub that
				// receives it releases it.
				ca.dec = d //lint:allow poolescape
			case ReplyOverloaded:
				// Admission control shed the call before dispatch: the
				// server provably did not execute it, so it is safe to
				// retry even when non-idempotent.
				putDecoder(d)
				ca.err = ErrOverloaded
			case ReplyExpired:
				// The propagated deadline passed before dispatch: the
				// handler did not run, and the budget is spent.
				putDecoder(d)
				ca.err = ErrExpired
			default:
				putDecoder(d)
				ca.err = ErrSystem
			}
			ca.done <- struct{}{}
			continue
		}
		if st, sok := s.streams[rh.XID]; sok {
			// A normal reply addressed to a stream: the server refused
			// the request before streaming began (admission shed,
			// malformed arguments, unknown operation). Terminal.
			delete(s.streams, rh.XID)
			s.retired.add(rh.XID)
			s.mu.Unlock()
			putDecoder(d)
			switch rh.Status {
			case ReplyOverloaded:
				st.terminate(ErrOverloaded)
			case ReplyExpired:
				st.terminate(ErrExpired)
			default:
				st.terminate(fmt.Errorf("rt: stream: %w", ErrSystem))
			}
			continue
		}
		if s.retired.has(rh.XID) {
			// A late or duplicated reply for a completed or timed-out
			// call: benign, drop it.
			s.mu.Unlock()
			putDecoder(d)
			if metrics != nil {
				metrics.StaleReplies.Add(1)
			}
			continue
		}
		s.mu.Unlock()
		// An XID this client never issued: the connection is
		// desynchronized.
		putDecoder(d)
		if metrics != nil {
			metrics.BadXIDs.Add(1)
		}
		ferr := fmt.Errorf("%w: reply xid %d", ErrBadXID, rh.XID)
		s.fail(ferr)
		c.connTornDown(ferr)
		return
	}
}

// connTornDown reports a connection teardown that poisoned a session —
// a receive failure, an unparseable reply header, or a desynchronized
// stream, whether noticed during normal operation, poison-drain, or a
// pool failover — in ConnErrors and as an always-recorded SpanConnError
// span carrying the pool session index. Deliberate Close teardowns are
// not reported (they carry no diagnostic signal).
func (c *Client) connTornDown(err error) {
	if metrics := c.Metrics; metrics != nil {
		metrics.ConnErrors.Add(1)
	}
	if tracer := c.Tracer; tracer != nil {
		recordErrorSpan(tracer, SpanConnError, "", c.Shard, time.Now(), err)
	}
}
