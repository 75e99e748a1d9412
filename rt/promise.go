package rt

import (
	"context"
	"errors"
	"time"
)

// ErrPromiseSettled reports a second Wait on an already-settled
// promise. A promise is single-shot: the first Wait consumes the reply
// (and with it the pooled decoder's ownership), so a repeat Wait has
// nothing left to deliver.
var ErrPromiseSettled = errors.New("rt: promise already settled")

// Promise is one in-flight asynchronous invocation: Go marshals and
// transmits the request before returning, and the promise holds the
// registered reply slot until Wait collects it from the session's XID
// multiplexer. Because transmission happens at issue time, a caller
// can hold any number of promises in flight on one session and the
// server pipeline overlaps them exactly like concurrent sync callers —
// without one goroutine per call.
//
// Resolution semantics match the sync path: Wait runs the same
// classification and retry loop Do runs after its first attempt, so
// promise errors satisfy errors.Is(ErrRetryable / ErrNotRetryable /
// ErrSystem / ErrOverloaded) identically. When the client traces, the
// issue-time attempt span parents the resolution: the span is recorded
// when Wait collects the reply, covering the full issue-to-resolve
// interval.
//
// A promise must be settled by exactly one Wait. Wait blocks; it is
// safe to call from a different goroutine than the issuer, but not
// from several at once.
type Promise struct {
	c   *Client
	inv invocation
	// begin is the issue time, taken when the client observes calls.
	begin time.Time

	// First-attempt transmit state (the registered reply slot).
	s    *session
	ca   *call
	xid  uint32
	err  error
	sent bool

	// preempted marks a promise rejected before any attempt (breaker
	// open): the error is terminal and bypasses classification, exactly
	// as the sync path returns ErrBreakerOpen raw.
	preempted bool

	settled bool
}

// Go begins one asynchronous invocation of op: the request is
// marshaled and handed to the transport before Go returns, and the
// returned promise resolves it. Go never blocks on the reply and never
// returns nil; issue-time failures (breaker open, poisoned session,
// send error) settle the promise so Wait reports them with
// sync-identical classification. ctx means what it means for Do: its
// trace is continued, its deadline travels on the wire and bounds
// Wait, and its cancellation settles Wait early — sending the cancel
// frame that releases the server-side work. A oneway op's promise
// resolves to (nil, nil) once the request is sent.
func (c *Client) Go(ctx context.Context, op *Op, marshal func(*Encoder)) *Promise {
	p := &Promise{c: c, inv: invocation{ctx: ctx, op: op, marshal: marshal, metrics: c.Metrics}}
	tracer := c.Tracer
	if p.inv.metrics != nil || tracer != nil {
		p.begin = time.Now()
	}
	if tracer != nil {
		p.inv.ct = startCallTrace(tracer, ctx, SpanClientCall, op.Name, c.Shard)
	}

	if b := c.Breaker; b != nil && !b.allow() {
		if p.inv.metrics != nil {
			p.inv.metrics.BreakerRejects.Add(1)
		}
		p.inv.ct.event("breaker-reject", "call shed, breaker open")
		p.err = ErrBreakerOpen
		p.preempted = true
		return p
	}

	p.inv.ct.startAttempt()
	p.s, p.ca, p.xid, p.err, p.sent = c.beginAttempt(&p.inv)
	return p
}

// Wait blocks until the reply arrives (bounded by the client's Timeout
// per attempt), classifies failures, and — with a retry policy
// configured and the operation eligible — re-attempts synchronously
// inside Wait. On success the returned decoder is positioned at the
// reply payload and owned by the caller, who must release it with
// Decoder.Release after unmarshaling (generated promise wrappers do).
// Wait settles the promise; a second Wait returns ErrPromiseSettled.
func (p *Promise) Wait() (*Decoder, error) {
	if p.settled {
		return nil, ErrPromiseSettled
	}
	p.settled = true
	c, inv := p.c, &p.inv

	if p.preempted {
		c.observe(inv, p.begin, nil, p.err)
		return nil, p.err
	}

	var d *Decoder
	err := p.err
	if err == nil && p.ca != nil {
		d, err = c.awaitAttempt(inv, p.s, p.ca, p.xid)
	}
	// The issue-time attempt span, recorded at resolution: its ID is
	// the one the wire annotation carried, so the server's dispatch
	// span parents to exactly this attempt.
	inv.ct.endAttempt(err)
	if c.Retry != nil || c.Redial != nil || c.Breaker != nil {
		d, err = c.settleAttempts(inv, d, err, p.sent)
	}
	c.observe(inv, p.begin, d, err)
	return d, err
}
