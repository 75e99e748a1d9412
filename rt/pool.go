// Buffer-ownership pools for the concurrent call pipeline.
//
// The paper's §3.1 buffer-reuse optimization originally relied on the
// runtime serializing calls: a Client owned exactly one Encoder and one
// Decoder, and generated stubs borrowed them between invocations. A
// multiplexed client cannot share one buffer across concurrent calls,
// so the contract becomes ownership-passing instead of borrowing:
//
//   - Do takes an Encoder from the pool, marshals into it, and
//     returns it to the pool the moment the transport accepts the
//     message (Conn.Send does not retain the buffer).
//   - Each reply is bound to a pooled Decoder that Do hands to its
//     caller. The caller — in practice the generated client stub —
//     releases it back to the pool with Decoder.Release after
//     unmarshaling. A caller that never releases merely forfeits the
//     reuse (the decoder is garbage collected); it cannot corrupt
//     another call's data.
//
// This keeps the amortized-zero-allocation property of the serialized
// runtime while allowing any number of calls in flight.
package rt

import (
	"sync"
	"sync/atomic"
)

// poolCounters tracks every pool checkout and return. The chaos harness
// (and any leak-sensitive test) asserts Get/Put balance after
// quiescence: an imbalance means some error path dropped a pooled
// buffer on the floor — exactly the contract the flick-lint
// releasecheck analyzer proves statically, here re-proven dynamically
// under injected faults.
var poolCounters struct {
	encGets, encPuts   atomic.Uint64
	decGets, decPuts   atomic.Uint64
	callGets, callPuts atomic.Uint64
}

// PoolStats is a point-in-time copy of the pool checkout counters.
// Gets minus Puts is the number of buffers currently checked out; at
// quiescence (no calls in flight, all stubs done) any difference is a
// leak.
type PoolStats struct {
	EncoderGets, EncoderPuts uint64
	DecoderGets, DecoderPuts uint64
	CallGets, CallPuts       uint64
}

// Balanced reports whether every checkout has been returned.
func (s PoolStats) Balanced() bool {
	return s.EncoderGets == s.EncoderPuts &&
		s.DecoderGets == s.DecoderPuts &&
		s.CallGets == s.CallPuts
}

// Sub returns the counter deltas since an earlier snapshot.
func (s PoolStats) Sub(earlier PoolStats) PoolStats {
	return PoolStats{
		EncoderGets: s.EncoderGets - earlier.EncoderGets,
		EncoderPuts: s.EncoderPuts - earlier.EncoderPuts,
		DecoderGets: s.DecoderGets - earlier.DecoderGets,
		DecoderPuts: s.DecoderPuts - earlier.DecoderPuts,
		CallGets:    s.CallGets - earlier.CallGets,
		CallPuts:    s.CallPuts - earlier.CallPuts,
	}
}

// ReadPoolStats snapshots the process-wide pool checkout counters.
func ReadPoolStats() PoolStats {
	return PoolStats{
		EncoderGets: poolCounters.encGets.Load(),
		EncoderPuts: poolCounters.encPuts.Load(),
		DecoderGets: poolCounters.decGets.Load(),
		DecoderPuts: poolCounters.decPuts.Load(),
		CallGets:    poolCounters.callGets.Load(),
		CallPuts:    poolCounters.callPuts.Load(),
	}
}

var encoderPool = sync.Pool{New: func() any { return new(Encoder) }}

// getEncoder takes a reset encoder from the pool.
func getEncoder() *Encoder {
	poolCounters.encGets.Add(1)
	e := encoderPool.Get().(*Encoder)
	e.Reset()
	return e
}

// putEncoder returns an encoder to the pool. Counting is switched off
// so pooled encoders always re-enter service on the disabled fast path,
// and alias segments are cleared so the pool never pins caller memory.
func putEncoder(e *Encoder) {
	poolCounters.encPuts.Add(1)
	if e.stats {
		e.EnableStats(false)
	}
	if e.nAlias != 0 || len(e.segs) != 0 {
		e.clearSegs()
	}
	encoderPool.Put(e)
}

var decoderPool = sync.Pool{New: func() any { return new(Decoder) }}

// getDecoder takes a pooled decoder and marks it runtime-owned so
// Release returns it here.
func getDecoder() *Decoder {
	poolCounters.decGets.Add(1)
	d := decoderPool.Get().(*Decoder)
	d.pooled = true
	return d
}

// putDecoder clears a decoder and returns it to the pool. The pooled
// flag is dropped first so a double Release cannot insert the same
// decoder twice.
func putDecoder(d *Decoder) {
	if !d.pooled {
		return
	}
	poolCounters.decPuts.Add(1)
	d.pooled = false
	d.sink = nil
	if d.stats {
		d.EnableStats(false)
	}
	// Settle the arena borrow: recycle the receive buffer unless alias
	// views were handed out, in which case it is pinned — the views own
	// it now and the garbage collector reclaims it when they die.
	if d.arena != nil {
		if d.aliased {
			zcCounters.arenaPinned.Add(1)
		} else {
			putArenaBuf(d.arena)
		}
	}
	d.Reset(nil)
	decoderPool.Put(d)
}

// Release returns a runtime-owned decoder to the pool. Generated client
// stubs call it after unmarshaling a reply; server workers call it after
// dispatch. Releasing drains the decoder's space-check counters into the
// metrics registry the call was observed by (so unmarshal-side Ensure
// counts are not lost), then recycles the buffer bookkeeping.
//
// Release on a decoder the runtime does not own (e.g. one built with
// NewDecoder) is a no-op, as is a second Release of the same decoder.
// After Release the decoder must not be used again.
func (d *Decoder) Release() {
	if !d.pooled {
		return
	}
	if d.sink != nil {
		d.sink.addDec(d.TakeStats())
	}
	putDecoder(d)
}

// call is one in-flight invocation's rendezvous between the issuing
// goroutine and the client's reply reader. The done channel (capacity
// 1) is allocated once and reused across the pool's lifetime.
type call struct {
	done chan struct{}
	dec  *Decoder
	err  error
}

var callPool = sync.Pool{New: func() any { return &call{done: make(chan struct{}, 1)} }}

func getCall() *call {
	poolCounters.callGets.Add(1)
	return callPool.Get().(*call)
}

func putCall(ca *call) {
	poolCounters.callPuts.Add(1)
	ca.dec = nil
	ca.err = nil
	callPool.Put(ca)
}
