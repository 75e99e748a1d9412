// Package rt is Flick-Go's stub runtime: marshal buffers, encoders and
// decoders, bulk-copy helpers, message framing, transports, and the
// client/server plumbing that generated stubs link against.
//
// The encoder/decoder split mirrors the paper's optimization story:
// generated optimized stubs call Ensure once per message segment and then
// use unchecked writes (often through chunk windows obtained with Next);
// naive rpcgen-style stubs call the *C (checked) variants that test buffer
// space on every datum.
package rt

import "encoding/binary"

// Encoder builds one message payload. The zero value is ready to use;
// Reset reuses the allocation across calls (Flick stubs reuse marshal
// buffers between invocations).
type Encoder struct {
	buf []byte
	// lim is Grow's fast-path capacity limit: cap(buf) normally, -1
	// while counting is enabled. Grow tests `lim - len(buf) < n`, so
	// with lim == cap(buf) it is exactly the capacity check, and with
	// lim == -1 it always fails and routes through growSlow, where
	// the counters live. The gate costs nothing when disabled: the
	// fast path is the same single compare either way, and keeping
	// Grow this small is what lets the checked puts inline into the
	// naive per-datum wrappers (one extra test there is a blown
	// inlining budget and a function call per datum, ~20% on the
	// byte-loop workloads). lim is conservative: if an append grows
	// the buffer behind Grow's back, lim merely under-reports
	// capacity and the next Grow takes the slow path once, which
	// refreshes it.
	lim int
	// Observability counters (see EncStats). Plain integers: an
	// Encoder is single-writer by contract.
	stats    bool
	nGrow    uint64
	nRealloc uint64
	// Zero-copy segment collection (see vector.go). segs interleaves
	// sealed windows of buf with aliased user slices in wire order;
	// sealed is the buf prefix already captured into segs; aliasBytes
	// counts the aliased (non-buf) bytes so Len and Align keep
	// reporting the true wire cursor; nAlias counts alias segments.
	// All zero when no PutBytesZC ran — the copy path never looks at
	// them.
	segs       [][]byte
	sealed     int
	aliasBytes int
	nAlias     int
}

// relim recomputes the fast-path limit after anything that changes
// cap(e.buf) or the counting mode.
func (e *Encoder) relim() {
	if e.stats {
		e.lim = -1 // lim-len < n for every n >= 0: always take growSlow
	} else {
		e.lim = cap(e.buf)
	}
}

// EnableStats turns space-check counting on or off (off by default).
// The runtime enables it when a Metrics registry is attached; with
// counting off, Grow does not touch the counters.
func (e *Encoder) EnableStats(on bool) {
	e.stats = on
	e.relim()
}

// EncStats reports an encoder's space-check counters: GrowChecks is
// the number of Grow calls (the paper's marshal-side ensure-space
// checks — optimized stubs emit one per message segment, naive stubs
// one per datum), GrowAllocs the subset that had to reallocate the
// buffer.
type EncStats struct {
	GrowChecks uint64 `json:"grow_checks"`
	GrowAllocs uint64 `json:"grow_allocs"`
}

// Stats returns the counters accumulated since construction or the
// last TakeStats. Reset does not clear them (they span an encoder's
// whole reuse lifetime).
func (e *Encoder) Stats() EncStats {
	return EncStats{GrowChecks: e.nGrow, GrowAllocs: e.nRealloc}
}

// TakeStats returns the accumulated counters and zeroes them (the
// runtime drains per-call deltas into a Metrics registry this way).
func (e *Encoder) TakeStats() EncStats {
	s := e.Stats()
	e.nGrow, e.nRealloc = 0, 0
	return s
}

// Reset empties the encoder, keeping capacity. Alias segments are
// dropped (and their user references cleared, so a pooled encoder
// never pins caller memory across calls).
func (e *Encoder) Reset() {
	e.buf = e.buf[:0]
	if e.nAlias != 0 || len(e.segs) != 0 {
		e.clearSegs()
	}
	e.sealed = 0
}

// Bytes returns the encoded payload. While alias segments are
// outstanding the contiguous buffer alone is not the message, so Bytes
// assembles a flattened copy — correct everywhere (wire dumps, batch
// envelopes, transports without vectored send) at the cost of the copy
// the fast path exists to avoid. Senders prefer Vectored.
func (e *Encoder) Bytes() []byte {
	if e.nAlias == 0 {
		return e.buf
	}
	out := make([]byte, 0, e.Len())
	for _, s := range e.segs {
		out = append(out, s...)
	}
	out = append(out, e.buf[e.sealed:]...)
	return out
}

// Len returns the current payload length, counting alias segments.
func (e *Encoder) Len() int { return len(e.buf) + e.aliasBytes }

// Grow ensures capacity for n more bytes (the single check emitted per
// fixed-size segment by optimized stubs).
func (e *Encoder) Grow(n int) {
	if e.lim-len(e.buf) < n {
		e.growSlow(n)
	}
}

// growSlow is Grow's out-of-line path: a genuine reallocation, a
// stale-lim refresh, or — while counting is enabled — every Grow
// call, so the counters never touch the inlined fast path. Kept out
// of line (and out of Grow's inlining budget) so the checked puts
// still inline into the naive per-datum wrappers.
//
//go:noinline
func (e *Encoder) growSlow(n int) {
	if e.stats {
		e.nGrow++
	}
	if cap(e.buf)-len(e.buf) < n {
		if e.stats {
			e.nRealloc++
		}
		nb := make([]byte, len(e.buf), grown(cap(e.buf), len(e.buf)+n))
		copy(nb, e.buf)
		e.buf = nb
	}
	e.relim()
}

// GrowDyn ensures capacity for base + per*count more bytes.
func (e *Encoder) GrowDyn(base, per, count int) { e.Grow(base + per*count) }

func grown(cur, need int) int {
	if cur < 64 {
		cur = 64
	}
	for cur < need {
		cur *= 2
	}
	return cur
}

// Next appends an n-byte window and returns it: the chunk pointer.
// The caller must have ensured capacity.
func (e *Encoder) Next(n int) []byte {
	l := len(e.buf)
	e.buf = e.buf[:l+n]
	return e.buf[l : l+n]
}

// Align pads the payload with zeros to an n-byte boundary. The wire
// cursor counts alias segments (XDR opaque padding after an aliased
// region must land after the aliased bytes, not after the buffered
// prefix).
func (e *Encoder) Align(n int) {
	pad := (n - (len(e.buf)+e.aliasBytes)%n) % n
	if pad == 0 {
		return
	}
	e.Grow(pad)
	w := e.Next(pad)
	for i := range w {
		w[i] = 0
	}
}

// Unchecked writes (capacity ensured by a preceding Grow).

func (e *Encoder) PutU8(v byte) { e.buf = append(e.buf, v) }

func (e *Encoder) PutU16BE(v uint16) { binary.BigEndian.PutUint16(e.Next(2), v) }
func (e *Encoder) PutU16LE(v uint16) { binary.LittleEndian.PutUint16(e.Next(2), v) }
func (e *Encoder) PutU32BE(v uint32) { binary.BigEndian.PutUint32(e.Next(4), v) }
func (e *Encoder) PutU32LE(v uint32) { binary.LittleEndian.PutUint32(e.Next(4), v) }
func (e *Encoder) PutU64BE(v uint64) { binary.BigEndian.PutUint64(e.Next(8), v) }
func (e *Encoder) PutU64LE(v uint64) { binary.LittleEndian.PutUint64(e.Next(8), v) }

// PutBytes appends raw bytes (capacity ensured).
func (e *Encoder) PutBytes(s []byte) { e.buf = append(e.buf, s...) }

// PutString appends raw string bytes (capacity ensured).
func (e *Encoder) PutString(s string) { e.buf = append(e.buf, s...) }

// Checked writes: the rpcgen-style slow path, one capacity test per datum.

// PutU8C writes one checked byte. The guard is Grow(1) with the
// comparison algebraically simplified (lim-len < 1 ⇔ lim ≤ len) so the
// method stays within the inlining budget: interpretive marshalers and
// naive stubs call it once per byte, and whether it inlines is worth
// ~10% on the byte-loop workloads.
func (e *Encoder) PutU8C(v byte) {
	if e.lim <= len(e.buf) {
		e.growSlow(1)
	}
	e.PutU8(v)
}

func (e *Encoder) PutU16BEC(v uint16) { e.Grow(2); e.PutU16BE(v) }
func (e *Encoder) PutU16LEC(v uint16) { e.Grow(2); e.PutU16LE(v) }
func (e *Encoder) PutU32BEC(v uint32) { e.Grow(4); e.PutU32BE(v) }
func (e *Encoder) PutU32LEC(v uint32) { e.Grow(4); e.PutU32LE(v) }
func (e *Encoder) PutU64BEC(v uint64) { e.Grow(8); e.PutU64BE(v) }
func (e *Encoder) PutU64LEC(v uint64) { e.Grow(8); e.PutU64LE(v) }

// B2U32 converts a bool to its 4-byte wire representation (XDR booleans).
func B2U32(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// B2U8 converts a bool to its 1-byte wire representation (CDR booleans).
func B2U8(b bool) byte {
	if b {
		return 1
	}
	return 0
}
