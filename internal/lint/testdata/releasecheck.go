package fixture

import "flick/rt"

// ok: the canonical generated-stub shape — call, check error,
// unmarshal, release, return.
func wellBehaved(c *rt.Client) (v uint32, err error) {
	d, err := c.Do(nil, &rt.Op{Proc: 1, Name: "op"}, func(e *rt.Encoder) {})
	if err != nil {
		return
	}
	v = d.U32BE()
	d.Release()
	return
}

func missingRelease(c *rt.Client) (uint32, error) {
	d, err := c.Do(nil, &rt.Op{Proc: 1, Name: "op"}, func(e *rt.Encoder) {}) // want `pooled decoder d obtained here is never released`
	if err != nil {
		return 0, err
	}
	return d.U32BE(), nil
}

func doubleRelease(c *rt.Client) error {
	d, err := c.Do(nil, &rt.Op{Proc: 1, Name: "op"}, func(e *rt.Encoder) {})
	if err != nil {
		return err
	}
	d.Release()
	d.Release() // want `d released twice`
	return nil
}

func useAfterRelease(c *rt.Client) (uint32, error) {
	d, err := c.Do(nil, &rt.Op{Proc: 1, Name: "op"}, func(e *rt.Encoder) {})
	if err != nil {
		return 0, err
	}
	d.Release()
	return d.U32BE(), nil // want `use of d after release`
}

func deferThenRelease(c *rt.Client) error {
	d, err := c.Do(nil, &rt.Op{Proc: 1, Name: "op"}, func(e *rt.Encoder) {})
	if err != nil {
		return err
	}
	defer d.Release()
	_ = d.U32BE()
	d.Release() // want `d released here and again by the deferred release`
	return nil
}

// ok: ownership transferred to the caller by returning the decoder.
func transfersOwnership(c *rt.Client) (*rt.Decoder, error) {
	d, err := c.Do(nil, &rt.Op{Proc: 1, Name: "op"}, func(e *rt.Encoder) {})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// --- promise/stream surfaces: long-lived callback escapes -------------------

// ok: the promise reply is decoded and released in the waiting frame;
// the callback captures the copied value, not the decoder.
func promiseValueCopiedOut(p *rt.Promise, schedule func(func() uint32)) error {
	d, err := p.Wait()
	if err != nil {
		return err
	}
	v := d.U32BE()
	d.Release()
	schedule(func() uint32 { return v })
	return nil
}

// A promise reply decoder handed to a scheduled callback outlives the
// borrow: by the time the callback runs, Release has reissued the
// decoder to another call.
func promiseDecoderEscapes(p *rt.Promise, schedule func(func() uint32)) error {
	d, err := p.Wait()
	if err != nil {
		return err
	}
	schedule(func() uint32 { return d.U32BE() }) // want `pooled decoder d captured by a function literal`
	d.Release()
	return nil
}

// ok: the canonical stream consumer — each chunk decoded and released
// before the next Recv.
func streamConsumer(st *rt.ClientStream) (sum uint32, err error) {
	for {
		d, rerr := st.Recv()
		if rerr != nil {
			return sum, rerr
		}
		sum += d.U32BE()
		d.Release()
	}
}

// A chunk decoder captured by a goroutine races the consumer's Release.
func streamChunkEscapesToGoroutine(st *rt.ClientStream, out chan uint32) error {
	d, err := st.Recv()
	if err != nil {
		return err
	}
	go func() {
		out <- d.U32BE() // want `pooled decoder d captured by a function literal`
	}()
	d.Release()
	return nil
}

// A method value binds the decoder exactly like a closure capture, but
// with no function literal for the capture check to see — the
// historical false negative.
func methodValueEscapes(p *rt.Promise, schedule func(func() uint32)) error {
	d, err := p.Wait()
	if err != nil {
		return err
	}
	schedule(d.U32BE) // want `method value d.U32BE binds the pooled decoder beyond the borrow`
	d.Release()
	return nil
}

// ok: a selector in call position is an ordinary method call, not a
// binding.
func methodCallIsNotABinding(p *rt.Promise) (uint32, error) {
	d, err := p.Wait()
	if err != nil {
		return 0, err
	}
	v := d.U32BE()
	d.Release()
	return v, nil
}

// ok: the borrow, decode, and release all live inside the same closure;
// the closure owns the decoder for its whole lifetime.
func closureOwnsItsBorrow(c *rt.Client) func() (uint32, error) {
	return func() (uint32, error) {
		d, err := c.Do(nil, &rt.Op{Proc: 1, Name: "op"}, func(e *rt.Encoder) {})
		if err != nil {
			return 0, err
		}
		v := d.U32BE()
		d.Release()
		return v, nil
	}
}
