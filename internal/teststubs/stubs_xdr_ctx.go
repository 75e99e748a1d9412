// Code generated by flick (flick/xdr). DO NOT EDIT.

package teststubs

import (
	"context"

	"flick/rt"
)

// SendIntsCtx invokes the send_ints operation under a caller context:
// the context's deadline travels on the wire and bounds the
// server-side work, its trace is continued, and cancellation
// aborts the reply wait while a cancel frame releases the
// server-side work.
func (c *BenchXDRClient) SendIntsCtx(ctx context.Context, v []int32) (err error) {
	var d *rt.Decoder
	d, err = c.C.Do(ctx, &BenchSendIntsXDROp, func(e *rt.Encoder) {
		MarshalBenchSendIntsXDRRequest(e, v)
	})
	if err != nil {
		return
	}
	err = UnmarshalBenchSendIntsXDRReply(d)
	d.Release()
	return
}

// SendRectsCtx invokes the send_rects operation under a caller context:
// the context's deadline travels on the wire and bounds the
// server-side work, its trace is continued, and cancellation
// aborts the reply wait while a cancel frame releases the
// server-side work.
func (c *BenchXDRClient) SendRectsCtx(ctx context.Context, v []BenchRect) (err error) {
	var d *rt.Decoder
	d, err = c.C.Do(ctx, &BenchSendRectsXDROp, func(e *rt.Encoder) {
		MarshalBenchSendRectsXDRRequest(e, v)
	})
	if err != nil {
		return
	}
	err = UnmarshalBenchSendRectsXDRReply(d)
	d.Release()
	return
}

// SendDirsCtx invokes the send_dirs operation under a caller context:
// the context's deadline travels on the wire and bounds the
// server-side work, its trace is continued, and cancellation
// aborts the reply wait while a cancel frame releases the
// server-side work.
func (c *BenchXDRClient) SendDirsCtx(ctx context.Context, v []BenchDirEntry) (err error) {
	var d *rt.Decoder
	d, err = c.C.Do(ctx, &BenchSendDirsXDROp, func(e *rt.Encoder) {
		MarshalBenchSendDirsXDRRequest(e, v)
	})
	if err != nil {
		return
	}
	err = UnmarshalBenchSendDirsXDRReply(d)
	d.Release()
	return
}

// SumCtx invokes the sum operation under a caller context:
// the context's deadline travels on the wire and bounds the
// server-side work, its trace is continued, and cancellation
// aborts the reply wait while a cancel frame releases the
// server-side work.
func (c *BenchXDRClient) SumCtx(ctx context.Context, v []int32) (ret int32, err error) {
	var d *rt.Decoder
	d, err = c.C.Do(ctx, &BenchSumXDROp, func(e *rt.Encoder) {
		MarshalBenchSumXDRRequest(e, v)
	})
	if err != nil {
		return
	}
	ret, err = UnmarshalBenchSumXDRReply(d)
	d.Release()
	return
}

// ListDirCtx invokes the list_dir operation under a caller context:
// the context's deadline travels on the wire and bounds the
// server-side work, its trace is continued, and cancellation
// aborts the reply wait while a cancel frame releases the
// server-side work.
func (c *BenchXDRClient) ListDirCtx(ctx context.Context, path string) (ret []BenchDirEntry, total int32, err error) {
	var d *rt.Decoder
	d, err = c.C.Do(ctx, &BenchListDirXDROp, func(e *rt.Encoder) {
		MarshalBenchListDirXDRRequest(e, path)
	})
	if err != nil {
		return
	}
	ret, total, err = UnmarshalBenchListDirXDRReply(d)
	d.Release()
	return
}

// PingCtx invokes the ping operation under a caller context:
// the context's deadline travels on the wire and bounds the
// server-side work, its trace is continued, and cancellation
// aborts the reply wait while a cancel frame releases the
// server-side work.
func (c *BenchXDRClient) PingCtx(ctx context.Context, nonce int32) (err error) {
	_, err = c.C.Do(ctx, &BenchPingXDROp, func(e *rt.Encoder) {
		MarshalBenchPingXDRRequest(e, nonce)
	})
	if err != nil {
		return
	}
	return
}
