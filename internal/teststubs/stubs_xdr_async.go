// Code generated by flick (flick/xdr). DO NOT EDIT.

package teststubs

import (
	"flick/rt"
)

// SendIntsAsync begins the send_ints operation without waiting for the
// reply: the request is marshaled and transmitted before this
// method returns, and the promise resolves when Wait collects
// the reply from the session's multiplexer.
func (c *BenchXDRClient) SendIntsAsync(v []int32) *BenchSendIntsXDRPromise {
	return &BenchSendIntsXDRPromise{p: c.C.Go(nil, &BenchSendIntsXDROp, func(e *rt.Encoder) {
		MarshalBenchSendIntsXDRRequest(e, v)
	})}
}

// BenchSendIntsXDRPromise is one in-flight send_ints invocation.
type BenchSendIntsXDRPromise struct {
	p *rt.Promise
}

// Wait blocks until the reply arrives and decodes it. The retry
// and error classification are the sync path's, applied at
// resolution time; Wait settles the promise and may be called
// once.
func (pr *BenchSendIntsXDRPromise) Wait() (err error) {
	var d *rt.Decoder
	d, err = pr.p.Wait()
	if err != nil {
		return
	}
	err = UnmarshalBenchSendIntsXDRReply(d)
	d.Release()
	return
}

// SendRectsAsync begins the send_rects operation without waiting for the
// reply: the request is marshaled and transmitted before this
// method returns, and the promise resolves when Wait collects
// the reply from the session's multiplexer.
func (c *BenchXDRClient) SendRectsAsync(v []BenchRect) *BenchSendRectsXDRPromise {
	return &BenchSendRectsXDRPromise{p: c.C.Go(nil, &BenchSendRectsXDROp, func(e *rt.Encoder) {
		MarshalBenchSendRectsXDRRequest(e, v)
	})}
}

// BenchSendRectsXDRPromise is one in-flight send_rects invocation.
type BenchSendRectsXDRPromise struct {
	p *rt.Promise
}

// Wait blocks until the reply arrives and decodes it. The retry
// and error classification are the sync path's, applied at
// resolution time; Wait settles the promise and may be called
// once.
func (pr *BenchSendRectsXDRPromise) Wait() (err error) {
	var d *rt.Decoder
	d, err = pr.p.Wait()
	if err != nil {
		return
	}
	err = UnmarshalBenchSendRectsXDRReply(d)
	d.Release()
	return
}

// SendDirsAsync begins the send_dirs operation without waiting for the
// reply: the request is marshaled and transmitted before this
// method returns, and the promise resolves when Wait collects
// the reply from the session's multiplexer.
func (c *BenchXDRClient) SendDirsAsync(v []BenchDirEntry) *BenchSendDirsXDRPromise {
	return &BenchSendDirsXDRPromise{p: c.C.Go(nil, &BenchSendDirsXDROp, func(e *rt.Encoder) {
		MarshalBenchSendDirsXDRRequest(e, v)
	})}
}

// BenchSendDirsXDRPromise is one in-flight send_dirs invocation.
type BenchSendDirsXDRPromise struct {
	p *rt.Promise
}

// Wait blocks until the reply arrives and decodes it. The retry
// and error classification are the sync path's, applied at
// resolution time; Wait settles the promise and may be called
// once.
func (pr *BenchSendDirsXDRPromise) Wait() (err error) {
	var d *rt.Decoder
	d, err = pr.p.Wait()
	if err != nil {
		return
	}
	err = UnmarshalBenchSendDirsXDRReply(d)
	d.Release()
	return
}

// SumAsync begins the sum operation without waiting for the
// reply: the request is marshaled and transmitted before this
// method returns, and the promise resolves when Wait collects
// the reply from the session's multiplexer.
func (c *BenchXDRClient) SumAsync(v []int32) *BenchSumXDRPromise {
	return &BenchSumXDRPromise{p: c.C.Go(nil, &BenchSumXDROp, func(e *rt.Encoder) {
		MarshalBenchSumXDRRequest(e, v)
	})}
}

// BenchSumXDRPromise is one in-flight sum invocation.
type BenchSumXDRPromise struct {
	p *rt.Promise
}

// Wait blocks until the reply arrives and decodes it. The retry
// and error classification are the sync path's, applied at
// resolution time; Wait settles the promise and may be called
// once.
func (pr *BenchSumXDRPromise) Wait() (ret int32, err error) {
	var d *rt.Decoder
	d, err = pr.p.Wait()
	if err != nil {
		return
	}
	ret, err = UnmarshalBenchSumXDRReply(d)
	d.Release()
	return
}

// ListDirAsync begins the list_dir operation without waiting for the
// reply: the request is marshaled and transmitted before this
// method returns, and the promise resolves when Wait collects
// the reply from the session's multiplexer.
func (c *BenchXDRClient) ListDirAsync(path string) *BenchListDirXDRPromise {
	return &BenchListDirXDRPromise{p: c.C.Go(nil, &BenchListDirXDROp, func(e *rt.Encoder) {
		MarshalBenchListDirXDRRequest(e, path)
	})}
}

// BenchListDirXDRPromise is one in-flight list_dir invocation.
type BenchListDirXDRPromise struct {
	p *rt.Promise
}

// Wait blocks until the reply arrives and decodes it. The retry
// and error classification are the sync path's, applied at
// resolution time; Wait settles the promise and may be called
// once.
func (pr *BenchListDirXDRPromise) Wait() (ret []BenchDirEntry, total int32, err error) {
	var d *rt.Decoder
	d, err = pr.p.Wait()
	if err != nil {
		return
	}
	ret, total, err = UnmarshalBenchListDirXDRReply(d)
	d.Release()
	return
}
