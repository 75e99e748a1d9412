// Code generated by flick (flick/xdr). DO NOT EDIT.

package streamstubs

import (
	"encoding/binary"

	"flick/rt"
)

// ObjectKey is an opaque object reference.
type ObjectKey = []byte

// BlobChunk presents IDL struct Blob::chunk.
type BlobChunk struct {
	Seq  uint32
	Data []byte
}

// BlobSizeOp describes the size operation to the runtime.
var BlobSizeOp = rt.Op{Proc: 0, Name: "size", Idempotent: true}

// MarshalBlobSizeRequest encodes the message payload (bounded class, xdr).
func MarshalBlobSizeRequest(e *rt.Encoder, name string) {
	e.Grow(262)
	rt.CheckBound(len(name), 255)
	e.PutU32BE(uint32(len(name)))
	e.PutString(name)
	e.Align(4)
}

// UnmarshalBlobSizeRequest decodes the message payload (bounded class, xdr).
func UnmarshalBlobSizeRequest(d *rt.Decoder) (name string, err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	n1, ok2 := d.Len(rt.BE, 255, false)
	if !ok2 {
		err = d.Err()
		return
	}
	if !d.EnsureDyn(0, 1, n1) {
		err = d.Err()
		return
	}
	name = string(d.Next(n1))
	d.Align(4)
	err = d.Err()
	return
}

// MarshalBlobSizeReply encodes a successful reply (status 0).
func MarshalBlobSizeReply(e *rt.Encoder, ret uint32) {
	e.Grow(4)
	e.PutU32BE(0)
	e.Grow(4)
	e.PutU32BE(uint32(ret))
}

// UnmarshalBlobSizeReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBlobSizeReply(d *rt.Decoder) (ret uint32, err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	st := d.U32BE()
	switch st {
	case 0:
		if !d.Ensure(4) {
			err = d.Err()
			return
		}
		ret = uint32(d.U32BE())
		err = d.Err()
		return
	default:
		err = d.Fail(rt.ErrBadUnion)
		return
	}
}

// BlobPutOp describes the put operation to the runtime.
var BlobPutOp = rt.Op{Proc: 1, Name: "put"}

// MarshalBlobPutRequest encodes the message payload (unbounded class, xdr).
func MarshalBlobPutRequest(e *rt.Encoder, name string, data []byte) {
	e.Grow(266)
	rt.CheckBound(len(name), 255)
	e.PutU32BE(uint32(len(name)))
	e.PutString(name)
	e.Align(4)
	e.PutU32BE(uint32(len(data)))
	e.GrowDyn(0, 1, len(data))
	e.Grow(3)
	e.PutBytes(data)
	e.Align(4)
}

// UnmarshalBlobPutRequest decodes the message payload (unbounded class, xdr).
func UnmarshalBlobPutRequest(d *rt.Decoder) (name string, data []byte, err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	n3, ok4 := d.Len(rt.BE, 255, false)
	if !ok4 {
		err = d.Err()
		return
	}
	if !d.EnsureDyn(0, 1, n3) {
		err = d.Err()
		return
	}
	name = string(d.Next(n3))
	d.Align(4)
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	n5, ok6 := d.Len(rt.BE, 0, false)
	if !ok6 {
		err = d.Err()
		return
	}
	data = make([]byte, n5)
	if !d.EnsureDyn(0, 1, n5) {
		err = d.Err()
		return
	}
	copy(data, d.Next(len(data)))
	d.Align(4)
	err = d.Err()
	return
}

// MarshalBlobPutReply encodes a successful reply (status 0).
func MarshalBlobPutReply(e *rt.Encoder) {
	e.Grow(4)
	e.PutU32BE(0)
}

// UnmarshalBlobPutReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBlobPutReply(d *rt.Decoder) (err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	st := d.U32BE()
	switch st {
	case 0:
		err = d.Err()
		return
	default:
		err = d.Fail(rt.ErrBadUnion)
		return
	}
}

// BlobFetchOp describes the fetch operation to the runtime.
var BlobFetchOp = rt.Op{Proc: 2, Name: "fetch"}

// MarshalBlobFetchRequest encodes the message payload (bounded class, xdr).
func MarshalBlobFetchRequest(e *rt.Encoder, name string) {
	e.Grow(262)
	rt.CheckBound(len(name), 255)
	e.PutU32BE(uint32(len(name)))
	e.PutString(name)
	e.Align(4)
}

// UnmarshalBlobFetchRequest decodes the message payload (bounded class, xdr).
func UnmarshalBlobFetchRequest(d *rt.Decoder) (name string, err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	n7, ok8 := d.Len(rt.BE, 255, false)
	if !ok8 {
		err = d.Err()
		return
	}
	if !d.EnsureDyn(0, 1, n7) {
		err = d.Err()
		return
	}
	name = string(d.Next(n7))
	d.Align(4)
	err = d.Err()
	return
}

// MarshalBlobFetchChunk encodes the message payload (bounded class, xdr).
func MarshalBlobFetchChunk(e *rt.Encoder, ret *BlobChunk) {
	e.Grow(4107)
	b9 := e.Next(8)
	binary.BigEndian.PutUint32(b9[0:], uint32((*ret).Seq))
	rt.CheckBound(len((*ret).Data), 4096)
	binary.BigEndian.PutUint32(b9[4:], uint32(len((*ret).Data)))
	e.PutBytes((*ret).Data)
	e.Align(4)
}

// UnmarshalBlobFetchChunk decodes the message payload (bounded class, xdr).
func UnmarshalBlobFetchChunk(d *rt.Decoder) (ret BlobChunk, err error) {
	if !d.Ensure(8) {
		err = d.Err()
		return
	}
	b10 := d.Next(8)
	ret.Seq = uint32(binary.BigEndian.Uint32(b10[0:]))
	n11, ok12 := d.CheckLen(binary.BigEndian.Uint32(b10[4:]), 4096, false)
	if !ok12 {
		err = d.Err()
		return
	}
	ret.Data = make([]byte, n11)
	if !d.EnsureDyn(0, 1, n11) {
		err = d.Err()
		return
	}
	copy(ret.Data, d.Next(len(ret.Data)))
	d.Align(4)
	err = d.Err()
	return
}

// BlobTouchOp describes the touch operation to the runtime.
var BlobTouchOp = rt.Op{Proc: 3, Name: "touch", Oneway: true}

// MarshalBlobTouchRequest encodes the message payload (fixed class, xdr).
func MarshalBlobTouchRequest(e *rt.Encoder, nonce int32) {
	e.Grow(4)
	e.PutU32BE(uint32(nonce))
}

// UnmarshalBlobTouchRequest decodes the message payload (fixed class, xdr).
func UnmarshalBlobTouchRequest(d *rt.Decoder) (nonce int32, err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	nonce = int32(d.U32BE())
	err = d.Err()
	return
}

// BlobClient invokes Blob operations over a connection.
type BlobClient struct {
	C *rt.Client
}

// NewBlobClient wraps conn with the xdr message protocol.
func NewBlobClient(conn rt.Conn) *BlobClient {
	c := rt.NewClient(conn, rt.ONC{})
	c.Prog = 0
	c.Vers = 0
	return &BlobClient{C: c}
}

// Size invokes the size operation.
func (c *BlobClient) Size(name string) (ret uint32, err error) {
	var d *rt.Decoder
	d, err = c.C.Do(nil, &BlobSizeOp, func(e *rt.Encoder) {
		MarshalBlobSizeRequest(e, name)
	})
	if err != nil {
		return
	}
	ret, err = UnmarshalBlobSizeReply(d)
	d.Release()
	return
}

// Put invokes the put operation.
func (c *BlobClient) Put(name string, data []byte) (err error) {
	var d *rt.Decoder
	d, err = c.C.Do(nil, &BlobPutOp, func(e *rt.Encoder) {
		MarshalBlobPutRequest(e, name, data)
	})
	if err != nil {
		return
	}
	err = UnmarshalBlobPutReply(d)
	d.Release()
	return
}

// Touch invokes the touch operation.
func (c *BlobClient) Touch(nonce int32) (err error) {
	_, err = c.C.Do(nil, &BlobTouchOp, func(e *rt.Encoder) {
		MarshalBlobTouchRequest(e, nonce)
	})
	if err != nil {
		return
	}
	return
}

// SizeAsync begins the size operation without waiting for the
// reply: the request is marshaled and transmitted before this
// method returns, and the promise resolves when Wait collects
// the reply from the session's multiplexer.
func (c *BlobClient) SizeAsync(name string) *BlobSizePromise {
	return &BlobSizePromise{p: c.C.Go(nil, &BlobSizeOp, func(e *rt.Encoder) {
		MarshalBlobSizeRequest(e, name)
	})}
}

// BlobSizePromise is one in-flight size invocation.
type BlobSizePromise struct {
	p *rt.Promise
}

// Wait blocks until the reply arrives and decodes it. The retry
// and error classification are the sync path's, applied at
// resolution time; Wait settles the promise and may be called
// once.
func (pr *BlobSizePromise) Wait() (ret uint32, err error) {
	var d *rt.Decoder
	d, err = pr.p.Wait()
	if err != nil {
		return
	}
	ret, err = UnmarshalBlobSizeReply(d)
	d.Release()
	return
}

// PutAsync begins the put operation without waiting for the
// reply: the request is marshaled and transmitted before this
// method returns, and the promise resolves when Wait collects
// the reply from the session's multiplexer.
func (c *BlobClient) PutAsync(name string, data []byte) *BlobPutPromise {
	return &BlobPutPromise{p: c.C.Go(nil, &BlobPutOp, func(e *rt.Encoder) {
		MarshalBlobPutRequest(e, name, data)
	})}
}

// BlobPutPromise is one in-flight put invocation.
type BlobPutPromise struct {
	p *rt.Promise
}

// Wait blocks until the reply arrives and decodes it. The retry
// and error classification are the sync path's, applied at
// resolution time; Wait settles the promise and may be called
// once.
func (pr *BlobPutPromise) Wait() (err error) {
	var d *rt.Decoder
	d, err = pr.p.Wait()
	if err != nil {
		return
	}
	err = UnmarshalBlobPutReply(d)
	d.Release()
	return
}

// FetchStream begins the fetch server-push stream with a credit
// window of the given number of chunks. A window of 0 blocks the
// server's first Send until Grant extends credit (pure
// backpressure).
func (c *BlobClient) FetchStream(name string, window int) (*BlobFetchStream, error) {
	st, err := c.C.Stream(nil, &BlobFetchOp, window, func(e *rt.Encoder) {
		MarshalBlobFetchRequest(e, name)
	})
	if err != nil {
		return nil, err
	}
	return &BlobFetchStream{st: st}, nil
}

// BlobFetchStream is the receiving half of a fetch stream. It is not
// safe for concurrent Recv.
type BlobFetchStream struct {
	st *rt.ClientStream
}

// Recv returns the next chunk; io.EOF reports a clean end of
// stream, any other error a classified teardown.
func (s *BlobFetchStream) Recv() (ret BlobChunk, err error) {
	var d *rt.Decoder
	d, err = s.st.Recv()
	if err != nil {
		return
	}
	ret, err = UnmarshalBlobFetchChunk(d)
	d.Release()
	return
}

// Grant extends the server's credit window by n chunks.
func (s *BlobFetchStream) Grant(n int) error { return s.st.Grant(n) }

// Cancel tears the stream down and releases any undelivered
// chunks; Recv afterwards reports the cancellation.
func (s *BlobFetchStream) Cancel() { s.st.Cancel() }

// BlobServer is the interface a Blob implementation provides.
type BlobServer interface {
	Size(name string) (ret uint32, err error)
	Put(name string, data []byte) (err error)
	Fetch(name string, st *BlobFetchServerStream) error
	Touch(nonce int32) (err error)
}

// BlobFetchServerStream is the sending half of a fetch stream, handed to
// the work function by the dispatcher.
type BlobFetchServerStream struct {
	st *rt.StreamSender
}

// Send pushes one chunk, blocking while the client's credit
// window is exhausted (backpressure) and failing once the stream
// is canceled or torn down.
func (s *BlobFetchServerStream) Send(v *BlobChunk) error {
	return s.st.Send(func(e *rt.Encoder) {
		MarshalBlobFetchChunk(e, v)
	})
}

// RegisterBlob installs the Blob dispatcher on s. The dispatch
// decodes the operation discriminator a machine word at a time
// (Flick's message demultiplexing).
func RegisterBlob(s *rt.Server, impl BlobServer) {
	s.Register(0, 0, func(h *rt.ReqHeader, d *rt.Decoder, e *rt.Encoder) error {
		switch h.Proc {
		case 0:
			h.OpName = "size"
			a_name, argErr := UnmarshalBlobSizeRequest(d)
			if argErr != nil {
				return argErr
			}
			r_ret, workErr := impl.Size(a_name)
			if workErr != nil {
				return workErr
			}
			MarshalBlobSizeReply(e, r_ret)
			return nil
		case 1:
			h.OpName = "put"
			a_name, a_data, argErr := UnmarshalBlobPutRequest(d)
			if argErr != nil {
				return argErr
			}
			workErr := impl.Put(a_name, a_data)
			if workErr != nil {
				return workErr
			}
			MarshalBlobPutReply(e)
			return nil
		case 2:
			h.OpName = "fetch"
			a_name, argErr := UnmarshalBlobFetchRequest(d)
			if argErr != nil {
				return argErr
			}
			h.OneWay = true
			sn := rt.NewStreamSender(h)
			workErr := impl.Fetch(a_name, &BlobFetchServerStream{st: sn})
			sn.Finish(workErr)
			return nil
		case 3:
			h.OpName = "touch"
			h.OneWay = true
			a_nonce, argErr := UnmarshalBlobTouchRequest(d)
			if argErr != nil {
				return argErr
			}
			workErr := impl.Touch(a_nonce)
			if workErr != nil {
				return workErr
			}
			return nil
		default:
			return rt.ErrNoSuchOp
		}
	})
}
