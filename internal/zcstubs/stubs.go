// Code generated by flick (flick/xdr). DO NOT EDIT.

package zcstubs

import (
	"flick/rt"
)

// ObjectKey is an opaque object reference.
type ObjectKey = []byte

// StoreGetOp describes the get operation to the runtime.
var StoreGetOp = rt.Op{Proc: 0, Name: "get"}

// MarshalStoreGetRequest encodes the message payload (unbounded class, xdr).
func MarshalStoreGetRequest(e *rt.Encoder, name string) {
	e.Grow(4)
	e.PutU32BE(uint32(len(name)))
	e.GrowDyn(0, 1, len(name))
	e.Grow(3)
	e.PutString(name)
	e.Align(4)
}

// UnmarshalStoreGetRequest decodes the message payload (unbounded class, xdr).
func UnmarshalStoreGetRequest(d *rt.Decoder) (name string, err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	n1, ok2 := d.Len(rt.BE, 0, false)
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

// MarshalStoreGetReply encodes a successful reply (status 0).
func MarshalStoreGetReply(e *rt.Encoder, ret []byte) {
	e.Grow(4)
	e.PutU32BE(0)
	e.Grow(4)
	e.PutU32BE(uint32(len(ret)))
	e.GrowDyn(0, 1, len(ret))
	e.Grow(3)
	e.PutBytesZC(ret)
	e.Align(4)
}

// UnmarshalStoreGetReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalStoreGetReply(d *rt.Decoder) (ret []byte, err error) {
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
		n3, ok4 := d.Len(rt.BE, 0, false)
		if !ok4 {
			err = d.Err()
			return
		}
		if !d.EnsureDyn(0, 1, n3) {
			err = d.Err()
			return
		}
		ret = d.AliasNext(n3)
		d.Align(4)
		err = d.Err()
		return
	default:
		err = d.Fail(rt.ErrBadUnion)
		return
	}
}

// StorePutOp describes the put operation to the runtime.
var StorePutOp = rt.Op{Proc: 1, Name: "put"}

// MarshalStorePutRequest encodes the message payload (unbounded class, xdr).
func MarshalStorePutRequest(e *rt.Encoder, name string, data []byte) {
	e.Grow(4)
	e.PutU32BE(uint32(len(name)))
	e.GrowDyn(0, 1, len(name))
	e.Grow(7)
	e.PutString(name)
	e.Align(4)
	e.PutU32BE(uint32(len(data)))
	e.GrowDyn(0, 1, len(data))
	e.Grow(3)
	e.PutBytesZC(data)
	e.Align(4)
}

// UnmarshalStorePutRequest decodes the message payload (unbounded class, xdr).
func UnmarshalStorePutRequest(d *rt.Decoder) (name string, data []byte, err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	n5, ok6 := d.Len(rt.BE, 0, false)
	if !ok6 {
		err = d.Err()
		return
	}
	if !d.EnsureDyn(0, 1, n5) {
		err = d.Err()
		return
	}
	name = string(d.Next(n5))
	d.Align(4)
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	n7, ok8 := d.Len(rt.BE, 0, false)
	if !ok8 {
		err = d.Err()
		return
	}
	if !d.EnsureDyn(0, 1, n7) {
		err = d.Err()
		return
	}
	data = d.AliasNext(n7)
	d.Align(4)
	err = d.Err()
	return
}

// MarshalStorePutReply encodes a successful reply (status 0).
func MarshalStorePutReply(e *rt.Encoder, ret uint32) {
	e.Grow(4)
	e.PutU32BE(0)
	e.Grow(4)
	e.PutU32BE(uint32(ret))
}

// UnmarshalStorePutReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalStorePutReply(d *rt.Decoder) (ret uint32, err error) {
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

// StoreClient invokes Store operations over a connection.
type StoreClient struct {
	C *rt.Client
}

// NewStoreClient wraps conn with the xdr message protocol.
func NewStoreClient(conn rt.Conn) *StoreClient {
	c := rt.NewClient(conn, rt.ONC{})
	c.Prog = 0
	c.Vers = 0
	return &StoreClient{C: c}
}

// Get invokes the get operation.
func (c *StoreClient) Get(name string) (ret []byte, err error) {
	var d *rt.Decoder
	d, err = c.C.Do(nil, &StoreGetOp, func(e *rt.Encoder) {
		MarshalStoreGetRequest(e, name)
	})
	if err != nil {
		return
	}
	ret, err = UnmarshalStoreGetReply(d)
	d.Release()
	return
}

// Put invokes the put operation.
func (c *StoreClient) Put(name string, data []byte) (ret uint32, err error) {
	var d *rt.Decoder
	d, err = c.C.Do(nil, &StorePutOp, func(e *rt.Encoder) {
		MarshalStorePutRequest(e, name, data)
	})
	if err != nil {
		return
	}
	ret, err = UnmarshalStorePutReply(d)
	d.Release()
	return
}

// StoreServer is the interface a Store implementation provides.
type StoreServer interface {
	Get(name string) (ret []byte, err error)
	Put(name string, data []byte) (ret uint32, err error)
}

// RegisterStore installs the Store dispatcher on s. The dispatch
// decodes the operation discriminator a machine word at a time
// (Flick's message demultiplexing).
func RegisterStore(s *rt.Server, impl StoreServer) {
	s.Register(0, 0, func(h *rt.ReqHeader, d *rt.Decoder, e *rt.Encoder) error {
		switch h.Proc {
		case 0:
			h.OpName = "get"
			a_name, argErr := UnmarshalStoreGetRequest(d)
			if argErr != nil {
				return argErr
			}
			r_ret, workErr := impl.Get(a_name)
			if workErr != nil {
				return workErr
			}
			MarshalStoreGetReply(e, r_ret)
			return nil
		case 1:
			h.OpName = "put"
			a_name, a_data, argErr := UnmarshalStorePutRequest(d)
			if argErr != nil {
				return argErr
			}
			r_ret, workErr := impl.Put(a_name, a_data)
			if workErr != nil {
				return workErr
			}
			MarshalStorePutReply(e, r_ret)
			return nil
		default:
			return rt.ErrNoSuchOp
		}
	})
}
