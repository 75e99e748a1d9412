// Code generated by flick (flick/xdr). DO NOT EDIT.

package calcstubs

import (
	"encoding/binary"

	"flick/rt"
)

// ObjectKey is an opaque object reference.
type ObjectKey = []byte

// Pair presents IDL struct pair.
type Pair struct {
	A int32
	B int32
}

// CALCAddOp describes the add operation to the runtime.
var CALCAddOp = rt.Op{Proc: 1, Name: "add", Idempotent: true}

// MarshalCALCAddRequest encodes the message payload (fixed class, xdr).
func MarshalCALCAddRequest(e *rt.Encoder, arg1 *Pair) {
	e.Grow(8)
	b1 := e.Next(8)
	binary.BigEndian.PutUint32(b1[0:], uint32((*arg1).A))
	binary.BigEndian.PutUint32(b1[4:], uint32((*arg1).B))
}

// UnmarshalCALCAddRequest decodes the message payload (fixed class, xdr).
func UnmarshalCALCAddRequest(d *rt.Decoder) (arg1 Pair, err error) {
	if !d.Ensure(8) {
		err = d.Err()
		return
	}
	b2 := d.Next(8)
	arg1.A = int32(binary.BigEndian.Uint32(b2[0:]))
	arg1.B = int32(binary.BigEndian.Uint32(b2[4:]))
	err = d.Err()
	return
}

// MarshalCALCAddReply encodes a successful reply (status 0).
func MarshalCALCAddReply(e *rt.Encoder, ret int32) {
	e.Grow(4)
	e.PutU32BE(0)
	e.Grow(4)
	e.PutU32BE(uint32(ret))
}

// UnmarshalCALCAddReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalCALCAddReply(d *rt.Decoder) (ret int32, err error) {
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
		ret = int32(d.U32BE())
		err = d.Err()
		return
	default:
		err = d.Fail(rt.ErrBadUnion)
		return
	}
}

// CALCMulOp describes the mul operation to the runtime.
var CALCMulOp = rt.Op{Proc: 2, Name: "mul", Idempotent: true}

// MarshalCALCMulRequest encodes the message payload (fixed class, xdr).
func MarshalCALCMulRequest(e *rt.Encoder, arg1 *Pair) {
	e.Grow(8)
	b3 := e.Next(8)
	binary.BigEndian.PutUint32(b3[0:], uint32((*arg1).A))
	binary.BigEndian.PutUint32(b3[4:], uint32((*arg1).B))
}

// UnmarshalCALCMulRequest decodes the message payload (fixed class, xdr).
func UnmarshalCALCMulRequest(d *rt.Decoder) (arg1 Pair, err error) {
	if !d.Ensure(8) {
		err = d.Err()
		return
	}
	b4 := d.Next(8)
	arg1.A = int32(binary.BigEndian.Uint32(b4[0:]))
	arg1.B = int32(binary.BigEndian.Uint32(b4[4:]))
	err = d.Err()
	return
}

// MarshalCALCMulReply encodes a successful reply (status 0).
func MarshalCALCMulReply(e *rt.Encoder, ret int32) {
	e.Grow(4)
	e.PutU32BE(0)
	e.Grow(4)
	e.PutU32BE(uint32(ret))
}

// UnmarshalCALCMulReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalCALCMulReply(d *rt.Decoder) (ret int32, err error) {
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
		ret = int32(d.U32BE())
		err = d.Err()
		return
	default:
		err = d.Fail(rt.ErrBadUnion)
		return
	}
}

// CALCClient invokes CALC operations over a connection.
type CALCClient struct {
	C *rt.Client
}

// NewCALCClient wraps conn with the xdr message protocol.
func NewCALCClient(conn rt.Conn) *CALCClient {
	c := rt.NewClient(conn, rt.ONC{})
	c.Prog = 536870978
	c.Vers = 1
	return &CALCClient{C: c}
}

// Add invokes the add operation.
func (c *CALCClient) Add(arg1 Pair) (ret int32, err error) {
	var d *rt.Decoder
	d, err = c.C.Do(nil, &CALCAddOp, func(e *rt.Encoder) {
		MarshalCALCAddRequest(e, &arg1)
	})
	if err != nil {
		return
	}
	ret, err = UnmarshalCALCAddReply(d)
	d.Release()
	return
}

// Mul invokes the mul operation.
func (c *CALCClient) Mul(arg1 Pair) (ret int32, err error) {
	var d *rt.Decoder
	d, err = c.C.Do(nil, &CALCMulOp, func(e *rt.Encoder) {
		MarshalCALCMulRequest(e, &arg1)
	})
	if err != nil {
		return
	}
	ret, err = UnmarshalCALCMulReply(d)
	d.Release()
	return
}

// CALCServer is the interface a CALC implementation provides.
type CALCServer interface {
	Add(arg1 Pair) (ret int32, err error)
	Mul(arg1 Pair) (ret int32, err error)
}

// RegisterCALC installs the CALC dispatcher on s. The dispatch
// decodes the operation discriminator a machine word at a time
// (Flick's message demultiplexing).
func RegisterCALC(s *rt.Server, impl CALCServer) {
	s.Register(536870978, 1, func(h *rt.ReqHeader, d *rt.Decoder, e *rt.Encoder) error {
		switch h.Proc {
		case 1:
			h.OpName = "add"
			a_arg1, argErr := UnmarshalCALCAddRequest(d)
			if argErr != nil {
				return argErr
			}
			r_ret, workErr := impl.Add(a_arg1)
			if workErr != nil {
				return workErr
			}
			MarshalCALCAddReply(e, r_ret)
			return nil
		case 2:
			h.OpName = "mul"
			a_arg1, argErr := UnmarshalCALCMulRequest(d)
			if argErr != nil {
				return argErr
			}
			r_ret, workErr := impl.Mul(a_arg1)
			if workErr != nil {
				return workErr
			}
			MarshalCALCMulReply(e, r_ret)
			return nil
		default:
			return rt.ErrNoSuchOp
		}
	})
}
