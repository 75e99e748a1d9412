// Code generated by flick (flick/xdr). DO NOT EDIT.

package typestubs

import (
	"encoding/binary"
	"math"

	"flick/rt"
)

// ObjectKey is an opaque object reference.
type ObjectKey = []byte

// Color presents IDL enum color.
type Color uint32

const (
	ColorRED   Color = 1
	ColorGREEN Color = 2
	ColorBLUE  Color = 4
)

// Leaf presents IDL struct leaf.
type Leaf struct {
	F    float32
	D    float64
	Flag bool
	C    Color
	S    int16
	Us   uint16
	H    int64
	Uh   uint64
}

// Shape presents IDL union shape; D selects the active arm.
type Shape struct {
	D     int32
	L     Leaf
	Label string
	Other int32
}

// Node presents IDL struct node.
type Node struct {
	S    Shape
	Next *Node
}

// ZOOReorderXDROp describes the reorder operation to the runtime.
var ZOOReorderXDROp = rt.Op{Proc: 1, Name: "reorder"}

// MarshalZOOReorderXDRRequest encodes the message payload (bounded class, xdr).
func MarshalZOOReorderXDRRequest(e *rt.Encoder, arg1 []Shape) {
	e.Grow(4)
	rt.CheckBound(len(arg1), 8)
	e.PutU32BE(uint32(len(arg1)))
	for i1 := 0; i1 < len(arg1); i1++ {
		e.Grow(51)
		e.Align(4)
		e.PutU32BE(uint32(arg1[i1].D))
		switch arg1[i1].D {
		case 1:
			b1 := e.Next(44)
			binary.BigEndian.PutUint32(b1[0:], math.Float32bits(arg1[i1].L.F))
			binary.BigEndian.PutUint64(b1[4:], math.Float64bits(arg1[i1].L.D))
			binary.BigEndian.PutUint32(b1[12:], rt.B2U32(arg1[i1].L.Flag))
			binary.BigEndian.PutUint32(b1[16:], uint32(arg1[i1].L.C))
			binary.BigEndian.PutUint32(b1[20:], uint32(arg1[i1].L.S))
			binary.BigEndian.PutUint32(b1[24:], uint32(arg1[i1].L.Us))
			binary.BigEndian.PutUint64(b1[28:], uint64(arg1[i1].L.H))
			binary.BigEndian.PutUint64(b1[36:], uint64(arg1[i1].L.Uh))
		case 2:
			rt.CheckBound(len(arg1[i1].Label), 32)
			e.PutU32BE(uint32(len(arg1[i1].Label)))
			e.PutString(arg1[i1].Label)
			e.Align(4)
		case 3:
		default:
			e.PutU32BE(uint32(arg1[i1].Other))
		}
	}
}

// UnmarshalZOOReorderXDRRequest decodes the message payload (bounded class, xdr).
func UnmarshalZOOReorderXDRRequest(d *rt.Decoder) (arg1 []Shape, err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	n2, ok3 := d.Len(rt.BE, 8, false)
	if !ok3 {
		err = d.Err()
		return
	}
	arg1 = make([]Shape, n2)
	for i1 := 0; i1 < len(arg1); i1++ {
		d.Align(4)
		if !d.Ensure(4) {
			err = d.Err()
			return
		}
		arg1[i1].D = int32(d.U32BE())
		switch arg1[i1].D {
		case 1:
			if !d.Ensure(44) {
				err = d.Err()
				return
			}
			b4 := d.Next(44)
			arg1[i1].L.F = math.Float32frombits(binary.BigEndian.Uint32(b4[0:]))
			arg1[i1].L.D = math.Float64frombits(binary.BigEndian.Uint64(b4[4:]))
			arg1[i1].L.Flag = binary.BigEndian.Uint32(b4[12:]) != 0
			arg1[i1].L.C = Color(binary.BigEndian.Uint32(b4[16:]))
			arg1[i1].L.S = int16(binary.BigEndian.Uint32(b4[20:]))
			arg1[i1].L.Us = uint16(binary.BigEndian.Uint32(b4[24:]))
			arg1[i1].L.H = int64(binary.BigEndian.Uint64(b4[28:]))
			arg1[i1].L.Uh = uint64(binary.BigEndian.Uint64(b4[36:]))
		case 2:
			if !d.Ensure(4) {
				err = d.Err()
				return
			}
			n5, ok6 := d.Len(rt.BE, 32, false)
			if !ok6 {
				err = d.Err()
				return
			}
			if !d.EnsureDyn(0, 1, n5) {
				err = d.Err()
				return
			}
			arg1[i1].Label = string(d.Next(n5))
			d.Align(4)
		case 3:
		default:
			if !d.Ensure(4) {
				err = d.Err()
				return
			}
			arg1[i1].Other = int32(d.U32BE())
		}
	}
	err = d.Err()
	return
}

// MarshalZOOReorderXDRReply encodes a successful reply (status 0).
func MarshalZOOReorderXDRReply(e *rt.Encoder, ret []Shape) {
	e.Grow(4)
	e.PutU32BE(0)
	e.Grow(4)
	rt.CheckBound(len(ret), 8)
	e.PutU32BE(uint32(len(ret)))
	for i1 := 0; i1 < len(ret); i1++ {
		e.Grow(51)
		e.Align(4)
		e.PutU32BE(uint32(ret[i1].D))
		switch ret[i1].D {
		case 1:
			b7 := e.Next(44)
			binary.BigEndian.PutUint32(b7[0:], math.Float32bits(ret[i1].L.F))
			binary.BigEndian.PutUint64(b7[4:], math.Float64bits(ret[i1].L.D))
			binary.BigEndian.PutUint32(b7[12:], rt.B2U32(ret[i1].L.Flag))
			binary.BigEndian.PutUint32(b7[16:], uint32(ret[i1].L.C))
			binary.BigEndian.PutUint32(b7[20:], uint32(ret[i1].L.S))
			binary.BigEndian.PutUint32(b7[24:], uint32(ret[i1].L.Us))
			binary.BigEndian.PutUint64(b7[28:], uint64(ret[i1].L.H))
			binary.BigEndian.PutUint64(b7[36:], uint64(ret[i1].L.Uh))
		case 2:
			rt.CheckBound(len(ret[i1].Label), 32)
			e.PutU32BE(uint32(len(ret[i1].Label)))
			e.PutString(ret[i1].Label)
			e.Align(4)
		case 3:
		default:
			e.PutU32BE(uint32(ret[i1].Other))
		}
	}
}

// UnmarshalZOOReorderXDRReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalZOOReorderXDRReply(d *rt.Decoder) (ret []Shape, err error) {
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
		n8, ok9 := d.Len(rt.BE, 8, false)
		if !ok9 {
			err = d.Err()
			return
		}
		ret = make([]Shape, n8)
		for i1 := 0; i1 < len(ret); i1++ {
			d.Align(4)
			if !d.Ensure(4) {
				err = d.Err()
				return
			}
			ret[i1].D = int32(d.U32BE())
			switch ret[i1].D {
			case 1:
				if !d.Ensure(44) {
					err = d.Err()
					return
				}
				b10 := d.Next(44)
				ret[i1].L.F = math.Float32frombits(binary.BigEndian.Uint32(b10[0:]))
				ret[i1].L.D = math.Float64frombits(binary.BigEndian.Uint64(b10[4:]))
				ret[i1].L.Flag = binary.BigEndian.Uint32(b10[12:]) != 0
				ret[i1].L.C = Color(binary.BigEndian.Uint32(b10[16:]))
				ret[i1].L.S = int16(binary.BigEndian.Uint32(b10[20:]))
				ret[i1].L.Us = uint16(binary.BigEndian.Uint32(b10[24:]))
				ret[i1].L.H = int64(binary.BigEndian.Uint64(b10[28:]))
				ret[i1].L.Uh = uint64(binary.BigEndian.Uint64(b10[36:]))
			case 2:
				if !d.Ensure(4) {
					err = d.Err()
					return
				}
				n11, ok12 := d.Len(rt.BE, 32, false)
				if !ok12 {
					err = d.Err()
					return
				}
				if !d.EnsureDyn(0, 1, n11) {
					err = d.Err()
					return
				}
				ret[i1].Label = string(d.Next(n11))
				d.Align(4)
			case 3:
			default:
				if !d.Ensure(4) {
					err = d.Err()
					return
				}
				ret[i1].Other = int32(d.U32BE())
			}
		}
		err = d.Err()
		return
	default:
		err = d.Fail(rt.ErrBadUnion)
		return
	}
}

// ZOOReverseXDROp describes the reverse operation to the runtime.
var ZOOReverseXDROp = rt.Op{Proc: 2, Name: "reverse"}

// MarshalZOOReverseXDRRequest encodes the message payload (unbounded class, xdr).
func MarshalZOOReverseXDRRequest(e *rt.Encoder, arg1 *Node) {
	e.Grow(4)
	if arg1 != nil {
		e.PutU32BE(1)
		e.Grow(55)
		e.PutU32BE(uint32((*arg1).S.D))
		switch (*arg1).S.D {
		case 1:
			b13 := e.Next(44)
			binary.BigEndian.PutUint32(b13[0:], math.Float32bits((*arg1).S.L.F))
			binary.BigEndian.PutUint64(b13[4:], math.Float64bits((*arg1).S.L.D))
			binary.BigEndian.PutUint32(b13[12:], rt.B2U32((*arg1).S.L.Flag))
			binary.BigEndian.PutUint32(b13[16:], uint32((*arg1).S.L.C))
			binary.BigEndian.PutUint32(b13[20:], uint32((*arg1).S.L.S))
			binary.BigEndian.PutUint32(b13[24:], uint32((*arg1).S.L.Us))
			binary.BigEndian.PutUint64(b13[28:], uint64((*arg1).S.L.H))
			binary.BigEndian.PutUint64(b13[36:], uint64((*arg1).S.L.Uh))
		case 2:
			rt.CheckBound(len((*arg1).S.Label), 32)
			e.PutU32BE(uint32(len((*arg1).S.Label)))
			e.PutString((*arg1).S.Label)
			e.Align(4)
		case 3:
		default:
			e.PutU32BE(uint32((*arg1).S.Other))
		}
		e.Align(4)
		if (*arg1).Next != nil {
			e.PutU32BE(1)
			xmXDRNode(e, (*arg1).Next)
		} else {
			e.PutU32BE(0)
		}
	} else {
		e.PutU32BE(0)
	}
}

// UnmarshalZOOReverseXDRRequest decodes the message payload (unbounded class, xdr).
func UnmarshalZOOReverseXDRRequest(d *rt.Decoder) (arg1 *Node, err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	if d.U32BE() != 0 {
		arg1 = new(Node)
		if !d.Ensure(4) {
			err = d.Err()
			return
		}
		(*arg1).S.D = int32(d.U32BE())
		switch (*arg1).S.D {
		case 1:
			if !d.Ensure(44) {
				err = d.Err()
				return
			}
			b15 := d.Next(44)
			(*arg1).S.L.F = math.Float32frombits(binary.BigEndian.Uint32(b15[0:]))
			(*arg1).S.L.D = math.Float64frombits(binary.BigEndian.Uint64(b15[4:]))
			(*arg1).S.L.Flag = binary.BigEndian.Uint32(b15[12:]) != 0
			(*arg1).S.L.C = Color(binary.BigEndian.Uint32(b15[16:]))
			(*arg1).S.L.S = int16(binary.BigEndian.Uint32(b15[20:]))
			(*arg1).S.L.Us = uint16(binary.BigEndian.Uint32(b15[24:]))
			(*arg1).S.L.H = int64(binary.BigEndian.Uint64(b15[28:]))
			(*arg1).S.L.Uh = uint64(binary.BigEndian.Uint64(b15[36:]))
		case 2:
			if !d.Ensure(4) {
				err = d.Err()
				return
			}
			n16, ok17 := d.Len(rt.BE, 32, false)
			if !ok17 {
				err = d.Err()
				return
			}
			if !d.EnsureDyn(0, 1, n16) {
				err = d.Err()
				return
			}
			(*arg1).S.Label = string(d.Next(n16))
			d.Align(4)
		case 3:
		default:
			if !d.Ensure(4) {
				err = d.Err()
				return
			}
			(*arg1).S.Other = int32(d.U32BE())
		}
		d.Align(4)
		if !d.Ensure(4) {
			err = d.Err()
			return
		}
		if d.U32BE() != 0 {
			(*arg1).Next = new(Node)
			if !xuXDRNode(d, (*arg1).Next) {
				err = d.Err()
				return
			}
		} else {
			(*arg1).Next = nil
		}
	} else {
		arg1 = nil
	}
	err = d.Err()
	return
}

// MarshalZOOReverseXDRReply encodes a successful reply (status 0).
func MarshalZOOReverseXDRReply(e *rt.Encoder, ret *Node) {
	e.Grow(4)
	e.PutU32BE(0)
	e.Grow(4)
	if ret != nil {
		e.PutU32BE(1)
		e.Grow(55)
		e.PutU32BE(uint32((*ret).S.D))
		switch (*ret).S.D {
		case 1:
			b21 := e.Next(44)
			binary.BigEndian.PutUint32(b21[0:], math.Float32bits((*ret).S.L.F))
			binary.BigEndian.PutUint64(b21[4:], math.Float64bits((*ret).S.L.D))
			binary.BigEndian.PutUint32(b21[12:], rt.B2U32((*ret).S.L.Flag))
			binary.BigEndian.PutUint32(b21[16:], uint32((*ret).S.L.C))
			binary.BigEndian.PutUint32(b21[20:], uint32((*ret).S.L.S))
			binary.BigEndian.PutUint32(b21[24:], uint32((*ret).S.L.Us))
			binary.BigEndian.PutUint64(b21[28:], uint64((*ret).S.L.H))
			binary.BigEndian.PutUint64(b21[36:], uint64((*ret).S.L.Uh))
		case 2:
			rt.CheckBound(len((*ret).S.Label), 32)
			e.PutU32BE(uint32(len((*ret).S.Label)))
			e.PutString((*ret).S.Label)
			e.Align(4)
		case 3:
		default:
			e.PutU32BE(uint32((*ret).S.Other))
		}
		e.Align(4)
		if (*ret).Next != nil {
			e.PutU32BE(1)
			xmXDRNode(e, (*ret).Next)
		} else {
			e.PutU32BE(0)
		}
	} else {
		e.PutU32BE(0)
	}
}

// UnmarshalZOOReverseXDRReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalZOOReverseXDRReply(d *rt.Decoder) (ret *Node, err error) {
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
		if d.U32BE() != 0 {
			ret = new(Node)
			if !d.Ensure(4) {
				err = d.Err()
				return
			}
			(*ret).S.D = int32(d.U32BE())
			switch (*ret).S.D {
			case 1:
				if !d.Ensure(44) {
					err = d.Err()
					return
				}
				b22 := d.Next(44)
				(*ret).S.L.F = math.Float32frombits(binary.BigEndian.Uint32(b22[0:]))
				(*ret).S.L.D = math.Float64frombits(binary.BigEndian.Uint64(b22[4:]))
				(*ret).S.L.Flag = binary.BigEndian.Uint32(b22[12:]) != 0
				(*ret).S.L.C = Color(binary.BigEndian.Uint32(b22[16:]))
				(*ret).S.L.S = int16(binary.BigEndian.Uint32(b22[20:]))
				(*ret).S.L.Us = uint16(binary.BigEndian.Uint32(b22[24:]))
				(*ret).S.L.H = int64(binary.BigEndian.Uint64(b22[28:]))
				(*ret).S.L.Uh = uint64(binary.BigEndian.Uint64(b22[36:]))
			case 2:
				if !d.Ensure(4) {
					err = d.Err()
					return
				}
				n23, ok24 := d.Len(rt.BE, 32, false)
				if !ok24 {
					err = d.Err()
					return
				}
				if !d.EnsureDyn(0, 1, n23) {
					err = d.Err()
					return
				}
				(*ret).S.Label = string(d.Next(n23))
				d.Align(4)
			case 3:
			default:
				if !d.Ensure(4) {
					err = d.Err()
					return
				}
				(*ret).S.Other = int32(d.U32BE())
			}
			d.Align(4)
			if !d.Ensure(4) {
				err = d.Err()
				return
			}
			if d.U32BE() != 0 {
				(*ret).Next = new(Node)
				if !xuXDRNode(d, (*ret).Next) {
					err = d.Err()
					return
				}
			} else {
				(*ret).Next = nil
			}
		} else {
			ret = nil
		}
		err = d.Err()
		return
	default:
		err = d.Fail(rt.ErrBadUnion)
		return
	}
}

// ZOOMixXDROp describes the mix operation to the runtime.
var ZOOMixXDROp = rt.Op{Proc: 3, Name: "mix", Idempotent: true}

// MarshalZOOMixXDRRequest encodes the message payload (fixed class, xdr).
func MarshalZOOMixXDRRequest(e *rt.Encoder, arg1 Color, arg2 Color) {
	e.Grow(8)
	b25 := e.Next(8)
	binary.BigEndian.PutUint32(b25[0:], uint32(arg1))
	binary.BigEndian.PutUint32(b25[4:], uint32(arg2))
}

// UnmarshalZOOMixXDRRequest decodes the message payload (fixed class, xdr).
func UnmarshalZOOMixXDRRequest(d *rt.Decoder) (arg1 Color, arg2 Color, err error) {
	if !d.Ensure(8) {
		err = d.Err()
		return
	}
	b26 := d.Next(8)
	arg1 = Color(binary.BigEndian.Uint32(b26[0:]))
	arg2 = Color(binary.BigEndian.Uint32(b26[4:]))
	err = d.Err()
	return
}

// MarshalZOOMixXDRReply encodes a successful reply (status 0).
func MarshalZOOMixXDRReply(e *rt.Encoder, ret Color) {
	e.Grow(4)
	e.PutU32BE(0)
	e.Grow(4)
	e.PutU32BE(uint32(ret))
}

// UnmarshalZOOMixXDRReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalZOOMixXDRReply(d *rt.Decoder) (ret Color, err error) {
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
		ret = Color(d.U32BE())
		err = d.Err()
		return
	default:
		err = d.Fail(rt.ErrBadUnion)
		return
	}
}

// ZOOXDRClient invokes ZOO operations over a connection.
type ZOOXDRClient struct {
	C *rt.Client
}

// NewZOOXDRClient wraps conn with the xdr message protocol.
func NewZOOXDRClient(conn rt.Conn) *ZOOXDRClient {
	c := rt.NewClient(conn, rt.ONC{})
	c.Prog = 536871424
	c.Vers = 1
	return &ZOOXDRClient{C: c}
}

// Reorder invokes the reorder operation.
func (c *ZOOXDRClient) Reorder(arg1 []Shape) (ret []Shape, err error) {
	var d *rt.Decoder
	d, err = c.C.Do(nil, &ZOOReorderXDROp, func(e *rt.Encoder) {
		MarshalZOOReorderXDRRequest(e, arg1)
	})
	if err != nil {
		return
	}
	ret, err = UnmarshalZOOReorderXDRReply(d)
	d.Release()
	return
}

// Reverse invokes the reverse operation.
func (c *ZOOXDRClient) Reverse(arg1 *Node) (ret *Node, err error) {
	var d *rt.Decoder
	d, err = c.C.Do(nil, &ZOOReverseXDROp, func(e *rt.Encoder) {
		MarshalZOOReverseXDRRequest(e, arg1)
	})
	if err != nil {
		return
	}
	ret, err = UnmarshalZOOReverseXDRReply(d)
	d.Release()
	return
}

// Mix invokes the mix operation.
func (c *ZOOXDRClient) Mix(arg1 Color, arg2 Color) (ret Color, err error) {
	var d *rt.Decoder
	d, err = c.C.Do(nil, &ZOOMixXDROp, func(e *rt.Encoder) {
		MarshalZOOMixXDRRequest(e, arg1, arg2)
	})
	if err != nil {
		return
	}
	ret, err = UnmarshalZOOMixXDRReply(d)
	d.Release()
	return
}

// ZOOXDRServer is the interface a ZOO implementation provides.
type ZOOXDRServer interface {
	Reorder(arg1 []Shape) (ret []Shape, err error)
	Reverse(arg1 *Node) (ret *Node, err error)
	Mix(arg1 Color, arg2 Color) (ret Color, err error)
}

// RegisterZOOXDR installs the ZOOXDR dispatcher on s. The dispatch
// decodes the operation discriminator a machine word at a time
// (Flick's message demultiplexing).
func RegisterZOOXDR(s *rt.Server, impl ZOOXDRServer) {
	s.Register(536871424, 1, func(h *rt.ReqHeader, d *rt.Decoder, e *rt.Encoder) error {
		switch h.Proc {
		case 1:
			h.OpName = "reorder"
			a_arg1, argErr := UnmarshalZOOReorderXDRRequest(d)
			if argErr != nil {
				return argErr
			}
			r_ret, workErr := impl.Reorder(a_arg1)
			if workErr != nil {
				return workErr
			}
			MarshalZOOReorderXDRReply(e, r_ret)
			return nil
		case 2:
			h.OpName = "reverse"
			a_arg1, argErr := UnmarshalZOOReverseXDRRequest(d)
			if argErr != nil {
				return argErr
			}
			r_ret, workErr := impl.Reverse(a_arg1)
			if workErr != nil {
				return workErr
			}
			MarshalZOOReverseXDRReply(e, r_ret)
			return nil
		case 3:
			h.OpName = "mix"
			a_arg1, a_arg2, argErr := UnmarshalZOOMixXDRRequest(d)
			if argErr != nil {
				return argErr
			}
			r_ret, workErr := impl.Mix(a_arg1, a_arg2)
			if workErr != nil {
				return workErr
			}
			MarshalZOOMixXDRReply(e, r_ret)
			return nil
		default:
			return rt.ErrNoSuchOp
		}
	})
}

func xmXDRNode(e *rt.Encoder, v *Node) {
	e.Grow(51)
	e.Align(4)
	e.PutU32BE(uint32((*v).S.D))
	switch (*v).S.D {
	case 1:
		b14 := e.Next(44)
		binary.BigEndian.PutUint32(b14[0:], math.Float32bits((*v).S.L.F))
		binary.BigEndian.PutUint64(b14[4:], math.Float64bits((*v).S.L.D))
		binary.BigEndian.PutUint32(b14[12:], rt.B2U32((*v).S.L.Flag))
		binary.BigEndian.PutUint32(b14[16:], uint32((*v).S.L.C))
		binary.BigEndian.PutUint32(b14[20:], uint32((*v).S.L.S))
		binary.BigEndian.PutUint32(b14[24:], uint32((*v).S.L.Us))
		binary.BigEndian.PutUint64(b14[28:], uint64((*v).S.L.H))
		binary.BigEndian.PutUint64(b14[36:], uint64((*v).S.L.Uh))
	case 2:
		rt.CheckBound(len((*v).S.Label), 32)
		e.PutU32BE(uint32(len((*v).S.Label)))
		e.PutString((*v).S.Label)
		e.Align(4)
	case 3:
	default:
		e.PutU32BE(uint32((*v).S.Other))
	}
	xmXDRPNode(e, &(*v).Next)
}

func xmXDRPNode(e *rt.Encoder, v **Node) {
	e.Grow(7)
	e.Align(4)
	if (*v) != nil {
		e.PutU32BE(1)
		xmXDRNode(e, (*v))
	} else {
		e.PutU32BE(0)
	}
}

func xuXDRNode(d *rt.Decoder, v *Node) bool {
	d.Align(4)
	if !d.Ensure(4) {
		return false
	}
	(*v).S.D = int32(d.U32BE())
	switch (*v).S.D {
	case 1:
		if !d.Ensure(44) {
			return false
		}
		b18 := d.Next(44)
		(*v).S.L.F = math.Float32frombits(binary.BigEndian.Uint32(b18[0:]))
		(*v).S.L.D = math.Float64frombits(binary.BigEndian.Uint64(b18[4:]))
		(*v).S.L.Flag = binary.BigEndian.Uint32(b18[12:]) != 0
		(*v).S.L.C = Color(binary.BigEndian.Uint32(b18[16:]))
		(*v).S.L.S = int16(binary.BigEndian.Uint32(b18[20:]))
		(*v).S.L.Us = uint16(binary.BigEndian.Uint32(b18[24:]))
		(*v).S.L.H = int64(binary.BigEndian.Uint64(b18[28:]))
		(*v).S.L.Uh = uint64(binary.BigEndian.Uint64(b18[36:]))
	case 2:
		if !d.Ensure(4) {
			return false
		}
		n19, ok20 := d.Len(rt.BE, 32, false)
		if !ok20 {
			return false
		}
		if !d.EnsureDyn(0, 1, n19) {
			return false
		}
		(*v).S.Label = string(d.Next(n19))
		d.Align(4)
	case 3:
	default:
		if !d.Ensure(4) {
			return false
		}
		(*v).S.Other = int32(d.U32BE())
	}
	if !xuXDRPNode(d, &(*v).Next) {
		return false
	}
	return d.Err() == nil
}

func xuXDRPNode(d *rt.Decoder, v **Node) bool {
	d.Align(4)
	if !d.Ensure(4) {
		return false
	}
	if d.U32BE() != 0 {
		(*v) = new(Node)
		if !xuXDRNode(d, (*v)) {
			return false
		}
	} else {
		(*v) = nil
	}
	return d.Err() == nil
}
