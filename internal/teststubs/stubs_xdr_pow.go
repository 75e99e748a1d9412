// Code generated by flick (powerrpc/xdr). DO NOT EDIT.

package teststubs

import (
	"flick/rt"
)

// BenchSendIntsXDRPowOp describes the send_ints operation to the runtime.
var BenchSendIntsXDRPowOp = rt.Op{Proc: 0, Name: "send_ints"}

// MarshalBenchSendIntsXDRPowRequest encodes the message payload (unbounded class, xdr).
func MarshalBenchSendIntsXDRPowRequest(e *rt.Encoder, v []int32) {
	rt.Vtbl.P32BE(e, uint32(len(v)))
	for i1 := 0; i1 < len(v); i1++ {
		rt.Vtbl.P32BE(e, uint32(v[i1]))
	}
}

// UnmarshalBenchSendIntsXDRPowRequest decodes the message payload (unbounded class, xdr).
func UnmarshalBenchSendIntsXDRPowRequest(d *rt.Decoder) (v []int32, err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	n1, ok2 := d.Len(rt.BE, 0, false)
	if !ok2 {
		err = d.Err()
		return
	}
	v = make([]int32, n1)
	for i1 := 0; i1 < len(v); i1++ {
		v[i1] = int32(rt.Vtbl.G32BE(d))
	}
	err = d.Err()
	return
}

// MarshalBenchSendIntsXDRPowReply encodes a successful reply (status 0).
func MarshalBenchSendIntsXDRPowReply(e *rt.Encoder) {
	e.PutU32BEC(0)
}

// UnmarshalBenchSendIntsXDRPowReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBenchSendIntsXDRPowReply(d *rt.Decoder) (err error) {
	st := d.U32BEC()
	switch st {
	case 0:
		err = d.Err()
		return
	default:
		err = d.Fail(rt.ErrBadUnion)
		return
	}
}

// BenchSendRectsXDRPowOp describes the send_rects operation to the runtime.
var BenchSendRectsXDRPowOp = rt.Op{Proc: 1, Name: "send_rects"}

// MarshalBenchSendRectsXDRPowRequest encodes the message payload (unbounded class, xdr).
func MarshalBenchSendRectsXDRPowRequest(e *rt.Encoder, v []BenchRect) {
	xmXDRPow_BenchRect(e, &v)
}

// UnmarshalBenchSendRectsXDRPowRequest decodes the message payload (unbounded class, xdr).
func UnmarshalBenchSendRectsXDRPowRequest(d *rt.Decoder) (v []BenchRect, err error) {
	if !xuXDRPow_BenchRect(d, &v) {
		err = d.Err()
		return
	}
	err = d.Err()
	return
}

// MarshalBenchSendRectsXDRPowReply encodes a successful reply (status 0).
func MarshalBenchSendRectsXDRPowReply(e *rt.Encoder) {
	e.PutU32BEC(0)
}

// UnmarshalBenchSendRectsXDRPowReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBenchSendRectsXDRPowReply(d *rt.Decoder) (err error) {
	st := d.U32BEC()
	switch st {
	case 0:
		err = d.Err()
		return
	default:
		err = d.Fail(rt.ErrBadUnion)
		return
	}
}

// BenchSendDirsXDRPowOp describes the send_dirs operation to the runtime.
var BenchSendDirsXDRPowOp = rt.Op{Proc: 2, Name: "send_dirs"}

// MarshalBenchSendDirsXDRPowRequest encodes the message payload (unbounded class, xdr).
func MarshalBenchSendDirsXDRPowRequest(e *rt.Encoder, v []BenchDirEntry) {
	xmXDRPow_BenchDirEntry(e, &v)
}

// UnmarshalBenchSendDirsXDRPowRequest decodes the message payload (unbounded class, xdr).
func UnmarshalBenchSendDirsXDRPowRequest(d *rt.Decoder) (v []BenchDirEntry, err error) {
	if !xuXDRPow_BenchDirEntry(d, &v) {
		err = d.Err()
		return
	}
	err = d.Err()
	return
}

// MarshalBenchSendDirsXDRPowReply encodes a successful reply (status 0).
func MarshalBenchSendDirsXDRPowReply(e *rt.Encoder) {
	e.PutU32BEC(0)
}

// UnmarshalBenchSendDirsXDRPowReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBenchSendDirsXDRPowReply(d *rt.Decoder) (err error) {
	st := d.U32BEC()
	switch st {
	case 0:
		err = d.Err()
		return
	default:
		err = d.Fail(rt.ErrBadUnion)
		return
	}
}

// BenchSumXDRPowOp describes the sum operation to the runtime.
var BenchSumXDRPowOp = rt.Op{Proc: 3, Name: "sum", Idempotent: true}

// MarshalBenchSumXDRPowRequest encodes the message payload (unbounded class, xdr).
func MarshalBenchSumXDRPowRequest(e *rt.Encoder, v []int32) {
	rt.Vtbl.P32BE(e, uint32(len(v)))
	for i1 := 0; i1 < len(v); i1++ {
		rt.Vtbl.P32BE(e, uint32(v[i1]))
	}
}

// UnmarshalBenchSumXDRPowRequest decodes the message payload (unbounded class, xdr).
func UnmarshalBenchSumXDRPowRequest(d *rt.Decoder) (v []int32, err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	n10, ok11 := d.Len(rt.BE, 0, false)
	if !ok11 {
		err = d.Err()
		return
	}
	v = make([]int32, n10)
	for i1 := 0; i1 < len(v); i1++ {
		v[i1] = int32(rt.Vtbl.G32BE(d))
	}
	err = d.Err()
	return
}

// MarshalBenchSumXDRPowReply encodes a successful reply (status 0).
func MarshalBenchSumXDRPowReply(e *rt.Encoder, ret int32) {
	e.PutU32BEC(0)
	rt.Vtbl.P32BE(e, uint32(ret))
}

// MarshalBenchSumXDRPowErrBadSize encodes an exception reply (status 1).
func MarshalBenchSumXDRPowErrBadSize(e *rt.Encoder, ex *BenchBadSize) {
	e.PutU32BEC(1)
	xmXDRPowBenchBadSize(e, &(*ex))
}

// UnmarshalBenchSumXDRPowReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBenchSumXDRPowReply(d *rt.Decoder) (ret int32, err error) {
	st := d.U32BEC()
	switch st {
	case 0:
		ret = int32(rt.Vtbl.G32BE(d))
		err = d.Err()
		return
	case 1:
		ex := new(BenchBadSize)
		if !xuXDRPowBenchBadSize(d, &(*ex)) {
			err = d.Err()
			return
		}
		if d.Err() != nil {
			err = d.Err()
			return
		}
		err = ex
		return
	default:
		err = d.Fail(rt.ErrBadUnion)
		return
	}
}

// BenchListDirXDRPowOp describes the list_dir operation to the runtime.
var BenchListDirXDRPowOp = rt.Op{Proc: 4, Name: "list_dir", Idempotent: true}

// MarshalBenchListDirXDRPowRequest encodes the message payload (bounded class, xdr).
func MarshalBenchListDirXDRPowRequest(e *rt.Encoder, path string) {
	rt.CheckBound(len(path), 255)
	rt.Vtbl.P32BE(e, uint32(len(path)))
	for i1 := 0; i1 < len(path); i1++ {
		rt.Vtbl.P8(e, byte(path[i1]))
	}
	e.Align(4)
}

// UnmarshalBenchListDirXDRPowRequest decodes the message payload (bounded class, xdr).
func UnmarshalBenchListDirXDRPowRequest(d *rt.Decoder) (path string, err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	n12, ok13 := d.Len(rt.BE, 255, false)
	if !ok13 {
		err = d.Err()
		return
	}
	b14 := make([]byte, n12)
	for i1 := range b14 {
		b14[i1] = byte(rt.Vtbl.G8(d))
	}
	path = string(b14)
	d.Align(4)
	err = d.Err()
	return
}

// MarshalBenchListDirXDRPowReply encodes a successful reply (status 0).
func MarshalBenchListDirXDRPowReply(e *rt.Encoder, ret []BenchDirEntry, total int32) {
	e.PutU32BEC(0)
	xmXDRPow_BenchDirEntry(e, &ret)
	e.Align(4)
	rt.Vtbl.P32BE(e, uint32(total))
}

// UnmarshalBenchListDirXDRPowReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBenchListDirXDRPowReply(d *rt.Decoder) (ret []BenchDirEntry, total int32, err error) {
	st := d.U32BEC()
	switch st {
	case 0:
		if !xuXDRPow_BenchDirEntry(d, &ret) {
			err = d.Err()
			return
		}
		d.Align(4)
		total = int32(rt.Vtbl.G32BE(d))
		err = d.Err()
		return
	default:
		err = d.Fail(rt.ErrBadUnion)
		return
	}
}

// BenchPingXDRPowOp describes the ping operation to the runtime.
var BenchPingXDRPowOp = rt.Op{Proc: 5, Name: "ping", Oneway: true}

// MarshalBenchPingXDRPowRequest encodes the message payload (fixed class, xdr).
func MarshalBenchPingXDRPowRequest(e *rt.Encoder, nonce int32) {
	rt.Vtbl.P32BE(e, uint32(nonce))
}

// UnmarshalBenchPingXDRPowRequest decodes the message payload (fixed class, xdr).
func UnmarshalBenchPingXDRPowRequest(d *rt.Decoder) (nonce int32, err error) {
	nonce = int32(rt.Vtbl.G32BE(d))
	err = d.Err()
	return
}

// BenchXDRPowClient invokes Bench operations over a connection.
type BenchXDRPowClient struct {
	C *rt.Client
}

// NewBenchXDRPowClient wraps conn with the xdr message protocol.
func NewBenchXDRPowClient(conn rt.Conn) *BenchXDRPowClient {
	c := rt.NewClient(conn, rt.ONC{})
	c.Prog = 0
	c.Vers = 0
	return &BenchXDRPowClient{C: c}
}

// SendInts invokes the send_ints operation.
func (c *BenchXDRPowClient) SendInts(v []int32) (err error) {
	var d *rt.Decoder
	d, err = c.C.Do(nil, &BenchSendIntsXDRPowOp, func(e *rt.Encoder) {
		MarshalBenchSendIntsXDRPowRequest(e, v)
	})
	if err != nil {
		return
	}
	err = UnmarshalBenchSendIntsXDRPowReply(d)
	d.Release()
	return
}

// SendRects invokes the send_rects operation.
func (c *BenchXDRPowClient) SendRects(v []BenchRect) (err error) {
	var d *rt.Decoder
	d, err = c.C.Do(nil, &BenchSendRectsXDRPowOp, func(e *rt.Encoder) {
		MarshalBenchSendRectsXDRPowRequest(e, v)
	})
	if err != nil {
		return
	}
	err = UnmarshalBenchSendRectsXDRPowReply(d)
	d.Release()
	return
}

// SendDirs invokes the send_dirs operation.
func (c *BenchXDRPowClient) SendDirs(v []BenchDirEntry) (err error) {
	var d *rt.Decoder
	d, err = c.C.Do(nil, &BenchSendDirsXDRPowOp, func(e *rt.Encoder) {
		MarshalBenchSendDirsXDRPowRequest(e, v)
	})
	if err != nil {
		return
	}
	err = UnmarshalBenchSendDirsXDRPowReply(d)
	d.Release()
	return
}

// Sum invokes the sum operation.
func (c *BenchXDRPowClient) Sum(v []int32) (ret int32, err error) {
	var d *rt.Decoder
	d, err = c.C.Do(nil, &BenchSumXDRPowOp, func(e *rt.Encoder) {
		MarshalBenchSumXDRPowRequest(e, v)
	})
	if err != nil {
		return
	}
	ret, err = UnmarshalBenchSumXDRPowReply(d)
	d.Release()
	return
}

// ListDir invokes the list_dir operation.
func (c *BenchXDRPowClient) ListDir(path string) (ret []BenchDirEntry, total int32, err error) {
	var d *rt.Decoder
	d, err = c.C.Do(nil, &BenchListDirXDRPowOp, func(e *rt.Encoder) {
		MarshalBenchListDirXDRPowRequest(e, path)
	})
	if err != nil {
		return
	}
	ret, total, err = UnmarshalBenchListDirXDRPowReply(d)
	d.Release()
	return
}

// Ping invokes the ping operation.
func (c *BenchXDRPowClient) Ping(nonce int32) (err error) {
	_, err = c.C.Do(nil, &BenchPingXDRPowOp, func(e *rt.Encoder) {
		MarshalBenchPingXDRPowRequest(e, nonce)
	})
	if err != nil {
		return
	}
	return
}

// BenchXDRPowServer is the interface a Bench implementation provides.
type BenchXDRPowServer interface {
	SendInts(v []int32) (err error)
	SendRects(v []BenchRect) (err error)
	SendDirs(v []BenchDirEntry) (err error)
	Sum(v []int32) (ret int32, err error)
	ListDir(path string) (ret []BenchDirEntry, total int32, err error)
	Ping(nonce int32) (err error)
}

// RegisterBenchXDRPow installs the BenchXDRPow dispatcher on s. The dispatch
// decodes the operation discriminator a machine word at a time
// (Flick's message demultiplexing).
func RegisterBenchXDRPow(s *rt.Server, impl BenchXDRPowServer) {
	s.Register(0, 0, func(h *rt.ReqHeader, d *rt.Decoder, e *rt.Encoder) error {
		switch h.Proc {
		case 0:
			h.OpName = "send_ints"
			a_v, argErr := UnmarshalBenchSendIntsXDRPowRequest(d)
			if argErr != nil {
				return argErr
			}
			workErr := impl.SendInts(a_v)
			if workErr != nil {
				return workErr
			}
			MarshalBenchSendIntsXDRPowReply(e)
			return nil
		case 1:
			h.OpName = "send_rects"
			a_v, argErr := UnmarshalBenchSendRectsXDRPowRequest(d)
			if argErr != nil {
				return argErr
			}
			workErr := impl.SendRects(a_v)
			if workErr != nil {
				return workErr
			}
			MarshalBenchSendRectsXDRPowReply(e)
			return nil
		case 2:
			h.OpName = "send_dirs"
			a_v, argErr := UnmarshalBenchSendDirsXDRPowRequest(d)
			if argErr != nil {
				return argErr
			}
			workErr := impl.SendDirs(a_v)
			if workErr != nil {
				return workErr
			}
			MarshalBenchSendDirsXDRPowReply(e)
			return nil
		case 3:
			h.OpName = "sum"
			a_v, argErr := UnmarshalBenchSumXDRPowRequest(d)
			if argErr != nil {
				return argErr
			}
			r_ret, workErr := impl.Sum(a_v)
			if workErr != nil {
				if ex, ok := workErr.(*BenchBadSize); ok {
					MarshalBenchSumXDRPowErrBadSize(e, ex)
					return nil
				}
				return workErr
			}
			MarshalBenchSumXDRPowReply(e, r_ret)
			return nil
		case 4:
			h.OpName = "list_dir"
			a_path, argErr := UnmarshalBenchListDirXDRPowRequest(d)
			if argErr != nil {
				return argErr
			}
			r_ret, r_total, workErr := impl.ListDir(a_path)
			if workErr != nil {
				return workErr
			}
			MarshalBenchListDirXDRPowReply(e, r_ret, r_total)
			return nil
		case 5:
			h.OpName = "ping"
			h.OneWay = true
			a_nonce, argErr := UnmarshalBenchPingXDRPowRequest(d)
			if argErr != nil {
				return argErr
			}
			workErr := impl.Ping(a_nonce)
			if workErr != nil {
				return workErr
			}
			return nil
		default:
			return rt.ErrNoSuchOp
		}
	})
}

func xmXDRPow_BenchRect(e *rt.Encoder, v *[]BenchRect) {
	e.Align(4)
	rt.Vtbl.P32BE(e, uint32(len((*v))))
	for i1 := 0; i1 < len((*v)); i1++ {
		xmXDRPowBenchRect(e, &(*v)[i1])
	}
}

func xmXDRPowBenchRect(e *rt.Encoder, v *BenchRect) {
	xmXDRPowBenchPoint(e, &(*v).Min)
	xmXDRPowBenchPoint(e, &(*v).Max)
}

func xmXDRPowBenchPoint(e *rt.Encoder, v *BenchPoint) {
	e.Align(4)
	rt.Vtbl.P32BE(e, uint32((*v).X))
	rt.Vtbl.P32BE(e, uint32((*v).Y))
}

func xuXDRPow_BenchRect(d *rt.Decoder, v *[]BenchRect) bool {
	d.Align(4)
	if !d.Ensure(4) {
		return false
	}
	n3, ok4 := d.Len(rt.BE, 0, false)
	if !ok4 {
		return false
	}
	(*v) = make([]BenchRect, n3)
	for i1 := 0; i1 < len((*v)); i1++ {
		if !xuXDRPowBenchRect(d, &(*v)[i1]) {
			return false
		}
	}
	return d.Err() == nil
}

func xuXDRPowBenchRect(d *rt.Decoder, v *BenchRect) bool {
	if !xuXDRPowBenchPoint(d, &(*v).Min) {
		return false
	}
	if !xuXDRPowBenchPoint(d, &(*v).Max) {
		return false
	}
	return d.Err() == nil
}

func xuXDRPowBenchPoint(d *rt.Decoder, v *BenchPoint) bool {
	d.Align(4)
	(*v).X = int32(rt.Vtbl.G32BE(d))
	(*v).Y = int32(rt.Vtbl.G32BE(d))
	return d.Err() == nil
}

func xmXDRPow_BenchDirEntry(e *rt.Encoder, v *[]BenchDirEntry) {
	e.Align(4)
	rt.Vtbl.P32BE(e, uint32(len((*v))))
	for i1 := 0; i1 < len((*v)); i1++ {
		xmXDRPowBenchDirEntry(e, &(*v)[i1])
	}
}

func xmXDRPowBenchDirEntry(e *rt.Encoder, v *BenchDirEntry) {
	e.Align(4)
	rt.CheckBound(len((*v).Name), 255)
	rt.Vtbl.P32BE(e, uint32(len((*v).Name)))
	for i2 := 0; i2 < len((*v).Name); i2++ {
		rt.Vtbl.P8(e, byte((*v).Name[i2]))
	}
	e.Align(4)
	xmXDRPowBenchStatInfo(e, &(*v).Info)
}

func xmXDRPowBenchStatInfo(e *rt.Encoder, v *BenchStatInfo) {
	e.Align(4)
	for i3 := 0; i3 < len((*v).Fields); i3++ {
		rt.Vtbl.P32BE(e, uint32((*v).Fields[i3]))
	}
	for i4 := 0; i4 < len((*v).Tag); i4++ {
		rt.Vtbl.P8(e, byte((*v).Tag[i4]))
	}
	e.Align(4)
}

func xuXDRPow_BenchDirEntry(d *rt.Decoder, v *[]BenchDirEntry) bool {
	d.Align(4)
	if !d.Ensure(4) {
		return false
	}
	n5, ok6 := d.Len(rt.BE, 0, false)
	if !ok6 {
		return false
	}
	(*v) = make([]BenchDirEntry, n5)
	for i1 := 0; i1 < len((*v)); i1++ {
		if !xuXDRPowBenchDirEntry(d, &(*v)[i1]) {
			return false
		}
	}
	return d.Err() == nil
}

func xuXDRPowBenchDirEntry(d *rt.Decoder, v *BenchDirEntry) bool {
	d.Align(4)
	if !d.Ensure(4) {
		return false
	}
	n7, ok8 := d.Len(rt.BE, 255, false)
	if !ok8 {
		return false
	}
	b9 := make([]byte, n7)
	for i2 := range b9 {
		b9[i2] = byte(rt.Vtbl.G8(d))
	}
	(*v).Name = string(b9)
	d.Align(4)
	if !xuXDRPowBenchStatInfo(d, &(*v).Info) {
		return false
	}
	return d.Err() == nil
}

func xuXDRPowBenchStatInfo(d *rt.Decoder, v *BenchStatInfo) bool {
	d.Align(4)
	for i3 := 0; i3 < len((*v).Fields); i3++ {
		(*v).Fields[i3] = int32(rt.Vtbl.G32BE(d))
	}
	for i4 := 0; i4 < len((*v).Tag); i4++ {
		(*v).Tag[i4] = byte(rt.Vtbl.G8(d))
	}
	d.Align(4)
	return d.Err() == nil
}

func xmXDRPowBenchBadSize(e *rt.Encoder, v *BenchBadSize) {
	e.Align(4)
	rt.Vtbl.P32BE(e, uint32((*v).Wanted))
}

func xuXDRPowBenchBadSize(d *rt.Decoder, v *BenchBadSize) bool {
	d.Align(4)
	(*v).Wanted = int32(rt.Vtbl.G32BE(d))
	return d.Err() == nil
}
