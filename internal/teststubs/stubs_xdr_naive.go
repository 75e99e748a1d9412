// Code generated by flick (rpcgen/xdr). DO NOT EDIT.

package teststubs

import (
	"flick/rt"
)

// BenchSendIntsXDRNaiveOp describes the send_ints operation to the runtime.
var BenchSendIntsXDRNaiveOp = rt.Op{Proc: 0, Name: "send_ints"}

// MarshalBenchSendIntsXDRNaiveRequest encodes the message payload (unbounded class, xdr).
func MarshalBenchSendIntsXDRNaiveRequest(e *rt.Encoder, v []int32) {
	rt.NPutU32BE(e, uint32(len(v)))
	for i1 := 0; i1 < len(v); i1++ {
		rt.NPutU32BE(e, uint32(v[i1]))
	}
}

// UnmarshalBenchSendIntsXDRNaiveRequest decodes the message payload (unbounded class, xdr).
func UnmarshalBenchSendIntsXDRNaiveRequest(d *rt.Decoder) (v []int32, err error) {
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
		v[i1] = int32(rt.NGetU32BE(d))
	}
	err = d.Err()
	return
}

// MarshalBenchSendIntsXDRNaiveReply encodes a successful reply (status 0).
func MarshalBenchSendIntsXDRNaiveReply(e *rt.Encoder) {
	e.PutU32BEC(0)
}

// UnmarshalBenchSendIntsXDRNaiveReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBenchSendIntsXDRNaiveReply(d *rt.Decoder) (err error) {
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

// BenchSendRectsXDRNaiveOp describes the send_rects operation to the runtime.
var BenchSendRectsXDRNaiveOp = rt.Op{Proc: 1, Name: "send_rects"}

// MarshalBenchSendRectsXDRNaiveRequest encodes the message payload (unbounded class, xdr).
func MarshalBenchSendRectsXDRNaiveRequest(e *rt.Encoder, v []BenchRect) {
	xmXDRNaive_BenchRect(e, &v)
}

// UnmarshalBenchSendRectsXDRNaiveRequest decodes the message payload (unbounded class, xdr).
func UnmarshalBenchSendRectsXDRNaiveRequest(d *rt.Decoder) (v []BenchRect, err error) {
	if !xuXDRNaive_BenchRect(d, &v) {
		err = d.Err()
		return
	}
	err = d.Err()
	return
}

// MarshalBenchSendRectsXDRNaiveReply encodes a successful reply (status 0).
func MarshalBenchSendRectsXDRNaiveReply(e *rt.Encoder) {
	e.PutU32BEC(0)
}

// UnmarshalBenchSendRectsXDRNaiveReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBenchSendRectsXDRNaiveReply(d *rt.Decoder) (err error) {
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

// BenchSendDirsXDRNaiveOp describes the send_dirs operation to the runtime.
var BenchSendDirsXDRNaiveOp = rt.Op{Proc: 2, Name: "send_dirs"}

// MarshalBenchSendDirsXDRNaiveRequest encodes the message payload (unbounded class, xdr).
func MarshalBenchSendDirsXDRNaiveRequest(e *rt.Encoder, v []BenchDirEntry) {
	xmXDRNaive_BenchDirEntry(e, &v)
}

// UnmarshalBenchSendDirsXDRNaiveRequest decodes the message payload (unbounded class, xdr).
func UnmarshalBenchSendDirsXDRNaiveRequest(d *rt.Decoder) (v []BenchDirEntry, err error) {
	if !xuXDRNaive_BenchDirEntry(d, &v) {
		err = d.Err()
		return
	}
	err = d.Err()
	return
}

// MarshalBenchSendDirsXDRNaiveReply encodes a successful reply (status 0).
func MarshalBenchSendDirsXDRNaiveReply(e *rt.Encoder) {
	e.PutU32BEC(0)
}

// UnmarshalBenchSendDirsXDRNaiveReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBenchSendDirsXDRNaiveReply(d *rt.Decoder) (err error) {
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

// BenchSumXDRNaiveOp describes the sum operation to the runtime.
var BenchSumXDRNaiveOp = rt.Op{Proc: 3, Name: "sum", Idempotent: true}

// MarshalBenchSumXDRNaiveRequest encodes the message payload (unbounded class, xdr).
func MarshalBenchSumXDRNaiveRequest(e *rt.Encoder, v []int32) {
	rt.NPutU32BE(e, uint32(len(v)))
	for i1 := 0; i1 < len(v); i1++ {
		rt.NPutU32BE(e, uint32(v[i1]))
	}
}

// UnmarshalBenchSumXDRNaiveRequest decodes the message payload (unbounded class, xdr).
func UnmarshalBenchSumXDRNaiveRequest(d *rt.Decoder) (v []int32, err error) {
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
		v[i1] = int32(rt.NGetU32BE(d))
	}
	err = d.Err()
	return
}

// MarshalBenchSumXDRNaiveReply encodes a successful reply (status 0).
func MarshalBenchSumXDRNaiveReply(e *rt.Encoder, ret int32) {
	e.PutU32BEC(0)
	rt.NPutU32BE(e, uint32(ret))
}

// MarshalBenchSumXDRNaiveErrBadSize encodes an exception reply (status 1).
func MarshalBenchSumXDRNaiveErrBadSize(e *rt.Encoder, ex *BenchBadSize) {
	e.PutU32BEC(1)
	xmXDRNaiveBenchBadSize(e, &(*ex))
}

// UnmarshalBenchSumXDRNaiveReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBenchSumXDRNaiveReply(d *rt.Decoder) (ret int32, err error) {
	st := d.U32BEC()
	switch st {
	case 0:
		ret = int32(rt.NGetU32BE(d))
		err = d.Err()
		return
	case 1:
		ex := new(BenchBadSize)
		if !xuXDRNaiveBenchBadSize(d, &(*ex)) {
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

// BenchListDirXDRNaiveOp describes the list_dir operation to the runtime.
var BenchListDirXDRNaiveOp = rt.Op{Proc: 4, Name: "list_dir", Idempotent: true}

// MarshalBenchListDirXDRNaiveRequest encodes the message payload (bounded class, xdr).
func MarshalBenchListDirXDRNaiveRequest(e *rt.Encoder, path string) {
	rt.CheckBound(len(path), 255)
	rt.NPutU32BE(e, uint32(len(path)))
	for i1 := 0; i1 < len(path); i1++ {
		rt.NPutU8(e, byte(path[i1]))
	}
	e.Align(4)
}

// UnmarshalBenchListDirXDRNaiveRequest decodes the message payload (bounded class, xdr).
func UnmarshalBenchListDirXDRNaiveRequest(d *rt.Decoder) (path string, err error) {
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
		b14[i1] = byte(rt.NGetU8(d))
	}
	path = string(b14)
	d.Align(4)
	err = d.Err()
	return
}

// MarshalBenchListDirXDRNaiveReply encodes a successful reply (status 0).
func MarshalBenchListDirXDRNaiveReply(e *rt.Encoder, ret []BenchDirEntry, total int32) {
	e.PutU32BEC(0)
	xmXDRNaive_BenchDirEntry(e, &ret)
	e.Align(4)
	rt.NPutU32BE(e, uint32(total))
}

// UnmarshalBenchListDirXDRNaiveReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalBenchListDirXDRNaiveReply(d *rt.Decoder) (ret []BenchDirEntry, total int32, err error) {
	st := d.U32BEC()
	switch st {
	case 0:
		if !xuXDRNaive_BenchDirEntry(d, &ret) {
			err = d.Err()
			return
		}
		d.Align(4)
		total = int32(rt.NGetU32BE(d))
		err = d.Err()
		return
	default:
		err = d.Fail(rt.ErrBadUnion)
		return
	}
}

// BenchPingXDRNaiveOp describes the ping operation to the runtime.
var BenchPingXDRNaiveOp = rt.Op{Proc: 5, Name: "ping", Oneway: true}

// MarshalBenchPingXDRNaiveRequest encodes the message payload (fixed class, xdr).
func MarshalBenchPingXDRNaiveRequest(e *rt.Encoder, nonce int32) {
	rt.NPutU32BE(e, uint32(nonce))
}

// UnmarshalBenchPingXDRNaiveRequest decodes the message payload (fixed class, xdr).
func UnmarshalBenchPingXDRNaiveRequest(d *rt.Decoder) (nonce int32, err error) {
	nonce = int32(rt.NGetU32BE(d))
	err = d.Err()
	return
}

// BenchXDRNaiveClient invokes Bench operations over a connection.
type BenchXDRNaiveClient struct {
	C *rt.Client
}

// NewBenchXDRNaiveClient wraps conn with the xdr message protocol.
func NewBenchXDRNaiveClient(conn rt.Conn) *BenchXDRNaiveClient {
	c := rt.NewClient(conn, rt.ONC{})
	c.Prog = 0
	c.Vers = 0
	return &BenchXDRNaiveClient{C: c}
}

// SendInts invokes the send_ints operation.
func (c *BenchXDRNaiveClient) SendInts(v []int32) (err error) {
	var d *rt.Decoder
	d, err = c.C.Do(nil, &BenchSendIntsXDRNaiveOp, func(e *rt.Encoder) {
		MarshalBenchSendIntsXDRNaiveRequest(e, v)
	})
	if err != nil {
		return
	}
	err = UnmarshalBenchSendIntsXDRNaiveReply(d)
	d.Release()
	return
}

// SendRects invokes the send_rects operation.
func (c *BenchXDRNaiveClient) SendRects(v []BenchRect) (err error) {
	var d *rt.Decoder
	d, err = c.C.Do(nil, &BenchSendRectsXDRNaiveOp, func(e *rt.Encoder) {
		MarshalBenchSendRectsXDRNaiveRequest(e, v)
	})
	if err != nil {
		return
	}
	err = UnmarshalBenchSendRectsXDRNaiveReply(d)
	d.Release()
	return
}

// SendDirs invokes the send_dirs operation.
func (c *BenchXDRNaiveClient) SendDirs(v []BenchDirEntry) (err error) {
	var d *rt.Decoder
	d, err = c.C.Do(nil, &BenchSendDirsXDRNaiveOp, func(e *rt.Encoder) {
		MarshalBenchSendDirsXDRNaiveRequest(e, v)
	})
	if err != nil {
		return
	}
	err = UnmarshalBenchSendDirsXDRNaiveReply(d)
	d.Release()
	return
}

// Sum invokes the sum operation.
func (c *BenchXDRNaiveClient) Sum(v []int32) (ret int32, err error) {
	var d *rt.Decoder
	d, err = c.C.Do(nil, &BenchSumXDRNaiveOp, func(e *rt.Encoder) {
		MarshalBenchSumXDRNaiveRequest(e, v)
	})
	if err != nil {
		return
	}
	ret, err = UnmarshalBenchSumXDRNaiveReply(d)
	d.Release()
	return
}

// ListDir invokes the list_dir operation.
func (c *BenchXDRNaiveClient) ListDir(path string) (ret []BenchDirEntry, total int32, err error) {
	var d *rt.Decoder
	d, err = c.C.Do(nil, &BenchListDirXDRNaiveOp, func(e *rt.Encoder) {
		MarshalBenchListDirXDRNaiveRequest(e, path)
	})
	if err != nil {
		return
	}
	ret, total, err = UnmarshalBenchListDirXDRNaiveReply(d)
	d.Release()
	return
}

// Ping invokes the ping operation.
func (c *BenchXDRNaiveClient) Ping(nonce int32) (err error) {
	_, err = c.C.Do(nil, &BenchPingXDRNaiveOp, func(e *rt.Encoder) {
		MarshalBenchPingXDRNaiveRequest(e, nonce)
	})
	if err != nil {
		return
	}
	return
}

// BenchXDRNaiveServer is the interface a Bench implementation provides.
type BenchXDRNaiveServer interface {
	SendInts(v []int32) (err error)
	SendRects(v []BenchRect) (err error)
	SendDirs(v []BenchDirEntry) (err error)
	Sum(v []int32) (ret int32, err error)
	ListDir(path string) (ret []BenchDirEntry, total int32, err error)
	Ping(nonce int32) (err error)
}

// RegisterBenchXDRNaive installs the BenchXDRNaive dispatcher on s. The dispatch
// decodes the operation discriminator a machine word at a time
// (Flick's message demultiplexing).
func RegisterBenchXDRNaive(s *rt.Server, impl BenchXDRNaiveServer) {
	s.Register(0, 0, func(h *rt.ReqHeader, d *rt.Decoder, e *rt.Encoder) error {
		switch h.Proc {
		case 0:
			h.OpName = "send_ints"
			a_v, argErr := UnmarshalBenchSendIntsXDRNaiveRequest(d)
			if argErr != nil {
				return argErr
			}
			workErr := impl.SendInts(a_v)
			if workErr != nil {
				return workErr
			}
			MarshalBenchSendIntsXDRNaiveReply(e)
			return nil
		case 1:
			h.OpName = "send_rects"
			a_v, argErr := UnmarshalBenchSendRectsXDRNaiveRequest(d)
			if argErr != nil {
				return argErr
			}
			workErr := impl.SendRects(a_v)
			if workErr != nil {
				return workErr
			}
			MarshalBenchSendRectsXDRNaiveReply(e)
			return nil
		case 2:
			h.OpName = "send_dirs"
			a_v, argErr := UnmarshalBenchSendDirsXDRNaiveRequest(d)
			if argErr != nil {
				return argErr
			}
			workErr := impl.SendDirs(a_v)
			if workErr != nil {
				return workErr
			}
			MarshalBenchSendDirsXDRNaiveReply(e)
			return nil
		case 3:
			h.OpName = "sum"
			a_v, argErr := UnmarshalBenchSumXDRNaiveRequest(d)
			if argErr != nil {
				return argErr
			}
			r_ret, workErr := impl.Sum(a_v)
			if workErr != nil {
				if ex, ok := workErr.(*BenchBadSize); ok {
					MarshalBenchSumXDRNaiveErrBadSize(e, ex)
					return nil
				}
				return workErr
			}
			MarshalBenchSumXDRNaiveReply(e, r_ret)
			return nil
		case 4:
			h.OpName = "list_dir"
			a_path, argErr := UnmarshalBenchListDirXDRNaiveRequest(d)
			if argErr != nil {
				return argErr
			}
			r_ret, r_total, workErr := impl.ListDir(a_path)
			if workErr != nil {
				return workErr
			}
			MarshalBenchListDirXDRNaiveReply(e, r_ret, r_total)
			return nil
		case 5:
			h.OpName = "ping"
			h.OneWay = true
			a_nonce, argErr := UnmarshalBenchPingXDRNaiveRequest(d)
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

func xmXDRNaive_BenchRect(e *rt.Encoder, v *[]BenchRect) {
	e.Align(4)
	rt.NPutU32BE(e, uint32(len((*v))))
	for i1 := 0; i1 < len((*v)); i1++ {
		xmXDRNaiveBenchRect(e, &(*v)[i1])
	}
}

func xmXDRNaiveBenchRect(e *rt.Encoder, v *BenchRect) {
	xmXDRNaiveBenchPoint(e, &(*v).Min)
	xmXDRNaiveBenchPoint(e, &(*v).Max)
}

func xmXDRNaiveBenchPoint(e *rt.Encoder, v *BenchPoint) {
	e.Align(4)
	rt.NPutU32BE(e, uint32((*v).X))
	rt.NPutU32BE(e, uint32((*v).Y))
}

func xuXDRNaive_BenchRect(d *rt.Decoder, v *[]BenchRect) bool {
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
		if !xuXDRNaiveBenchRect(d, &(*v)[i1]) {
			return false
		}
	}
	return d.Err() == nil
}

func xuXDRNaiveBenchRect(d *rt.Decoder, v *BenchRect) bool {
	if !xuXDRNaiveBenchPoint(d, &(*v).Min) {
		return false
	}
	if !xuXDRNaiveBenchPoint(d, &(*v).Max) {
		return false
	}
	return d.Err() == nil
}

func xuXDRNaiveBenchPoint(d *rt.Decoder, v *BenchPoint) bool {
	d.Align(4)
	(*v).X = int32(rt.NGetU32BE(d))
	(*v).Y = int32(rt.NGetU32BE(d))
	return d.Err() == nil
}

func xmXDRNaive_BenchDirEntry(e *rt.Encoder, v *[]BenchDirEntry) {
	e.Align(4)
	rt.NPutU32BE(e, uint32(len((*v))))
	for i1 := 0; i1 < len((*v)); i1++ {
		xmXDRNaiveBenchDirEntry(e, &(*v)[i1])
	}
}

func xmXDRNaiveBenchDirEntry(e *rt.Encoder, v *BenchDirEntry) {
	e.Align(4)
	rt.CheckBound(len((*v).Name), 255)
	rt.NPutU32BE(e, uint32(len((*v).Name)))
	for i2 := 0; i2 < len((*v).Name); i2++ {
		rt.NPutU8(e, byte((*v).Name[i2]))
	}
	e.Align(4)
	xmXDRNaiveBenchStatInfo(e, &(*v).Info)
}

func xmXDRNaiveBenchStatInfo(e *rt.Encoder, v *BenchStatInfo) {
	e.Align(4)
	for i3 := 0; i3 < len((*v).Fields); i3++ {
		rt.NPutU32BE(e, uint32((*v).Fields[i3]))
	}
	for i4 := 0; i4 < len((*v).Tag); i4++ {
		rt.NPutU8(e, byte((*v).Tag[i4]))
	}
	e.Align(4)
}

func xuXDRNaive_BenchDirEntry(d *rt.Decoder, v *[]BenchDirEntry) bool {
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
		if !xuXDRNaiveBenchDirEntry(d, &(*v)[i1]) {
			return false
		}
	}
	return d.Err() == nil
}

func xuXDRNaiveBenchDirEntry(d *rt.Decoder, v *BenchDirEntry) bool {
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
		b9[i2] = byte(rt.NGetU8(d))
	}
	(*v).Name = string(b9)
	d.Align(4)
	if !xuXDRNaiveBenchStatInfo(d, &(*v).Info) {
		return false
	}
	return d.Err() == nil
}

func xuXDRNaiveBenchStatInfo(d *rt.Decoder, v *BenchStatInfo) bool {
	d.Align(4)
	for i3 := 0; i3 < len((*v).Fields); i3++ {
		(*v).Fields[i3] = int32(rt.NGetU32BE(d))
	}
	for i4 := 0; i4 < len((*v).Tag); i4++ {
		(*v).Tag[i4] = byte(rt.NGetU8(d))
	}
	d.Align(4)
	return d.Err() == nil
}

func xmXDRNaiveBenchBadSize(e *rt.Encoder, v *BenchBadSize) {
	e.Align(4)
	rt.NPutU32BE(e, uint32((*v).Wanted))
}

func xuXDRNaiveBenchBadSize(d *rt.Decoder, v *BenchBadSize) bool {
	d.Align(4)
	(*v).Wanted = int32(rt.NGetU32BE(d))
	return d.Err() == nil
}
