// Code generated by flick (flick/xdr). DO NOT EDIT.

package mailstubs

import (
	"flick/rt"
)

// ObjectKey is an opaque object reference.
type ObjectKey = []byte

// MailRejected presents IDL exception Mail::Rejected.
type MailRejected struct {
	Reason string
}

// Error implements the error interface.
func (e *MailRejected) Error() string { return "Mail::Rejected" }

// MailSendOp describes the send operation to the runtime.
var MailSendOp = rt.Op{Proc: 0, Name: "send"}

// MarshalMailSendRequest encodes the message payload (unbounded class, xdr).
func MarshalMailSendRequest(e *rt.Encoder, msg string) {
	e.Grow(4)
	e.PutU32BE(uint32(len(msg)))
	e.GrowDyn(0, 1, len(msg))
	e.Grow(3)
	e.PutString(msg)
	e.Align(4)
}

// UnmarshalMailSendRequest decodes the message payload (unbounded class, xdr).
func UnmarshalMailSendRequest(d *rt.Decoder) (msg string, err error) {
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
	msg = string(d.Next(n1))
	d.Align(4)
	err = d.Err()
	return
}

// MarshalMailSendReply encodes a successful reply (status 0).
func MarshalMailSendReply(e *rt.Encoder) {
	e.Grow(4)
	e.PutU32BE(0)
}

// UnmarshalMailSendReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalMailSendReply(d *rt.Decoder) (err error) {
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

// MailUnreadOp describes the unread operation to the runtime.
var MailUnreadOp = rt.Op{Proc: 1, Name: "unread", Idempotent: true}

// MarshalMailUnreadRequest encodes the message payload (fixed class, xdr).
func MarshalMailUnreadRequest(e *rt.Encoder) {
}

// UnmarshalMailUnreadRequest decodes the message payload (fixed class, xdr).
func UnmarshalMailUnreadRequest(d *rt.Decoder) (err error) {
	err = d.Err()
	return
}

// MarshalMailUnreadReply encodes a successful reply (status 0).
func MarshalMailUnreadReply(e *rt.Encoder, ret int32) {
	e.Grow(4)
	e.PutU32BE(0)
	e.Grow(4)
	e.PutU32BE(uint32(ret))
}

// UnmarshalMailUnreadReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalMailUnreadReply(d *rt.Decoder) (ret int32, err error) {
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

// MailFetchOp describes the fetch operation to the runtime.
var MailFetchOp = rt.Op{Proc: 2, Name: "fetch", Idempotent: true}

// MarshalMailFetchRequest encodes the message payload (fixed class, xdr).
func MarshalMailFetchRequest(e *rt.Encoder, idx int32) {
	e.Grow(4)
	e.PutU32BE(uint32(idx))
}

// UnmarshalMailFetchRequest decodes the message payload (fixed class, xdr).
func UnmarshalMailFetchRequest(d *rt.Decoder) (idx int32, err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	idx = int32(d.U32BE())
	err = d.Err()
	return
}

// MarshalMailFetchReply encodes a successful reply (status 0).
func MarshalMailFetchReply(e *rt.Encoder, ret string) {
	e.Grow(4)
	e.PutU32BE(0)
	e.Grow(4)
	e.PutU32BE(uint32(len(ret)))
	e.GrowDyn(0, 1, len(ret))
	e.Grow(3)
	e.PutString(ret)
	e.Align(4)
}

// MarshalMailFetchErrRejected encodes an exception reply (status 1).
func MarshalMailFetchErrRejected(e *rt.Encoder, ex *MailRejected) {
	e.Grow(4)
	e.PutU32BE(1)
	e.Grow(4)
	e.PutU32BE(uint32(len((*ex).Reason)))
	e.GrowDyn(0, 1, len((*ex).Reason))
	e.Grow(3)
	e.PutString((*ex).Reason)
	e.Align(4)
}

// UnmarshalMailFetchReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalMailFetchReply(d *rt.Decoder) (ret string, err error) {
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
		ret = string(d.Next(n3))
		d.Align(4)
		err = d.Err()
		return
	case 1:
		ex := new(MailRejected)
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
		(*ex).Reason = string(d.Next(n5))
		d.Align(4)
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

// MailFlushOp describes the flush operation to the runtime.
var MailFlushOp = rt.Op{Proc: 3, Name: "flush", Oneway: true}

// MarshalMailFlushRequest encodes the message payload (fixed class, xdr).
func MarshalMailFlushRequest(e *rt.Encoder) {
}

// UnmarshalMailFlushRequest decodes the message payload (fixed class, xdr).
func UnmarshalMailFlushRequest(d *rt.Decoder) (err error) {
	err = d.Err()
	return
}

// MailClient invokes Mail operations over a connection.
type MailClient struct {
	C *rt.Client
}

// NewMailClient wraps conn with the xdr message protocol.
func NewMailClient(conn rt.Conn) *MailClient {
	c := rt.NewClient(conn, rt.ONC{})
	c.Prog = 0
	c.Vers = 0
	return &MailClient{C: c}
}

// Send invokes the send operation.
func (c *MailClient) Send(msg string) (err error) {
	var d *rt.Decoder
	d, err = c.C.Do(nil, &MailSendOp, func(e *rt.Encoder) {
		MarshalMailSendRequest(e, msg)
	})
	if err != nil {
		return
	}
	err = UnmarshalMailSendReply(d)
	d.Release()
	return
}

// Unread invokes the unread operation.
func (c *MailClient) Unread() (ret int32, err error) {
	var d *rt.Decoder
	d, err = c.C.Do(nil, &MailUnreadOp, func(e *rt.Encoder) {
		MarshalMailUnreadRequest(e)
	})
	if err != nil {
		return
	}
	ret, err = UnmarshalMailUnreadReply(d)
	d.Release()
	return
}

// Fetch invokes the fetch operation.
func (c *MailClient) Fetch(idx int32) (ret string, err error) {
	var d *rt.Decoder
	d, err = c.C.Do(nil, &MailFetchOp, func(e *rt.Encoder) {
		MarshalMailFetchRequest(e, idx)
	})
	if err != nil {
		return
	}
	ret, err = UnmarshalMailFetchReply(d)
	d.Release()
	return
}

// Flush invokes the flush operation.
func (c *MailClient) Flush() (err error) {
	_, err = c.C.Do(nil, &MailFlushOp, func(e *rt.Encoder) {
		MarshalMailFlushRequest(e)
	})
	if err != nil {
		return
	}
	return
}

// MailServer is the interface a Mail implementation provides.
type MailServer interface {
	Send(msg string) (err error)
	Unread() (ret int32, err error)
	Fetch(idx int32) (ret string, err error)
	Flush() (err error)
}

// RegisterMail installs the Mail dispatcher on s. The dispatch
// decodes the operation discriminator a machine word at a time
// (Flick's message demultiplexing).
func RegisterMail(s *rt.Server, impl MailServer) {
	s.Register(0, 0, func(h *rt.ReqHeader, d *rt.Decoder, e *rt.Encoder) error {
		switch h.Proc {
		case 0:
			h.OpName = "send"
			a_msg, argErr := UnmarshalMailSendRequest(d)
			if argErr != nil {
				return argErr
			}
			workErr := impl.Send(a_msg)
			if workErr != nil {
				return workErr
			}
			MarshalMailSendReply(e)
			return nil
		case 1:
			h.OpName = "unread"
			argErr := UnmarshalMailUnreadRequest(d)
			if argErr != nil {
				return argErr
			}
			r_ret, workErr := impl.Unread()
			if workErr != nil {
				return workErr
			}
			MarshalMailUnreadReply(e, r_ret)
			return nil
		case 2:
			h.OpName = "fetch"
			a_idx, argErr := UnmarshalMailFetchRequest(d)
			if argErr != nil {
				return argErr
			}
			r_ret, workErr := impl.Fetch(a_idx)
			if workErr != nil {
				if ex, ok := workErr.(*MailRejected); ok {
					MarshalMailFetchErrRejected(e, ex)
					return nil
				}
				return workErr
			}
			MarshalMailFetchReply(e, r_ret)
			return nil
		case 3:
			h.OpName = "flush"
			h.OneWay = true
			argErr := UnmarshalMailFlushRequest(d)
			if argErr != nil {
				return argErr
			}
			workErr := impl.Flush()
			if workErr != nil {
				return workErr
			}
			return nil
		default:
			return rt.ErrNoSuchOp
		}
	})
}
