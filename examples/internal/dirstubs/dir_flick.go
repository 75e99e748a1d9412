// Code generated by flick (flick/cdr-le). DO NOT EDIT.

package dirstubs

import (
	"encoding/binary"

	"flick/rt"
)

// ObjectKey is an opaque object reference.
type ObjectKey = []byte

// DirectoryStatInfo presents IDL struct Directory::stat_info.
type DirectoryStatInfo struct {
	Size  int64
	Mode  int32
	Mtime int64
	IsDir bool
}

// DirectoryDirEntry presents IDL struct Directory::dir_entry.
type DirectoryDirEntry struct {
	Name string
	Info DirectoryStatInfo
}

// DirectoryNotFound presents IDL exception Directory::NotFound.
type DirectoryNotFound struct {
	Path string
}

// Error implements the error interface.
func (e *DirectoryNotFound) Error() string { return "Directory::NotFound" }

// DirectoryListOp describes the list operation to the runtime.
var DirectoryListOp = rt.Op{Proc: 0, Name: "list", Idempotent: true}

// MarshalDirectoryListRequest encodes the message payload (bounded class, cdr-le).
func MarshalDirectoryListRequest(e *rt.Encoder, path string) {
	e.Grow(4101)
	rt.CheckBound(len(path), 4096)
	e.PutU32LE(uint32(len(path) + 1))
	e.PutString(path)
	e.PutU8(0)
}

// UnmarshalDirectoryListRequest decodes the message payload (bounded class, cdr-le).
func UnmarshalDirectoryListRequest(d *rt.Decoder) (path string, err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	n1, ok2 := d.Len(rt.LE, 4096, true)
	if !ok2 {
		err = d.Err()
		return
	}
	if !d.EnsureDyn(0, 1, n1) {
		err = d.Err()
		return
	}
	if !d.Ensure(1) {
		err = d.Err()
		return
	}
	path = string(d.Next(n1))
	if !d.CheckConst(uint64(d.U8()), 0) {
		err = d.Err()
		return
	}
	err = d.Err()
	return
}

// MarshalDirectoryListReply encodes a successful reply (status 0).
func MarshalDirectoryListReply(e *rt.Encoder, ret []DirectoryDirEntry, total int32) {
	e.Grow(4)
	e.PutU32LE(0)
	e.Grow(4)
	e.PutU32LE(uint32(len(ret)))
	for i1 := 0; i1 < len(ret); i1++ {
		e.Grow(298)
		e.Align(4)
		rt.CheckBound(len(ret[i1].Name), 255)
		e.PutU32LE(uint32(len(ret[i1].Name) + 1))
		e.PutString(ret[i1].Name)
		e.PutU8(0)
		e.Align(8)
		b3 := e.Next(12)
		binary.LittleEndian.PutUint64(b3[0:], uint64(ret[i1].Info.Size))
		binary.LittleEndian.PutUint32(b3[8:], uint32(ret[i1].Info.Mode))
		e.Align(8)
		b4 := e.Next(9)
		binary.LittleEndian.PutUint64(b4[0:], uint64(ret[i1].Info.Mtime))
		b4[8] = rt.B2U8(ret[i1].Info.IsDir)
	}
	e.Grow(7)
	e.Align(4)
	e.PutU32LE(uint32(total))
}

// MarshalDirectoryListErrNotFound encodes an exception reply (status 1).
func MarshalDirectoryListErrNotFound(e *rt.Encoder, ex *DirectoryNotFound) {
	e.Grow(4)
	e.PutU32LE(1)
	e.Grow(4)
	e.PutU32LE(uint32(len((*ex).Path) + 1))
	e.GrowDyn(0, 1, len((*ex).Path))
	e.Grow(1)
	e.PutString((*ex).Path)
	e.PutU8(0)
}

// UnmarshalDirectoryListReply decodes a reply: results on status 0, a declared
// exception (returned as err) otherwise.
func UnmarshalDirectoryListReply(d *rt.Decoder) (ret []DirectoryDirEntry, total int32, err error) {
	if !d.Ensure(4) {
		err = d.Err()
		return
	}
	st := d.U32LE()
	switch st {
	case 0:
		if !d.Ensure(4) {
			err = d.Err()
			return
		}
		n5, ok6 := d.Len(rt.LE, 0, false)
		if !ok6 {
			err = d.Err()
			return
		}
		ret = make([]DirectoryDirEntry, n5)
		for i1 := 0; i1 < len(ret); i1++ {
			d.Align(4)
			if !d.Ensure(4) {
				err = d.Err()
				return
			}
			n7, ok8 := d.Len(rt.LE, 255, true)
			if !ok8 {
				err = d.Err()
				return
			}
			if !d.EnsureDyn(0, 1, n7) {
				err = d.Err()
				return
			}
			if !d.Ensure(1) {
				err = d.Err()
				return
			}
			ret[i1].Name = string(d.Next(n7))
			if !d.CheckConst(uint64(d.U8()), 0) {
				err = d.Err()
				return
			}
			d.Align(8)
			if !d.Ensure(12) {
				err = d.Err()
				return
			}
			b9 := d.Next(12)
			ret[i1].Info.Size = int64(binary.LittleEndian.Uint64(b9[0:]))
			ret[i1].Info.Mode = int32(binary.LittleEndian.Uint32(b9[8:]))
			d.Align(8)
			if !d.Ensure(9) {
				err = d.Err()
				return
			}
			b10 := d.Next(9)
			ret[i1].Info.Mtime = int64(binary.LittleEndian.Uint64(b10[0:]))
			ret[i1].Info.IsDir = b10[8] != 0
		}
		d.Align(4)
		if !d.Ensure(4) {
			err = d.Err()
			return
		}
		total = int32(d.U32LE())
		err = d.Err()
		return
	case 1:
		ex := new(DirectoryNotFound)
		if !d.Ensure(4) {
			err = d.Err()
			return
		}
		n11, ok12 := d.Len(rt.LE, 0, true)
		if !ok12 {
			err = d.Err()
			return
		}
		if !d.EnsureDyn(0, 1, n11) {
			err = d.Err()
			return
		}
		if !d.Ensure(1) {
			err = d.Err()
			return
		}
		(*ex).Path = string(d.Next(n11))
		if !d.CheckConst(uint64(d.U8()), 0) {
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

// DirectoryClient invokes Directory operations over a connection.
type DirectoryClient struct {
	C *rt.Client
}

// NewDirectoryClient wraps conn with the cdr-le message protocol.
func NewDirectoryClient(conn rt.Conn) *DirectoryClient {
	c := rt.NewClient(conn, rt.GIOP{Little: true})
	c.Prog = 0
	c.Vers = 0
	return &DirectoryClient{C: c}
}

// List invokes the list operation.
func (c *DirectoryClient) List(path string) (ret []DirectoryDirEntry, total int32, err error) {
	var d *rt.Decoder
	d, err = c.C.Do(nil, &DirectoryListOp, func(e *rt.Encoder) {
		MarshalDirectoryListRequest(e, path)
	})
	if err != nil {
		return
	}
	ret, total, err = UnmarshalDirectoryListReply(d)
	d.Release()
	return
}

// DirectoryServer is the interface a Directory implementation provides.
type DirectoryServer interface {
	List(path string) (ret []DirectoryDirEntry, total int32, err error)
}

// RegisterDirectory installs the Directory dispatcher on s. The dispatch
// decodes the operation discriminator a machine word at a time
// (Flick's message demultiplexing).
func RegisterDirectory(s *rt.Server, impl DirectoryServer) {
	s.Register(0, 0, func(h *rt.ReqHeader, d *rt.Decoder, e *rt.Encoder) error {
		op := h.OpName
		switch len(op) {
		case 4:
			switch rt.Word4(op, 0) {
			case 0x6c697374: // "list"
				a_path, argErr := UnmarshalDirectoryListRequest(d)
				if argErr != nil {
					return argErr
				}
				r_ret, r_total, workErr := impl.List(a_path)
				if workErr != nil {
					if ex, ok := workErr.(*DirectoryNotFound); ok {
						MarshalDirectoryListErrNotFound(e, ex)
						return nil
					}
					return workErr
				}
				MarshalDirectoryListReply(e, r_ret, r_total)
				return nil
			}
		}
		return rt.ErrNoSuchOp
	})
}
