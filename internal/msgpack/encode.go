// Package msgpack implements the MessagePack binary serialization format
// (https://msgpack.org). The paper's prototype uses rpclib, which marshals
// RPC requests and replies with MessagePack; this package provides the
// same wire format for the Go reproduction, covering every core type:
// nil, booleans, integers, floats, strings, binary, arrays, maps, and
// extension values.
package msgpack

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Format byte constants from the MessagePack specification.
const (
	fmtNil      = 0xc0
	fmtFalse    = 0xc2
	fmtTrue     = 0xc3
	fmtBin8     = 0xc4
	fmtBin16    = 0xc5
	fmtBin32    = 0xc6
	fmtExt8     = 0xc7
	fmtExt16    = 0xc8
	fmtExt32    = 0xc9
	fmtFloat32  = 0xca
	fmtFloat64  = 0xcb
	fmtUint8    = 0xcc
	fmtUint16   = 0xcd
	fmtUint32   = 0xce
	fmtUint64   = 0xcf
	fmtInt8     = 0xd0
	fmtInt16    = 0xd1
	fmtInt32    = 0xd2
	fmtInt64    = 0xd3
	fmtFixext1  = 0xd4
	fmtFixext2  = 0xd5
	fmtFixext4  = 0xd6
	fmtFixext8  = 0xd7
	fmtFixext16 = 0xd8
	fmtStr8     = 0xd9
	fmtStr16    = 0xda
	fmtStr32    = 0xdb
	fmtArray16  = 0xdc
	fmtArray32  = 0xdd
	fmtMap16    = 0xde
	fmtMap32    = 0xdf
)

// Ext is a MessagePack extension value: an application-defined type tag
// paired with opaque bytes.
type Ext struct {
	Type int8
	Data []byte
}

// refMin is the body size from which PutBytes keeps a bin by reference
// instead of appending it: a reply's bulk bytes then reach the socket
// from where they already live (AppendPieces), and below it the copy
// costs less than a piece of its own.
const refMin = 64 << 10

// Encoder appends MessagePack-encoded values to an internal buffer.
// Bin bodies of at least 64 KiB are kept by reference, not copied: the
// caller must leave such a slice unmodified until the encoded bytes have
// been read (Bytes) or written (AppendPieces). The zero value is ready
// to use.
type Encoder struct {
	buf      []byte
	refs     []binRef // bodies kept by reference, in encoding order
	refBytes int      // their total length
}

// binRef is a bin body PutBytes kept by reference: on the wire it
// follows buf[:at], the body's own header included.
type binRef struct {
	at   int
	body []byte
}

// NewEncoder returns an encoder whose buffer has the given initial
// capacity.
func NewEncoder(capacity int) *Encoder {
	return &Encoder{buf: make([]byte, 0, capacity)}
}

// Bytes returns the encoded message as one contiguous slice, joining any
// referenced bodies into the encoder's buffer first. The slice aliases
// the encoder's internal storage and is valid until the next Put call.
func (e *Encoder) Bytes() []byte {
	if len(e.refs) == 0 {
		return e.buf
	}
	out := make([]byte, 0, e.Len())
	at := 0
	for _, r := range e.refs {
		out = append(append(out, e.buf[at:r.at]...), r.body...)
		at = r.at
	}
	e.buf = append(out, e.buf[at:]...)
	e.dropRefs()
	return e.buf
}

// AppendPieces appends the encoded message to dst as consecutive pieces
// without joining them: each referenced body is a piece of its own, and
// the inline bytes around them are the rest. Concatenated, the pieces are
// Bytes(); written in order (net.Buffers), they put the message on a
// connection with no copy of its bulk. They are valid until the next Put
// or Reset.
func (e *Encoder) AppendPieces(dst [][]byte) [][]byte {
	at := 0
	for _, r := range e.refs {
		dst = append(dst, e.buf[at:r.at], r.body)
		at = r.at
	}
	if at < len(e.buf) || len(e.refs) == 0 {
		dst = append(dst, e.buf[at:])
	}
	return dst
}

// Len returns the number of encoded bytes so far, referenced bodies
// included.
func (e *Encoder) Len() int { return len(e.buf) + e.refBytes }

// Reset discards the buffer contents and the references, retaining
// capacity.
func (e *Encoder) Reset() {
	e.buf = e.buf[:0]
	e.dropRefs()
}

// dropRefs forgets the referenced bodies, so the encoder holds none of
// the caller's memory.
func (e *Encoder) dropRefs() {
	clear(e.refs)
	e.refs, e.refBytes = e.refs[:0], 0
}

// PutNil encodes nil.
func (e *Encoder) PutNil() { e.buf = append(e.buf, fmtNil) }

// PutBool encodes a boolean.
func (e *Encoder) PutBool(v bool) {
	if v {
		e.buf = append(e.buf, fmtTrue)
	} else {
		e.buf = append(e.buf, fmtFalse)
	}
}

// PutInt encodes a signed integer using the smallest representation.
func (e *Encoder) PutInt(v int64) {
	switch {
	case v >= 0:
		e.PutUint(uint64(v))
	case v >= -32:
		e.buf = append(e.buf, byte(v)) // negative fixint
	case v >= math.MinInt8:
		e.buf = append(e.buf, fmtInt8, byte(v))
	case v >= math.MinInt16:
		e.buf = append(e.buf, fmtInt16)
		e.buf = binary.BigEndian.AppendUint16(e.buf, uint16(v))
	case v >= math.MinInt32:
		e.buf = append(e.buf, fmtInt32)
		e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(v))
	default:
		e.buf = append(e.buf, fmtInt64)
		e.buf = binary.BigEndian.AppendUint64(e.buf, uint64(v))
	}
}

// PutUint encodes an unsigned integer using the smallest representation.
func (e *Encoder) PutUint(v uint64) {
	switch {
	case v <= 0x7f:
		e.buf = append(e.buf, byte(v)) // positive fixint
	case v <= math.MaxUint8:
		e.buf = append(e.buf, fmtUint8, byte(v))
	case v <= math.MaxUint16:
		e.buf = append(e.buf, fmtUint16)
		e.buf = binary.BigEndian.AppendUint16(e.buf, uint16(v))
	case v <= math.MaxUint32:
		e.buf = append(e.buf, fmtUint32)
		e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(v))
	default:
		e.buf = append(e.buf, fmtUint64)
		e.buf = binary.BigEndian.AppendUint64(e.buf, v)
	}
}

// PutFloat32 encodes a 32-bit float.
func (e *Encoder) PutFloat32(v float32) {
	e.buf = append(e.buf, fmtFloat32)
	e.buf = binary.BigEndian.AppendUint32(e.buf, math.Float32bits(v))
}

// PutFloat64 encodes a 64-bit float.
func (e *Encoder) PutFloat64(v float64) {
	e.buf = append(e.buf, fmtFloat64)
	e.buf = binary.BigEndian.AppendUint64(e.buf, math.Float64bits(v))
}

// PutString encodes a UTF-8 string.
func (e *Encoder) PutString(s string) {
	n := len(s)
	switch {
	case n <= 31:
		e.buf = append(e.buf, 0xa0|byte(n))
	case n <= math.MaxUint8:
		e.buf = append(e.buf, fmtStr8, byte(n))
	case n <= math.MaxUint16:
		e.buf = append(e.buf, fmtStr16)
		e.buf = binary.BigEndian.AppendUint16(e.buf, uint16(n))
	default:
		e.buf = append(e.buf, fmtStr32)
		e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(n))
	}
	e.buf = append(e.buf, s...)
}

// PutBytes encodes a binary blob. A blob of at least 64 KiB is kept by
// reference (see Encoder).
func (e *Encoder) PutBytes(b []byte) {
	n := len(b)
	switch {
	case n <= math.MaxUint8:
		e.buf = append(e.buf, fmtBin8, byte(n))
	case n <= math.MaxUint16:
		e.buf = append(e.buf, fmtBin16)
		e.buf = binary.BigEndian.AppendUint16(e.buf, uint16(n))
	default:
		e.buf = append(e.buf, fmtBin32)
		e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(n))
	}
	if n >= refMin {
		e.refs = append(e.refs, binRef{at: len(e.buf), body: b})
		e.refBytes += n
		return
	}
	e.buf = append(e.buf, b...)
}

// PutArrayLen encodes an array header; the caller then encodes n elements.
func (e *Encoder) PutArrayLen(n int) {
	switch {
	case n <= 15:
		e.buf = append(e.buf, 0x90|byte(n))
	case n <= math.MaxUint16:
		e.buf = append(e.buf, fmtArray16)
		e.buf = binary.BigEndian.AppendUint16(e.buf, uint16(n))
	default:
		e.buf = append(e.buf, fmtArray32)
		e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(n))
	}
}

// PutMapLen encodes a map header; the caller then encodes n key/value pairs.
func (e *Encoder) PutMapLen(n int) {
	switch {
	case n <= 15:
		e.buf = append(e.buf, 0x80|byte(n))
	case n <= math.MaxUint16:
		e.buf = append(e.buf, fmtMap16)
		e.buf = binary.BigEndian.AppendUint16(e.buf, uint16(n))
	default:
		e.buf = append(e.buf, fmtMap32)
		e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(n))
	}
}

// PutExt encodes an extension value.
func (e *Encoder) PutExt(x Ext) {
	n := len(x.Data)
	switch n {
	case 1:
		e.buf = append(e.buf, fmtFixext1)
	case 2:
		e.buf = append(e.buf, fmtFixext2)
	case 4:
		e.buf = append(e.buf, fmtFixext4)
	case 8:
		e.buf = append(e.buf, fmtFixext8)
	case 16:
		e.buf = append(e.buf, fmtFixext16)
	default:
		switch {
		case n <= math.MaxUint8:
			e.buf = append(e.buf, fmtExt8, byte(n))
		case n <= math.MaxUint16:
			e.buf = append(e.buf, fmtExt16)
			e.buf = binary.BigEndian.AppendUint16(e.buf, uint16(n))
		default:
			e.buf = append(e.buf, fmtExt32)
			e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(n))
		}
	}
	e.buf = append(e.buf, byte(x.Type))
	e.buf = append(e.buf, x.Data...)
}

// PutAny encodes a dynamically typed value. Supported types: nil, bool,
// all Go integer types, float32/float64, string, []byte, Ext, []any, and
// map[string]any. Other types return an error.
func (e *Encoder) PutAny(v any) error {
	switch x := v.(type) {
	case nil:
		e.PutNil()
	case bool:
		e.PutBool(x)
	case int:
		e.PutInt(int64(x))
	case int8:
		e.PutInt(int64(x))
	case int16:
		e.PutInt(int64(x))
	case int32:
		e.PutInt(int64(x))
	case int64:
		e.PutInt(x)
	case uint:
		e.PutUint(uint64(x))
	case uint8:
		e.PutUint(uint64(x))
	case uint16:
		e.PutUint(uint64(x))
	case uint32:
		e.PutUint(uint64(x))
	case uint64:
		e.PutUint(x)
	case float32:
		e.PutFloat32(x)
	case float64:
		e.PutFloat64(x)
	case string:
		e.PutString(x)
	case []byte:
		e.PutBytes(x)
	case Ext:
		e.PutExt(x)
	case []any:
		e.PutArrayLen(len(x))
		for _, el := range x {
			if err := e.PutAny(el); err != nil {
				return err
			}
		}
	case map[string]any:
		e.PutMapLen(len(x))
		for k, el := range x {
			e.PutString(k)
			if err := e.PutAny(el); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("msgpack: unsupported type %T", v)
	}
	return nil
}

// Marshal encodes v into a fresh buffer using PutAny.
func Marshal(v any) ([]byte, error) {
	e := NewEncoder(64)
	if err := e.PutAny(v); err != nil {
		return nil, err
	}
	return e.Bytes(), nil
}
