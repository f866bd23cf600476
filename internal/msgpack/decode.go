package msgpack

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrTruncated is returned when the input ends inside a value.
var ErrTruncated = errors.New("msgpack: truncated input")

// ErrTypeMismatch is returned by typed reads when the next value has a
// different MessagePack type.
var ErrTypeMismatch = errors.New("msgpack: type mismatch")

// Decoder reads MessagePack values from a byte slice.
type Decoder struct {
	buf []byte
	pos int
}

// NewDecoder returns a decoder over buf. The decoder does not copy buf;
// byte-slice results alias it.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.pos }

func (d *Decoder) need(n int) error {
	// n < 0 guards the 32-bit-int platforms where a str32/bin32/ext32
	// length near 2^32 wraps negative after the int conversion; without
	// it the slice expression in take would fault instead of erroring.
	if n < 0 || d.Remaining() < n {
		return ErrTruncated
	}
	return nil
}

func (d *Decoder) peek() (byte, error) {
	if err := d.need(1); err != nil {
		return 0, err
	}
	return d.buf[d.pos], nil
}

func (d *Decoder) take(n int) ([]byte, error) {
	if err := d.need(n); err != nil {
		return nil, err
	}
	b := d.buf[d.pos : d.pos+n]
	d.pos += n
	return b, nil
}

func (d *Decoder) takeU16() (uint16, error) {
	b, err := d.take(2)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint16(b), nil
}

func (d *Decoder) takeU32() (uint32, error) {
	b, err := d.take(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

func (d *Decoder) takeU64() (uint64, error) {
	b, err := d.take(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b), nil
}

// ReadNil consumes a nil value.
func (d *Decoder) ReadNil() error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	if c != fmtNil {
		return fmt.Errorf("%w: want nil, got 0x%02x", ErrTypeMismatch, c)
	}
	d.pos++
	return nil
}

// IsNil reports whether the next value is nil without consuming it.
func (d *Decoder) IsNil() bool {
	c, err := d.peek()
	return err == nil && c == fmtNil
}

// ReadBool consumes a boolean.
func (d *Decoder) ReadBool() (bool, error) {
	c, err := d.peek()
	if err != nil {
		return false, err
	}
	switch c {
	case fmtTrue:
		d.pos++
		return true, nil
	case fmtFalse:
		d.pos++
		return false, nil
	}
	return false, fmt.Errorf("%w: want bool, got 0x%02x", ErrTypeMismatch, c)
}

// ReadInt consumes any integer value and returns it as int64. Unsigned
// values above MaxInt64 are an error.
func (d *Decoder) ReadInt() (int64, error) {
	c, err := d.peek()
	if err != nil {
		return 0, err
	}
	switch {
	case c <= 0x7f: // positive fixint
		d.pos++
		return int64(c), nil
	case c >= 0xe0: // negative fixint
		d.pos++
		return int64(int8(c)), nil
	}
	d.pos++
	switch c {
	case fmtUint8:
		b, err := d.take(1)
		if err != nil {
			return 0, err
		}
		return int64(b[0]), nil
	case fmtUint16:
		v, err := d.takeU16()
		return int64(v), err
	case fmtUint32:
		v, err := d.takeU32()
		return int64(v), err
	case fmtUint64:
		v, err := d.takeU64()
		if err != nil {
			return 0, err
		}
		if v > math.MaxInt64 {
			return 0, fmt.Errorf("%w: uint64 %d overflows int64", ErrTypeMismatch, v)
		}
		return int64(v), nil
	case fmtInt8:
		b, err := d.take(1)
		if err != nil {
			return 0, err
		}
		return int64(int8(b[0])), nil
	case fmtInt16:
		v, err := d.takeU16()
		return int64(int16(v)), err
	case fmtInt32:
		v, err := d.takeU32()
		return int64(int32(v)), err
	case fmtInt64:
		v, err := d.takeU64()
		return int64(v), err
	}
	d.pos--
	return 0, fmt.Errorf("%w: want int, got 0x%02x", ErrTypeMismatch, c)
}

// ReadUint consumes an integer and returns it as uint64; negative values
// are an error.
func (d *Decoder) ReadUint() (uint64, error) {
	c, err := d.peek()
	if err != nil {
		return 0, err
	}
	if c == fmtUint64 {
		d.pos++
		return d.takeU64()
	}
	v, err := d.ReadInt()
	if err != nil {
		return 0, err
	}
	if v < 0 {
		return 0, fmt.Errorf("%w: negative value %d for uint", ErrTypeMismatch, v)
	}
	return uint64(v), nil
}

// ReadFloat32 consumes a float32 value.
func (d *Decoder) ReadFloat32() (float32, error) {
	c, err := d.peek()
	if err != nil {
		return 0, err
	}
	if c != fmtFloat32 {
		return 0, fmt.Errorf("%w: want float32, got 0x%02x", ErrTypeMismatch, c)
	}
	d.pos++
	v, err := d.takeU32()
	return math.Float32frombits(v), err
}

// ReadFloat64 consumes a float32 or float64 value as float64.
func (d *Decoder) ReadFloat64() (float64, error) {
	c, err := d.peek()
	if err != nil {
		return 0, err
	}
	switch c {
	case fmtFloat32:
		v, err := d.ReadFloat32()
		return float64(v), err
	case fmtFloat64:
		d.pos++
		v, err := d.takeU64()
		return math.Float64frombits(v), err
	}
	return 0, fmt.Errorf("%w: want float, got 0x%02x", ErrTypeMismatch, c)
}

// ReadString consumes a string value.
func (d *Decoder) ReadString() (string, error) {
	c, err := d.peek()
	if err != nil {
		return "", err
	}
	var n int
	switch {
	case c >= 0xa0 && c <= 0xbf:
		n = int(c & 0x1f)
		d.pos++
	case c == fmtStr8:
		d.pos++
		b, err := d.take(1)
		if err != nil {
			return "", err
		}
		n = int(b[0])
	case c == fmtStr16:
		d.pos++
		v, err := d.takeU16()
		if err != nil {
			return "", err
		}
		n = int(v)
	case c == fmtStr32:
		d.pos++
		v, err := d.takeU32()
		if err != nil {
			return "", err
		}
		n = int(v)
	default:
		return "", fmt.Errorf("%w: want string, got 0x%02x", ErrTypeMismatch, c)
	}
	b, err := d.take(n)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// ReadBytes consumes a binary value. The result aliases the decoder's
// input buffer.
func (d *Decoder) ReadBytes() ([]byte, error) {
	c, err := d.peek()
	if err != nil {
		return nil, err
	}
	var n int
	switch c {
	case fmtBin8:
		d.pos++
		b, err := d.take(1)
		if err != nil {
			return nil, err
		}
		n = int(b[0])
	case fmtBin16:
		d.pos++
		v, err := d.takeU16()
		if err != nil {
			return nil, err
		}
		n = int(v)
	case fmtBin32:
		d.pos++
		v, err := d.takeU32()
		if err != nil {
			return nil, err
		}
		n = int(v)
	default:
		return nil, fmt.Errorf("%w: want bin, got 0x%02x", ErrTypeMismatch, c)
	}
	return d.take(n)
}

// ReadArrayLen consumes an array header and returns the element count.
func (d *Decoder) ReadArrayLen() (int, error) {
	c, err := d.peek()
	if err != nil {
		return 0, err
	}
	switch {
	case c >= 0x90 && c <= 0x9f:
		d.pos++
		return int(c & 0x0f), nil
	case c == fmtArray16:
		d.pos++
		v, err := d.takeU16()
		return int(v), err
	case c == fmtArray32:
		d.pos++
		v, err := d.takeU32()
		return int(v), err
	}
	return 0, fmt.Errorf("%w: want array, got 0x%02x", ErrTypeMismatch, c)
}

// ReadMapLen consumes a map header and returns the pair count.
func (d *Decoder) ReadMapLen() (int, error) {
	c, err := d.peek()
	if err != nil {
		return 0, err
	}
	switch {
	case c >= 0x80 && c <= 0x8f:
		d.pos++
		return int(c & 0x0f), nil
	case c == fmtMap16:
		d.pos++
		v, err := d.takeU16()
		return int(v), err
	case c == fmtMap32:
		d.pos++
		v, err := d.takeU32()
		return int(v), err
	}
	return 0, fmt.Errorf("%w: want map, got 0x%02x", ErrTypeMismatch, c)
}

// ReadExt consumes an extension value. Data aliases the input buffer.
func (d *Decoder) ReadExt() (Ext, error) {
	c, err := d.peek()
	if err != nil {
		return Ext{}, err
	}
	var n int
	switch c {
	case fmtFixext1:
		n = 1
	case fmtFixext2:
		n = 2
	case fmtFixext4:
		n = 4
	case fmtFixext8:
		n = 8
	case fmtFixext16:
		n = 16
	case fmtExt8:
		d.pos++
		b, err := d.take(1)
		if err != nil {
			return Ext{}, err
		}
		n = int(b[0])
		c = 0
	case fmtExt16:
		d.pos++
		v, err := d.takeU16()
		if err != nil {
			return Ext{}, err
		}
		n = int(v)
		c = 0
	case fmtExt32:
		d.pos++
		v, err := d.takeU32()
		if err != nil {
			return Ext{}, err
		}
		n = int(v)
		c = 0
	default:
		return Ext{}, fmt.Errorf("%w: want ext, got 0x%02x", ErrTypeMismatch, c)
	}
	if c != 0 { // fixext: the format byte is still unconsumed
		d.pos++
	}
	tb, err := d.take(1)
	if err != nil {
		return Ext{}, err
	}
	data, err := d.take(n)
	if err != nil {
		return Ext{}, err
	}
	return Ext{Type: int8(tb[0]), Data: data}, nil
}

// ReadAny decodes the next value dynamically. Integers come back as
// int64 (uint64 if above MaxInt64), floats as float64 (float32 values as
// float32), strings as string, bin as []byte, arrays as []any, maps as
// map[string]any (keys must be strings), and ext as Ext.
func (d *Decoder) ReadAny() (any, error) {
	c, err := d.peek()
	if err != nil {
		return nil, err
	}
	switch {
	case c == fmtNil:
		d.pos++
		return nil, nil
	case c == fmtTrue || c == fmtFalse:
		return d.ReadBool()
	case c <= 0x7f || c >= 0xe0,
		c == fmtInt8, c == fmtInt16, c == fmtInt32, c == fmtInt64,
		c == fmtUint8, c == fmtUint16, c == fmtUint32:
		return d.ReadInt()
	case c == fmtUint64:
		v, err := d.ReadUint()
		if err != nil {
			return nil, err
		}
		if v > math.MaxInt64 {
			return v, nil
		}
		return int64(v), nil
	case c == fmtFloat32:
		return d.ReadFloat32()
	case c == fmtFloat64:
		return d.ReadFloat64()
	case (c >= 0xa0 && c <= 0xbf) || c == fmtStr8 || c == fmtStr16 || c == fmtStr32:
		return d.ReadString()
	case c == fmtBin8 || c == fmtBin16 || c == fmtBin32:
		return d.ReadBytes()
	case (c >= 0x90 && c <= 0x9f) || c == fmtArray16 || c == fmtArray32:
		n, err := d.ReadArrayLen()
		if err != nil {
			return nil, err
		}
		if n < 0 || n > d.Remaining() {
			// Each element needs at least one byte; reject absurd headers
			// (including 32-bit int wraps) before allocating.
			return nil, ErrTruncated
		}
		out := make([]any, n)
		for i := range out {
			if out[i], err = d.ReadAny(); err != nil {
				return nil, err
			}
		}
		return out, nil
	case (c >= 0x80 && c <= 0x8f) || c == fmtMap16 || c == fmtMap32:
		n, err := d.ReadMapLen()
		if err != nil {
			return nil, err
		}
		if n < 0 || n > d.Remaining() {
			return nil, ErrTruncated
		}
		out := make(map[string]any, n)
		for i := 0; i < n; i++ {
			k, err := d.ReadString()
			if err != nil {
				return nil, err
			}
			if out[k], err = d.ReadAny(); err != nil {
				return nil, err
			}
		}
		return out, nil
	default:
		return d.ReadExt()
	}
}

// Unmarshal decodes a single value from buf and requires the entire
// buffer to be consumed.
func Unmarshal(buf []byte) (any, error) {
	d := NewDecoder(buf)
	v, err := d.ReadAny()
	if err != nil {
		return nil, err
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("msgpack: %d trailing bytes", d.Remaining())
	}
	return v, nil
}
