package msgpack

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestNilRoundTrip(t *testing.T) {
	e := NewEncoder(8)
	e.PutNil()
	d := NewDecoder(e.Bytes())
	if !d.IsNil() {
		t.Error("IsNil should be true")
	}
	if err := d.ReadNil(); err != nil {
		t.Fatal(err)
	}
	if d.Remaining() != 0 {
		t.Error("leftover bytes")
	}
}

func TestBoolRoundTrip(t *testing.T) {
	e := NewEncoder(8)
	e.PutBool(true)
	e.PutBool(false)
	d := NewDecoder(e.Bytes())
	if v, err := d.ReadBool(); err != nil || v != true {
		t.Errorf("true: %v %v", v, err)
	}
	if v, err := d.ReadBool(); err != nil || v != false {
		t.Errorf("false: %v %v", v, err)
	}
}

func TestIntFormats(t *testing.T) {
	// Each value sits at a format boundary; verify exact encoded sizes to
	// pin down format selection, then round trip.
	cases := []struct {
		v    int64
		size int
	}{
		{0, 1}, {1, 1}, {127, 1}, // positive fixint
		{128, 2}, {255, 2}, // uint8
		{256, 3}, {65535, 3}, // uint16
		{65536, 5}, {math.MaxUint32, 5}, // uint32
		{math.MaxUint32 + 1, 9}, {math.MaxInt64, 9}, // uint64
		{-1, 1}, {-32, 1}, // negative fixint
		{-33, 2}, {-128, 2}, // int8
		{-129, 3}, {-32768, 3}, // int16
		{-32769, 5}, {math.MinInt32, 5}, // int32
		{math.MinInt32 - 1, 9}, {math.MinInt64, 9}, // int64
	}
	for _, c := range cases {
		e := NewEncoder(16)
		e.PutInt(c.v)
		if e.Len() != c.size {
			t.Errorf("PutInt(%d): %d bytes, want %d", c.v, e.Len(), c.size)
		}
		got, err := NewDecoder(e.Bytes()).ReadInt()
		if err != nil || got != c.v {
			t.Errorf("ReadInt(%d) = %d, %v", c.v, got, err)
		}
	}
}

func TestUintRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 127, 128, 255, 256, 65535, 65536,
		math.MaxUint32, math.MaxUint32 + 1, math.MaxUint64} {
		e := NewEncoder(16)
		e.PutUint(v)
		got, err := NewDecoder(e.Bytes()).ReadUint()
		if err != nil || got != v {
			t.Errorf("ReadUint(%d) = %d, %v", v, got, err)
		}
	}
}

func TestUintOverflowToInt(t *testing.T) {
	e := NewEncoder(16)
	e.PutUint(math.MaxUint64)
	if _, err := NewDecoder(e.Bytes()).ReadInt(); err == nil {
		t.Error("MaxUint64 should not decode as int64")
	}
}

func TestNegativeToUint(t *testing.T) {
	e := NewEncoder(16)
	e.PutInt(-5)
	if _, err := NewDecoder(e.Bytes()).ReadUint(); err == nil {
		t.Error("negative value should not decode as uint")
	}
}

func TestFloatRoundTrip(t *testing.T) {
	for _, v := range []float32{0, 1.5, -2.25, math.MaxFloat32, float32(math.Inf(1))} {
		e := NewEncoder(8)
		e.PutFloat32(v)
		got, err := NewDecoder(e.Bytes()).ReadFloat32()
		if err != nil || got != v {
			t.Errorf("ReadFloat32(%v) = %v, %v", v, got, err)
		}
	}
	for _, v := range []float64{0, math.Pi, -1e300, math.Inf(-1)} {
		e := NewEncoder(16)
		e.PutFloat64(v)
		got, err := NewDecoder(e.Bytes()).ReadFloat64()
		if err != nil || got != v {
			t.Errorf("ReadFloat64(%v) = %v, %v", v, got, err)
		}
	}
}

func TestFloat32NaNRoundTrip(t *testing.T) {
	e := NewEncoder(8)
	e.PutFloat32(float32(math.NaN()))
	got, err := NewDecoder(e.Bytes()).ReadFloat32()
	if err != nil || !math.IsNaN(float64(got)) {
		t.Errorf("NaN round trip = %v, %v", got, err)
	}
}

func TestFloat64ReadsFloat32(t *testing.T) {
	e := NewEncoder(8)
	e.PutFloat32(1.5)
	got, err := NewDecoder(e.Bytes()).ReadFloat64()
	if err != nil || got != 1.5 {
		t.Errorf("ReadFloat64 of float32 = %v, %v", got, err)
	}
}

func TestStringFormats(t *testing.T) {
	cases := []struct {
		n        int
		overhead int
	}{
		{0, 1}, {31, 1}, // fixstr
		{32, 2}, {255, 2}, // str8
		{256, 3}, {65535, 3}, // str16
		{65536, 5}, // str32
	}
	for _, c := range cases {
		s := strings.Repeat("x", c.n)
		e := NewEncoder(c.n + 8)
		e.PutString(s)
		if e.Len() != c.n+c.overhead {
			t.Errorf("PutString(len %d): %d bytes, want %d", c.n, e.Len(), c.n+c.overhead)
		}
		got, err := NewDecoder(e.Bytes()).ReadString()
		if err != nil || got != s {
			t.Errorf("ReadString(len %d) failed: %v", c.n, err)
		}
	}
}

func TestStringUnicode(t *testing.T) {
	s := "контур 等值面 ✓"
	e := NewEncoder(64)
	e.PutString(s)
	got, err := NewDecoder(e.Bytes()).ReadString()
	if err != nil || got != s {
		t.Errorf("unicode round trip = %q, %v", got, err)
	}
}

func TestBytesFormats(t *testing.T) {
	for _, n := range []int{0, 1, 255, 256, 65535, 65536} {
		b := make([]byte, n)
		rand.New(rand.NewSource(int64(n))).Read(b)
		e := NewEncoder(n + 8)
		e.PutBytes(b)
		got, err := NewDecoder(e.Bytes()).ReadBytes()
		if err != nil || !bytes.Equal(got, b) {
			t.Errorf("ReadBytes(len %d) failed: %v", n, err)
		}
	}
}

func TestArrayMapHeaders(t *testing.T) {
	for _, n := range []int{0, 15, 16, 65535, 65536} {
		e := NewEncoder(8)
		e.PutArrayLen(n)
		got, err := NewDecoder(e.Bytes()).ReadArrayLen()
		if err != nil || got != n {
			t.Errorf("ReadArrayLen(%d) = %d, %v", n, got, err)
		}
		e = NewEncoder(8)
		e.PutMapLen(n)
		got, err = NewDecoder(e.Bytes()).ReadMapLen()
		if err != nil || got != n {
			t.Errorf("ReadMapLen(%d) = %d, %v", n, got, err)
		}
	}
}

func TestExtRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 8, 16, 17, 255, 256, 65536} {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i)
		}
		x := Ext{Type: -7, Data: data}
		e := NewEncoder(n + 8)
		e.PutExt(x)
		got, err := NewDecoder(e.Bytes()).ReadExt()
		if err != nil || got.Type != x.Type || !bytes.Equal(got.Data, x.Data) {
			t.Errorf("ReadExt(len %d) failed: %v", n, err)
		}
	}
}

func TestAnyRoundTrip(t *testing.T) {
	vals := []any{
		nil,
		true,
		int64(-42),
		int64(1 << 40),
		3.5,
		float32(2.5),
		"hello",
		[]byte{1, 2, 3},
		[]any{int64(1), "two", []any{nil, false}},
		map[string]any{"a": int64(1), "b": "x"},
		Ext{Type: 3, Data: []byte{9, 9}},
	}
	for _, v := range vals {
		buf, err := Marshal(v)
		if err != nil {
			t.Fatalf("Marshal(%v): %v", v, err)
		}
		got, err := Unmarshal(buf)
		if err != nil {
			t.Fatalf("Unmarshal(%v): %v", v, err)
		}
		if !reflect.DeepEqual(got, v) {
			t.Errorf("round trip %#v -> %#v", v, got)
		}
	}
}

func TestAnyNormalizesSmallInts(t *testing.T) {
	buf, err := Marshal(7) // plain int encodes as fixint
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != int64(7) {
		t.Errorf("got %#v, want int64(7)", got)
	}
}

func TestMarshalUnsupported(t *testing.T) {
	if _, err := Marshal(struct{}{}); err == nil {
		t.Error("struct should be unsupported")
	}
	if _, err := Marshal([]any{make(chan int)}); err == nil {
		t.Error("nested unsupported type should error")
	}
}

func TestUnmarshalTrailing(t *testing.T) {
	e := NewEncoder(8)
	e.PutInt(1)
	e.PutInt(2)
	if _, err := Unmarshal(e.Bytes()); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestTruncatedInputs(t *testing.T) {
	// Build a complex value and check every truncation errors cleanly.
	e := NewEncoder(64)
	_ = e.PutAny(map[string]any{
		"series": []any{int64(300), -2.5, "name", []byte{1, 2, 3, 4}},
		"big":    int64(1 << 50),
	})
	full := e.Bytes()
	for i := 0; i < len(full); i++ {
		if _, err := NewDecoder(full[:i]).ReadAny(); err == nil {
			t.Fatalf("truncation to %d bytes accepted", i)
		}
	}
}

func TestTypeMismatchErrors(t *testing.T) {
	e := NewEncoder(8)
	e.PutString("not an int")
	d := NewDecoder(e.Bytes())
	if _, err := d.ReadInt(); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("ReadInt on string: %v", err)
	}
	// Decoder must not have consumed the value on mismatch of header.
	if s, err := d.ReadString(); err != nil || s != "not an int" {
		t.Errorf("recovery read = %q, %v", s, err)
	}
}

func TestHugeArrayHeaderRejected(t *testing.T) {
	// array32 claiming 1e9 elements with no payload must not allocate.
	e := NewEncoder(8)
	e.PutArrayLen(1 << 30)
	if _, err := NewDecoder(e.Bytes()).ReadAny(); err == nil {
		t.Error("huge array header accepted")
	}
	e = NewEncoder(8)
	e.PutMapLen(1 << 30)
	if _, err := NewDecoder(e.Bytes()).ReadAny(); err == nil {
		t.Error("huge map header accepted")
	}
}

func TestMaxLengthHeadersRejected(t *testing.T) {
	// 32-bit length headers at the top of their range: on a 32-bit int
	// these wrap negative when converted, the same overflow shape as the
	// payload varint bug, so the length guards must reject them before
	// any slice arithmetic — never panic or allocate.
	cases := map[string][]byte{
		"str32":   {fmtStr32, 0xff, 0xff, 0xff, 0xff},
		"bin32":   {fmtBin32, 0xff, 0xff, 0xff, 0xff},
		"ext32":   {fmtExt32, 0xff, 0xff, 0xff, 0xff, 0x01},
		"array32": {fmtArray32, 0xff, 0xff, 0xff, 0xff},
		"map32":   {fmtMap32, 0xff, 0xff, 0xff, 0xff},
	}
	for name, data := range cases {
		data = append(data, "short body"...)
		if _, err := NewDecoder(data).ReadAny(); err == nil {
			t.Errorf("%s with max length accepted", name)
		}
	}
}

func TestFuzzDecodeNoPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 5000; i++ {
		buf := make([]byte, rng.Intn(32))
		rng.Read(buf)
		d := NewDecoder(buf)
		for d.Remaining() > 0 {
			if _, err := d.ReadAny(); err != nil {
				break
			}
		}
	}
}

func TestQuickIntRoundTrip(t *testing.T) {
	f := func(v int64) bool {
		e := NewEncoder(16)
		e.PutInt(v)
		got, err := NewDecoder(e.Bytes()).ReadInt()
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickStringBytesRoundTrip(t *testing.T) {
	f := func(s string, b []byte) bool {
		e := NewEncoder(len(s) + len(b) + 16)
		e.PutString(s)
		e.PutBytes(b)
		d := NewDecoder(e.Bytes())
		gs, err1 := d.ReadString()
		gb, err2 := d.ReadBytes()
		return err1 == nil && err2 == nil && gs == s && bytes.Equal(gb, b) &&
			d.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickFloatRoundTrip(t *testing.T) {
	f := func(v float64) bool {
		e := NewEncoder(16)
		e.PutFloat64(v)
		got, err := NewDecoder(e.Bytes()).ReadFloat64()
		if err != nil {
			return false
		}
		return got == v || (math.IsNaN(got) && math.IsNaN(v))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncoderReset(t *testing.T) {
	e := NewEncoder(8)
	e.PutString("abc")
	e.Reset()
	if e.Len() != 0 {
		t.Error("Reset should empty the buffer")
	}
	e.PutInt(5)
	if v, err := NewDecoder(e.Bytes()).ReadInt(); err != nil || v != 5 {
		t.Errorf("after reset: %v, %v", v, err)
	}
}
