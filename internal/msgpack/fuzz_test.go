package msgpack

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// FuzzUnmarshal feeds arbitrary bytes to the wire decoder. The decoder
// sits directly on the RPC socket, so it must reject garbage with an
// error — never a panic or a huge allocation — and anything it does
// accept must round-trip back through the encoder.
func FuzzUnmarshal(f *testing.F) {
	seedValues := []any{
		nil,
		true,
		int64(-42),
		uint64(1 << 40),
		3.25,
		float32(1.5),
		"isoValue",
		[]byte{0xde, 0xad, 0xbe, 0xef},
		[]any{int64(0), int64(7), "Fetch", []any{"sim", "v02", 0.3}},
		map[string]any{"trace": "abc123", "parent": int64(9)},
		Ext{Type: 5, Data: []byte("ext")},
	}
	for _, v := range seedValues {
		b, err := Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// Truncations and corrupt type bytes.
	f.Add([]byte{})
	f.Add([]byte{0xdc})             // array16 missing length
	f.Add([]byte{0xdb, 0xff, 0xff}) // str32 with truncated length
	f.Add([]byte{0xc1})             // never-used format byte

	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := Unmarshal(data)
		if err != nil {
			return
		}
		// Whatever decoded must re-encode: the RPC layer round-trips
		// decoded args into responses.
		if _, err := Marshal(v); err != nil {
			t.Fatalf("decoded value %#v does not re-encode: %v", v, err)
		}
	})
}

// FuzzEncoderSegments builds a value tree from the input, with []byte
// leaves drawn around refMin, and holds the segmented encoding to the
// flat one: the pieces AppendPieces returns, joined, are Bytes(), their
// total is Len(), and Unmarshal gives the tree back.
func FuzzEncoderSegments(f *testing.F) {
	f.Add([]byte{0x04, 0x02, 0x00, 0x02, 0x01, 0x01, 0x07})
	f.Add([]byte{0x05, 0x02, 0x02, 0x03, 0x00, 0x02, 0x03, 0x01, 0x02, 0x04})
	f.Add([]byte{0x02, 0x03, 0xff, 0x02, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &treeGen{data: data}
		v := g.value(0)
		e := NewEncoder(16)
		if err := e.PutAny(v); err != nil {
			t.Fatal(err)
		}
		pieces := e.AppendPieces(nil)
		joined := make([]byte, 0, e.Len())
		for _, p := range pieces {
			joined = append(joined, p...)
		}
		if len(joined) != e.Len() {
			t.Fatalf("pieces hold %d bytes, Len says %d", len(joined), e.Len())
		}
		if !bytes.Equal(joined, e.Bytes()) {
			t.Fatal("joined pieces differ from Bytes")
		}
		got, err := Unmarshal(joined)
		if err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if !reflect.DeepEqual(got, v) {
			t.Fatal("round trip changed the value")
		}
	})
}

// treeGen turns fuzz input into a msgpack value tree. Byte leaves are
// sized around refMin, so an encoding mixes referenced and inline bins;
// at most four are that large, to keep an input's memory bounded.
type treeGen struct {
	data []byte
	big  int
}

func (g *treeGen) next() byte {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return b
}

func (g *treeGen) value(depth int) any {
	op := g.next()
	if depth >= 4 {
		op %= 4
	}
	switch op % 6 {
	case 0:
		return int64(int8(g.next()))
	case 1:
		return strings.Repeat("s", int(g.next()))
	case 2:
		return g.bytes()
	case 3:
		return nil
	case 4:
		a := make([]any, g.next()%5)
		for i := range a {
			a[i] = g.value(depth + 1)
		}
		return a
	default:
		m := map[string]any{}
		for i := range int(g.next() % 4) {
			m[strconv.Itoa(i)] = g.value(depth + 1)
		}
		return m
	}
}

// bytes returns a leaf of refMin-2 .. refMin+1 bytes, or a short one.
func (g *treeGen) bytes() []byte {
	sel := g.next()
	n := int(sel >> 2)
	if sel&1 == 1 && g.big < 4 {
		g.big++
		n = refMin - 2 + int(sel>>1)%4
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i) ^ sel
	}
	return b
}
