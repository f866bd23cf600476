// Package compress provides the data-compression codecs the paper
// evaluates — GZip and LZ4 — behind a single Codec interface, plus the
// identity codec for RAW runs. VTK supports exactly these two lossless
// codecs natively, which is why the paper restricts itself to them.
package compress

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"sync"

	"vizndp/internal/lz4"
)

// Kind identifies a codec on the wire and in file headers.
type Kind uint8

// Codec kinds. The zero value is None so uninitialized headers read as RAW.
const (
	None Kind = iota
	Gzip
	LZ4
)

// String returns the name used in CLI flags, file headers, and reports.
func (k Kind) String() string {
	switch k {
	case None:
		return "raw"
	case Gzip:
		return "gzip"
	case LZ4:
		return "lz4"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ParseKind converts a codec name to its Kind. Recognized names are "raw"
// (also "none"), "gzip", and "lz4".
func ParseKind(s string) (Kind, error) {
	switch s {
	case "raw", "none", "":
		return None, nil
	case "gzip":
		return Gzip, nil
	case "lz4":
		return LZ4, nil
	default:
		return None, fmt.Errorf("compress: unknown codec %q", s)
	}
}

// Codec compresses and decompresses byte blocks. Implementations are
// stateless and safe for concurrent use.
type Codec interface {
	Kind() Kind
	// Compress returns the encoded form of src. The result may alias
	// src (the raw codec returns src itself), so src must stay unchanged
	// for as long as the result is in use.
	Compress(src []byte) ([]byte, error)
	// DecompressInto decodes src into dst. src must expand to exactly
	// len(dst) bytes; anything else is an error, and nothing past
	// len(dst) is written. dst and src must not overlap.
	DecompressInto(dst, src []byte) error
}

// ByKind returns the codec for k.
func ByKind(k Kind) (Codec, error) {
	switch k {
	case None:
		return noneCodec{}, nil
	case Gzip:
		return gzipCodec{}, nil
	case LZ4:
		return lz4Codec{}, nil
	default:
		return nil, fmt.Errorf("compress: unknown codec kind %d", k)
	}
}

type noneCodec struct{}

func (noneCodec) Kind() Kind { return None }

func (noneCodec) Compress(src []byte) ([]byte, error) { return src, nil }

func (noneCodec) DecompressInto(dst, src []byte) error {
	if len(src) != len(dst) {
		return fmt.Errorf("compress: raw block is %d bytes, want %d",
			len(src), len(dst))
	}
	copy(dst, src)
	return nil
}

type gzipCodec struct{}

func (gzipCodec) Kind() Kind { return Gzip }

func (gzipCodec) Compress(src []byte) ([]byte, error) {
	var buf bytes.Buffer
	w := gzip.NewWriter(&buf)
	if _, err := w.Write(src); err != nil {
		_ = w.Close()
		return nil, fmt.Errorf("compress: gzip write: %w", err)
	}
	if err := w.Close(); err != nil {
		return nil, fmt.Errorf("compress: gzip close: %w", err)
	}
	return buf.Bytes(), nil
}

// gzipReaders recycles gzip readers, whose inflate state (~45 KB) would
// otherwise be allocated again for every chunk decoded.
var gzipReaders sync.Pool // of *gzip.Reader

func (gzipCodec) DecompressInto(dst, src []byte) error {
	br := bytes.NewReader(src)
	r, _ := gzipReaders.Get().(*gzip.Reader)
	var err error
	if r == nil {
		r, err = gzip.NewReader(br)
	} else {
		err = r.Reset(br)
	}
	if err != nil {
		return fmt.Errorf("compress: gzip open: %w", err)
	}
	defer gzipReaders.Put(r)
	if _, err := io.ReadFull(r, dst); err != nil {
		return fmt.Errorf("compress: gzip read: %w", err)
	}
	// Make sure the stream holds no extra data beyond the declared size.
	var extra [1]byte
	if n, _ := r.Read(extra[:]); n != 0 {
		return fmt.Errorf("compress: gzip block larger than declared %d bytes",
			len(dst))
	}
	return nil
}

type lz4Codec struct{}

func (lz4Codec) Kind() Kind { return LZ4 }

func (lz4Codec) Compress(src []byte) ([]byte, error) {
	return lz4.Compress(src), nil
}

func (lz4Codec) DecompressInto(dst, src []byte) error {
	return lz4.DecompressInto(dst, src)
}
