package compress

import (
	"encoding/binary"
	"fmt"
	"math"

	"vizndp/internal/lz4"
)

// The paper's Sec. VII observes that general-purpose lossless codecs
// barely dent the Nyx dataset and defers error-bounded floating-point
// compressors (SZ, ZFP) to future work. QLZ4 implements that future-work
// item in miniature: an error-bounded quantizing front end (the core
// idea of SZ's quantization stage) over the LZ4 back end.
//
// Values are mapped to integer quantization bins of width 2*errBound
// around a per-block predictor (the previous value — SZ's simplest
// Lorenzo predictor), zig-zag encoded, and varint-packed; the residual
// stream is then LZ4 compressed. Decompression reproduces every value
// within +/- errBound. Values that cannot be quantized (NaN/Inf or bins
// overflowing an int32) are stored verbatim as escape codes.

// QuantizedLZ4 returns an error-bounded lossy codec. Decompressed float32
// values differ from the originals by at most absErrBound. The codec
// operates on byte blocks that must be whole float32 arrays (length
// divisible by 4), as produced by vtkio.
func QuantizedLZ4(absErrBound float64) Codec {
	return qlz4Codec{err: absErrBound}
}

// qlz4Magic guards the block header.
const qlz4Magic = 0x51 // 'Q'

const escapeCode = int64(math.MinInt32) // marks a verbatim value

type qlz4Codec struct {
	err float64
}

func (qlz4Codec) Kind() Kind { return Kind(200) } // out-of-band kind; not registered

func (c qlz4Codec) Compress(src []byte) ([]byte, error) {
	if c.err <= 0 {
		return nil, fmt.Errorf("compress: qlz4 error bound must be positive")
	}
	if len(src)%4 != 0 {
		return nil, fmt.Errorf("compress: qlz4 input of %d bytes is not float32-aligned", len(src))
	}
	n := len(src) / 4
	// Quantize against the previous reconstructed value so error does not
	// accumulate.
	quantized := make([]byte, 0, n*2)
	var verbatim []byte
	prev := 0.0
	halfBin := c.err // bin half-width = error bound
	for i := 0; i < n; i++ {
		v := float64(math.Float32frombits(binary.LittleEndian.Uint32(src[i*4:])))
		var code int64
		ok := false
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			delta := (v - prev) / (2 * halfBin)
			r := math.Round(delta)
			if r >= math.MinInt32+1 && r <= math.MaxInt32 {
				code = int64(r)
				recon := prev + r*2*halfBin
				if math.Abs(recon-v) <= halfBin {
					ok = true
					prev = recon
				}
			}
		}
		if !ok {
			code = escapeCode
			bits := binary.LittleEndian.Uint32(src[i*4:])
			verbatim = binary.LittleEndian.AppendUint32(verbatim, bits)
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				prev = v
			}
		}
		quantized = binary.AppendVarint(quantized, code)
	}
	// Header: magic, error bound, count, quantized length, body length.
	body := append(quantized, verbatim...)
	hdr := make([]byte, 0, 40)
	hdr = append(hdr, qlz4Magic)
	hdr = binary.BigEndian.AppendUint64(hdr, math.Float64bits(c.err))
	hdr = binary.AppendUvarint(hdr, uint64(n))
	hdr = binary.AppendUvarint(hdr, uint64(len(quantized)))
	hdr = binary.AppendUvarint(hdr, uint64(len(body)))
	return append(hdr, lz4.Compress(body)...), nil
}

func (c qlz4Codec) DecompressInto(dst, src []byte) error {
	if len(src) < 10 || src[0] != qlz4Magic {
		return fmt.Errorf("compress: bad qlz4 block")
	}
	errBound := math.Float64frombits(binary.BigEndian.Uint64(src[1:9]))
	if errBound <= 0 || math.IsNaN(errBound) {
		return fmt.Errorf("compress: bad qlz4 error bound %v", errBound)
	}
	rest := src[9:]
	n64, k := binary.Uvarint(rest)
	if k <= 0 {
		return fmt.Errorf("compress: bad qlz4 count")
	}
	rest = rest[k:]
	qlen, k := binary.Uvarint(rest)
	if k <= 0 {
		return fmt.Errorf("compress: bad qlz4 quantized length")
	}
	rest = rest[k:]
	blen, k := binary.Uvarint(rest)
	if k <= 0 {
		return fmt.Errorf("compress: bad qlz4 body length")
	}
	rest = rest[k:]
	n := len(dst) / 4
	if n64 != uint64(n) || len(dst)%4 != 0 {
		return fmt.Errorf("compress: qlz4 block holds %d values, want %d bytes", n64, len(dst))
	}
	if qlen > blen || blen > uint64(n)*14 {
		return fmt.Errorf("compress: implausible qlz4 body of %d bytes", blen)
	}
	body, err := lz4.Decompress(rest, int(blen))
	if err != nil {
		return err
	}

	quantized := body[:qlen]
	verbatim := body[qlen:]
	prev := 0.0
	qoff, voff := 0, 0
	for i := 0; i < n; i++ {
		code, k := binary.Varint(quantized[qoff:])
		if k <= 0 {
			return fmt.Errorf("compress: qlz4 truncated at value %d", i)
		}
		qoff += k
		if code == escapeCode {
			if voff+4 > len(verbatim) {
				return fmt.Errorf("compress: qlz4 verbatim overrun")
			}
			bits := binary.LittleEndian.Uint32(verbatim[voff:])
			voff += 4
			binary.LittleEndian.PutUint32(dst[i*4:], bits)
			v := float64(math.Float32frombits(bits))
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				prev = v
			}
			continue
		}
		recon := prev + float64(code)*2*errBound
		prev = recon
		binary.LittleEndian.PutUint32(dst[i*4:], math.Float32bits(float32(recon)))
	}
	if voff != len(verbatim) {
		return fmt.Errorf("compress: qlz4 trailing verbatim bytes")
	}
	return nil
}
