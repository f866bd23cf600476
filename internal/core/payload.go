// Package core implements the paper's contribution: splitting a VTK
// contour filter into a pre-filter that runs near the data (on the
// storage node) and a post-filter that completes contour generation on
// the client.
//
// The pre-filter scans a data array, selects the mesh points the
// downstream contour needs (every corner of every cell whose values
// straddle an isovalue — see internal/contour), and encodes that sparse
// subset as a compact payload. The post-filter contours that subset
// directly: it decodes the payload into presence bits and values, and the
// contour kernel (internal/contour) visits only the cells whose eight
// corners were all shipped. Those are the only cells that can emit
// triangles, and the kernel reaches them in the k/j/i order a sweep of
// the full array would, so vertices are first created in the same order
// and the mesh is bit-identical to a full-array run — same vertices, same
// order, same triangles.
//
// Payload.Reconstruct, which expands a payload into a full-size array
// with NaN at unselected points, is on no client path: the threshold
// post-filter reads the decoded points the same way, and the sharded
// client gathers brick payloads into the unsharded payload. It is the
// tests' reference, and the same kernel contours such an array too,
// taking "not NaN" as presence.
//
// Two payload encodings are provided (an ablation in DESIGN.md):
//
//   - index/value: varint-delta-coded point indices followed by values;
//     compact at very low selectivity;
//   - block bitmap: per-4096-point blocks with a presence bitmap and
//     packed values; wins as selectivity grows because indices amortize
//     to one bit per point.
//
// An Auto mode sizes both encodings exactly and ships the smaller.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"vizndp/internal/bitset"
)

// Encoding selects the sparse payload wire format.
type Encoding uint8

// Payload encodings.
const (
	// EncAuto picks whichever of index/value and block bitmap is smaller.
	EncAuto Encoding = iota
	// EncIndexValue stores varint index deltas plus packed values.
	EncIndexValue
	// EncBlockBitmap stores per-block presence bitmaps plus packed values.
	EncBlockBitmap
)

// String names the encoding for flags and reports.
func (e Encoding) String() string {
	switch e {
	case EncAuto:
		return "auto"
	case EncIndexValue:
		return "indexvalue"
	case EncBlockBitmap:
		return "blockbitmap"
	default:
		return fmt.Sprintf("encoding(%d)", uint8(e))
	}
}

// ParseEncoding converts a name produced by String back to an Encoding.
func ParseEncoding(s string) (Encoding, error) {
	switch s {
	case "auto", "":
		return EncAuto, nil
	case "indexvalue":
		return EncIndexValue, nil
	case "blockbitmap":
		return EncBlockBitmap, nil
	default:
		return EncAuto, fmt.Errorf("core: unknown encoding %q", s)
	}
}

// blockBits is the block size of the bitmap encoding, in points.
const blockBits = 4096

// payloadMagic begins every payload.
const payloadMagic = 0xD5

// ErrBadPayload reports a corrupt or truncated payload.
var ErrBadPayload = errors.New("core: bad payload")

// Payload is the encoded sparse subarray shipped from pre-filter to
// post-filter.
type Payload struct {
	// Encoding is the wire format actually used (never EncAuto).
	Encoding Encoding
	// NumPoints is the full array length the payload reconstructs to.
	NumPoints int
	// Count is the number of selected points.
	Count int
	// Data is the wire bytes, including the header.
	Data []byte
}

// WireSize returns the payload's transfer size in bytes.
func (p *Payload) WireSize() int { return len(p.Data) }

// Selectivity returns Count/NumPoints.
func (p *Payload) Selectivity() float64 {
	if p.NumPoints == 0 {
		return 0
	}
	return float64(p.Count) / float64(p.NumPoints)
}

// EncodeSelection packs the selected values into a payload. The mask
// length must equal len(values); bits past mask.Len() are ignored.
//
// It sizes the output exactly from the mask's words first: a popcount
// per block gives the block bitmap's size, and, where index/value may be
// chosen, the varint length of each index delta gives its size. Then it
// writes the chosen encoding, header included, into one buffer of that
// size. EncAuto picks by exact size rather than a density heuristic,
// because clustered selections make block bitmaps win far below the
// naive break-even density.
func EncodeSelection(mask *bitset.Bitset, values []float32, enc Encoding) (*Payload, error) {
	n := mask.Len()
	if n != len(values) {
		return nil, fmt.Errorf("core: mask of %d bits for %d values", n, len(values))
	}
	if enc > EncBlockBitmap {
		return nil, fmt.Errorf("core: unknown encoding %d", enc)
	}
	m := newMaskWords(mask)
	var count, body int
	if enc == EncIndexValue {
		count, body = m.indexValueSize()
	} else {
		count, body = m.blockBitmapSize()
	}
	// An index/value body takes at least five bytes a point, so EncAuto
	// sizes it only when the bitmap body is not smaller than that. A tie
	// goes to index/value.
	if enc == EncAuto {
		enc = EncBlockBitmap
		if body >= 5*count {
			if _, iv := m.indexValueSize(); iv <= body {
				enc, body = EncIndexValue, iv
			}
		}
	}

	hdr := 2 + uvarintLen(uint64(n)) + uvarintLen(uint64(count))
	data := make([]byte, hdr+body)
	data[0], data[1] = payloadMagic, byte(enc)
	k := 2 + binary.PutUvarint(data[2:], uint64(n))
	binary.PutUvarint(data[k:], uint64(count))
	if enc == EncIndexValue {
		m.putIndexValue(data[hdr:], values, count)
	} else {
		m.putBlockBitmap(data[hdr:], values)
	}
	return &Payload{Encoding: enc, NumPoints: n, Count: count, Data: data}, nil
}

// blockWords is the number of mask words in one bitmap block.
const blockWords = blockBits / 64

// maskWords reads a selection mask a block of words at a time. The last
// block is a copy with the bits past the mask's length cleared, so a
// stray one is never counted or shipped and no walk tests for the tail
// word by word.
type maskWords struct {
	words  []uint64
	n      int
	blocks int
	tail   [blockWords]uint64
}

func newMaskWords(mask *bitset.Bitset) maskWords {
	n := mask.Len()
	m := maskWords{words: mask.Words()[:(n+63)>>6], n: n, blocks: (n + blockBits - 1) / blockBits}
	if m.blocks > 0 {
		copy(m.tail[:], m.words[(m.blocks-1)*blockWords:])
		if n&63 != 0 {
			m.tail[(n>>6)%blockWords] &= 1<<uint(n&63) - 1
		}
	}
	return m
}

// block returns block b's words.
func (m *maskWords) block(b int) []uint64 {
	if b == m.blocks-1 {
		return m.tail[:len(m.words)-b*blockWords]
	}
	return m.words[b*blockWords : (b+1)*blockWords]
}

// bitmapBytes returns the size of block b's presence bitmap.
func (m *maskWords) bitmapBytes(b int) int {
	return (min(blockBits, m.n-b*blockBits) + 7) / 8
}

// blockBitmapSize returns the selected count and the block bitmap body
// size: per non-empty block a varint block delta, the presence bitmap,
// and four bytes per selected point.
func (m *maskWords) blockBitmapSize() (count, size int) {
	prevBlock := -1
	for b := 0; b < m.blocks; b++ {
		c := 0
		for _, x := range m.block(b) {
			c += bits.OnesCount64(x)
		}
		if c == 0 {
			continue
		}
		count += c
		size += uvarintLen(uint64(b-prevBlock)) + m.bitmapBytes(b) + 4*c
		prevBlock = b
	}
	return count, size
}

// indexValueSize returns the selected count and the index/value body
// size: a varint index delta per selected point (the first index is a
// delta from -1, so every delta is >= 1), then four bytes per point.
// Within a word every delta but the first is below 64 and takes one
// byte.
func (m *maskWords) indexValueSize() (count, size int) {
	prev := -1
	for b := 0; b < m.blocks; b++ {
		for k, x := range m.block(b) {
			if x == 0 {
				continue
			}
			base := (b*blockWords + k) << 6
			c := bits.OnesCount64(x)
			count += c
			size += uvarintLen(uint64(base+bits.TrailingZeros64(x)-prev)) + c - 1 + 4*c
			prev = base + 63 - bits.LeadingZeros64(x)
		}
	}
	return count, size
}

// putIndexValue writes the index/value body, the varint index deltas
// followed by the count selected values, into body, sized by
// indexValueSize.
func (m *maskWords) putIndexValue(body []byte, values []float32, count int) {
	d, v, prev := 0, len(body)-4*count, -1
	for b := 0; b < m.blocks; b++ {
		for k, x := range m.block(b) {
			base := (b*blockWords + k) << 6
			for ; x != 0; x &= x - 1 {
				i := base + bits.TrailingZeros64(x)
				if delta := i - prev; delta < 0x80 {
					body[d] = byte(delta)
					d++
				} else {
					d += binary.PutUvarint(body[d:], uint64(delta))
				}
				prev = i
				binary.LittleEndian.PutUint32(body[v:], math.Float32bits(values[i]))
				v += 4
			}
		}
	}
}

// putBlockBitmap writes the block bitmap body, sized by blockBitmapSize.
// A block's presence bitmap is its mask words in little-endian byte
// order, cut to the block's points.
func (m *maskWords) putBlockBitmap(body []byte, values []float32) {
	off, prevBlock := 0, -1
	for b := 0; b < m.blocks; b++ {
		words := m.block(b)
		var live uint64
		for _, x := range words {
			live |= x
		}
		if live == 0 {
			continue
		}
		off += binary.PutUvarint(body[off:], uint64(b-prevBlock))
		prevBlock = b
		bm := body[off : off+m.bitmapBytes(b)]
		off += len(bm)
		for k, x := range words {
			if tail := bm[8*k:]; len(tail) >= 8 {
				binary.LittleEndian.PutUint64(tail, x)
			} else {
				for i := range tail {
					tail[i] = byte(x >> (8 * uint(i)))
				}
			}
		}
		for k, x := range words {
			base := (b*blockWords + k) << 6
			for ; x != 0; x &= x - 1 {
				i := base + bits.TrailingZeros64(x)
				binary.LittleEndian.PutUint32(body[off:], math.Float32bits(values[i]))
				off += 4
			}
		}
	}
}

// uvarintLen returns the length of x as a binary.PutUvarint varint.
func uvarintLen(x uint64) int {
	return (bits.Len64(x|1) + 6) / 7
}

// DecodePayload parses wire bytes back into a payload header, validating
// the magic and bounds. The heavy lifting happens in Reconstruct.
func DecodePayload(data []byte) (*Payload, error) {
	if len(data) < 4 || data[0] != payloadMagic {
		return nil, fmt.Errorf("%w: missing magic", ErrBadPayload)
	}
	enc := Encoding(data[1])
	if enc != EncIndexValue && enc != EncBlockBitmap {
		return nil, fmt.Errorf("%w: unknown encoding %d", ErrBadPayload, data[1])
	}
	rest := data[2:]
	numPoints, k := binary.Uvarint(rest)
	if k <= 0 {
		return nil, fmt.Errorf("%w: bad point count", ErrBadPayload)
	}
	rest = rest[k:]
	count, k := binary.Uvarint(rest)
	if k <= 0 {
		return nil, fmt.Errorf("%w: bad selection count", ErrBadPayload)
	}
	if count > numPoints || numPoints > math.MaxInt32 {
		return nil, fmt.Errorf("%w: count %d of %d points", ErrBadPayload, count, numPoints)
	}
	// Every selected point carries four packed value bytes (plus at least
	// one delta byte under index/value), so a header whose count cannot
	// fit in the remaining body is corrupt. Rejecting it here keeps a
	// hostile count from driving large allocations in Reconstruct.
	body := rest[k:]
	minPer := uint64(4)
	if enc == EncIndexValue {
		minPer = 5
	}
	if uint64(len(body))/minPer < count {
		return nil, fmt.Errorf("%w: %d body bytes for %d selected points",
			ErrBadPayload, len(body), count)
	}
	return &Payload{
		Encoding:  enc,
		NumPoints: int(numPoints),
		Count:     int(count),
		Data:      data,
	}, nil
}

// Reconstruct expands the payload into a full-length array with NaN at
// every unselected point. Contouring that array gives the mesh
// PostFilter.Contour builds from the payload directly. It is the
// reference the sparse paths are tested against; no client path builds
// it.
//
// Contour selections never ship a NaN: a NaN corner disqualifies its
// cells. Range selections can, since they ship the NaN corners of kept
// cells; a NaN never satisfies a range, so a shipped NaN and an absent
// point evaluate alike, and decodeInto counts a shipped NaN as absent.
func (p *Payload) Reconstruct() ([]float32, error) {
	out := make([]float32, p.NumPoints)
	fillNaN(out)
	if err := p.decodeInto(out, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// fillNaN sets every element to NaN using copy doubling, which runs at
// memmove speed rather than one store per element.
func fillNaN(out []float32) {
	if len(out) == 0 {
		return
	}
	nan := float32(math.NaN())
	out[0] = nan
	for filled := 1; filled < len(out); filled *= 2 {
		copy(out[filled:], out[:filled])
	}
}

// decodeInto writes selected values into dst and, when present is not
// nil, sets the bit of every selected point whose value is not NaN.
// That is the sparse form the post-filters read: dst is read only where
// present is set, so it needs no NaN fill. A shipped NaN — a range
// selection ships the NaN corners of kept cells, and a corrupt payload
// can ship one anywhere — leaves its bit clear, so it is as absent as it
// is in the NaN-padded array.
func (p *Payload) decodeInto(dst []float32, present []uint64) error {
	if len(dst) != p.NumPoints {
		return fmt.Errorf("core: dst of %d values, payload has %d points",
			len(dst), p.NumPoints)
	}
	// Skip the header: magic, encoding, two varints.
	rest := p.Data[2:]
	_, k := binary.Uvarint(rest)
	rest = rest[k:]
	_, k = binary.Uvarint(rest)
	rest = rest[k:]

	switch p.Encoding {
	case EncIndexValue:
		return decodeIndexValue(rest, dst, present, p.Count)
	case EncBlockBitmap:
		return decodeBlockBitmap(rest, dst, present, p.Count)
	default:
		return fmt.Errorf("%w: unknown encoding %d", ErrBadPayload, p.Encoding)
	}
}

// store delivers one decoded value.
func store(dst []float32, present []uint64, idx int, v float32) {
	dst[idx] = v
	if present != nil && !math.IsNaN(float64(v)) {
		present[idx>>6] |= 1 << uint(idx&63)
	}
}

func decodeIndexValue(body []byte, dst []float32, present []uint64, count int) error {
	// Each selected point costs at least one delta byte plus four value
	// bytes; reject an oversized count before walking anything.
	if count < 0 || count > len(body)/5 {
		return fmt.Errorf("%w: %d body bytes for %d selected points", ErrBadPayload, len(body), count)
	}
	// Validate the whole delta walk before writing dst, then walk again
	// and store: a rejected payload leaves dst untouched, and no index
	// table is allocated.
	pos := -1
	off := 0
	for i := 0; i < count; i++ {
		d, k := binary.Uvarint(body[off:])
		if k <= 0 || d == 0 {
			return fmt.Errorf("%w: bad index delta at %d", ErrBadPayload, i)
		}
		// Bound the delta against the remaining index range BEFORE
		// accumulating: a hostile varint near 2^64 would wrap pos
		// negative, slip past an upper-bound check, and fault dst[idx]
		// with a negative index. pos never exceeds len(dst)-1, so the
		// subtraction cannot go negative.
		if d > uint64(len(dst)-1-pos) {
			return fmt.Errorf("%w: index delta %d beyond %d points at %d", ErrBadPayload, d, len(dst), i)
		}
		off += k
		pos += int(d)
	}
	vals := off
	if len(body)-vals != count*4 {
		return fmt.Errorf("%w: %d value bytes, want %d", ErrBadPayload, len(body)-vals, count*4)
	}
	pos, off = -1, 0
	for i := 0; i < count; i++ {
		d, k := binary.Uvarint(body[off:])
		off += k
		pos += int(d)
		store(dst, present, pos, math.Float32frombits(binary.LittleEndian.Uint32(body[vals+i*4:])))
	}
	return nil
}

func decodeBlockBitmap(body []byte, dst []float32, present []uint64, count int) error {
	// Each selected point packs four value bytes; a count the body cannot
	// hold is corrupt regardless of the block structure.
	if count < 0 || count > len(body)/4 {
		return fmt.Errorf("%w: %d body bytes for %d selected points", ErrBadPayload, len(body), count)
	}
	n := len(dst)
	numBlocks := (n + blockBits - 1) / blockBits
	off := 0
	block := -1
	seen := 0
	for off < len(body) {
		d, k := binary.Uvarint(body[off:])
		if k <= 0 || d == 0 {
			return fmt.Errorf("%w: bad block delta", ErrBadPayload)
		}
		// Bound the delta against the remaining block range BEFORE
		// accumulating, for the same reason as decodeIndexValue: a huge
		// varint would wrap block negative and fault dst with a negative
		// index. block never exceeds numBlocks-1, so the subtraction
		// cannot go negative.
		if d > uint64(numBlocks-1-block) {
			return fmt.Errorf("%w: block delta %d beyond %d blocks", ErrBadPayload, d, numBlocks)
		}
		off += k
		block += int(d)
		lo := block * blockBits
		hi := lo + blockBits
		if hi > n {
			hi = n
		}
		nbytes := (hi - lo + 7) / 8
		if off+nbytes > len(body) {
			return fmt.Errorf("%w: truncated bitmap", ErrBadPayload)
		}
		bm := body[off : off+nbytes]
		off += nbytes
		// The bitmap is the block's presence words in little-endian byte
		// order; visit set bits a word at a time. Bits past the block's
		// last point (a short final block) do not count.
		for w := 0; w*64 < hi-lo; w++ {
			var word uint64
			if tail := bm[w*8:]; len(tail) >= 8 {
				word = binary.LittleEndian.Uint64(tail)
			} else {
				for i, b := range tail {
					word |= uint64(b) << (8 * uint(i))
				}
			}
			if n := hi - lo - w*64; n < 64 {
				word &= 1<<uint(n) - 1
			}
			for ; word != 0; word &= word - 1 {
				if off+4 > len(body) {
					return fmt.Errorf("%w: truncated values", ErrBadPayload)
				}
				idx := lo + w*64 + bits.TrailingZeros64(word)
				store(dst, present, idx, math.Float32frombits(binary.LittleEndian.Uint32(body[off:])))
				off += 4
				seen++
			}
		}
	}
	if seen != count {
		return fmt.Errorf("%w: decoded %d values, header says %d", ErrBadPayload, seen, count)
	}
	return nil
}
