package contour

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"vizndp/internal/bitset"
	"vizndp/internal/grid"
)

// Bit-parallel cell-corner selection.
//
// The pre-filter scan runs on the storage node for every NDP fetch, so
// its cost is on the measured data-load path and directly bounds the
// speedup over compressed baselines. This implementation classifies
// points into bit rows (bit i of a row word set when point i of that row
// is below the isovalue; a parallel row marks NaNs) and then evaluates
// 64 cells per machine-word operation:
//
//	rowOr  = r(j,k) | r(j+1,k) | r(j,k+1) | r(j+1,k+1)
//	cellOr = rowOr | rowOr>>1      (corner pairs along x)
//
// and likewise for AND; a cell straddles the isovalue where the OR and
// AND bits differ and no corner is NaN. Corner marking expands the
// straddle bits back to point rows with the inverse shifts. A range
// select is the same sweep with one "in range" row and the OR alone.
//
// A row pair is the four point rows whose cells one (j, k) sweep step
// covers. Given a RowRanges summary, a pass first drops every pair whose
// rows' combined range cannot hold a selected cell, then classifies only
// the rows the remaining pairs read and sweeps only those pairs. Without
// one every pair is live: there is one sweep either way.

// RowRanges summarizes an array one point row at a time: for each (j, k)
// row of nx points, the least and greatest of its non-NaN values. A row
// with no non-NaN value has lo = +Inf and hi = -Inf, so no isovalue can
// find it straddled. It costs 8 bytes per row (2/nx of the array's
// bytes, 1/64 at nx = 128) and is valid only for the values it was built
// from.
//
// A nil *RowRanges is a valid summary that judges every row pair live.
type RowRanges struct {
	dims   grid.Dims
	lo, hi []float32
}

// SummarizeRows builds the row summary of values over g.
func SummarizeRows(g *grid.Uniform, values []float32) (*RowRanges, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if len(values) != g.NumPoints() {
		return nil, fmt.Errorf("contour: %d values for %d grid points", len(values), g.NumPoints())
	}
	nx, rows := g.Dims.X, g.Dims.Y*g.Dims.Z
	s := &RowRanges{dims: g.Dims, lo: make([]float32, rows), hi: make([]float32, rows)}
	parallelRange(rows, func(r0, r1 int) {
		for r := r0; r < r1; r++ {
			lo, hi := float32(math.Inf(1)), float32(math.Inf(-1))
			for _, v := range values[r*nx : (r+1)*nx] {
				// NaN fails both comparisons, so it never widens the range.
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			s.lo[r], s.hi[r] = lo, hi
		}
	})
	return s, nil
}

// fits reports an error unless s summarizes an array over g.
func (s *RowRanges) fits(g *grid.Uniform) error {
	if s != nil && s.dims != g.Dims {
		return fmt.Errorf("contour: row summary of a %v grid used on %v", s.dims, g.Dims)
	}
	return nil
}

// SelectCellCorners is the package function SelectCellCorners with the
// row pairs judged by s: the mask is the same, word for word.
func (s *RowRanges) SelectCellCorners(g *grid.Uniform, values []float32, isovalues []float64) (*bitset.Bitset, error) {
	if err := validateInputs(g, values, isovalues); err != nil {
		return nil, err
	}
	if err := s.fits(g); err != nil {
		return nil, err
	}
	mask := bitset.New(g.NumPoints())
	for _, iso := range isovalues {
		s.selectCorners(g, values, isoTest{iso}, mask)
	}
	return mask, nil
}

// SelectRangeCorners is the package function SelectRangeCorners with the
// row pairs judged by s: the mask is the same, word for word.
func (s *RowRanges) SelectRangeCorners(g *grid.Uniform, values []float32, lo, hi float64) (*bitset.Bitset, error) {
	if err := validateField(g, values); err != nil {
		return nil, err
	}
	if err := validateRange(lo, hi); err != nil {
		return nil, err
	}
	if err := s.fits(g); err != nil {
		return nil, err
	}
	mask := bitset.New(g.NumPoints())
	s.selectCorners(g, values, rangeTest{lo, hi}, mask)
	return mask, nil
}

// A cellTest is what one pass of the sweep selects by.
type cellTest interface {
	// skip reports that no cell of a row pair whose four rows' non-NaN
	// values span [lo, hi] can be selected.
	skip(lo, hi float32) bool
	// classify writes one point row's words into a and b, by assignment.
	classify(row []float32, a, b []uint64)
	// cells writes into dst the bits of the cells (bit i: the cell between
	// points i and i+1) of one row pair that the pass selects, from its
	// four classified rows.
	cells(dst []uint64, a, b *bitRows, rows [4]int, s *pairScratch)
}

// isoTest selects the cells straddling iso: some corner below it (v <
// iso), some corner not, and no corner NaN. a holds "below", b "NaN".
type isoTest struct{ iso float64 }

// skip: a straddling cell has a corner below iso, so lo < iso, and one
// at or above it, so hi >= iso.
func (t isoTest) skip(lo, hi float32) bool {
	return float64(lo) >= t.iso || float64(hi) < t.iso
}

func (t isoTest) classify(row []float32, below, nan []uint64) {
	for w := range below {
		var bw, nw uint64
		for i, v := range row[w*64 : min(len(row), w*64+64)] {
			if isNaN32(v) {
				nw |= 1 << (i & 63)
			} else if float64(v) < t.iso {
				bw |= 1 << (i & 63)
			}
		}
		below[w], nan[w] = bw, nw
	}
}

func (isoTest) cells(dst []uint64, below, nan *bitRows, rows [4]int, s *pairScratch) {
	r00, r10, r01, r11 := below.row(rows[0]), below.row(rows[1]), below.row(rows[2]), below.row(rows[3])
	n00, n10, n01, n11 := nan.row(rows[0]), nan.row(rows[1]), nan.row(rows[2]), nan.row(rows[3])
	for w := range dst {
		s.or[w] = r00[w] | r10[w] | r01[w] | r11[w]
		s.and[w] = r00[w] & r10[w] & r01[w] & r11[w]
		s.nan[w] = n00[w] | n10[w] | n01[w] | n11[w]
	}
	// Pair corners along x.
	shiftRight1(s.shifted, s.or)
	for w := range dst {
		dst[w] = s.or[w] | s.shifted[w]
	}
	shiftRight1(s.shifted, s.and)
	for w := range dst {
		dst[w] &^= s.and[w] & s.shifted[w] // or != and
	}
	shiftRight1(s.shifted, s.nan)
	for w := range dst {
		dst[w] &^= s.nan[w] | s.shifted[w] // no NaN corner
	}
}

// rangeTest selects the cells with a corner value in [lo, hi], which NaN
// never is. a holds "in range"; b is unused.
type rangeTest struct{ lo, hi float64 }

// skip: a kept cell has a corner v with lo <= v <= hi, and v lies in the
// rows' own range.
func (t rangeTest) skip(lo, hi float32) bool {
	return float64(lo) > t.hi || float64(hi) < t.lo
}

func (t rangeTest) classify(row []float32, in, _ []uint64) {
	for w := range in {
		var iw uint64
		for i, v := range row[w*64 : min(len(row), w*64+64)] {
			if f := float64(v); f >= t.lo && f <= t.hi {
				iw |= 1 << (i & 63)
			}
		}
		in[w] = iw
	}
}

func (rangeTest) cells(dst []uint64, in, _ *bitRows, rows [4]int, s *pairScratch) {
	r00, r10, r01, r11 := in.row(rows[0]), in.row(rows[1]), in.row(rows[2]), in.row(rows[3])
	for w := range dst {
		dst[w] = r00[w] | r10[w] | r01[w] | r11[w]
	}
	shiftRight1(s.shifted, dst)
	for w := range dst {
		dst[w] |= s.shifted[w]
	}
}

// selectCorners runs one pass of the sweep for t over the row pairs s
// judges live, OR-ing the corners of every selected cell into mask.
func (s *RowRanges) selectCorners(g *grid.Uniform, values []float32, t cellTest, mask *bitset.Bitset) {
	nx, ny, nz := g.Dims.X, g.Dims.Y, g.Dims.Z
	// far is the row offset from a pair's near layer to its far one.
	far := ny
	buf := getSweepBuf(nx, ny*nz)
	defer sweepPool.Put(buf)

	// The live pairs, each named by its first row, and the rows they read.
	for k := 0; k < nz-1; k++ {
		for j := 0; j < ny-1; j++ {
			p := k*ny + j
			if s != nil {
				lo := min(s.lo[p], s.lo[p+1], s.lo[p+far], s.lo[p+far+1])
				hi := max(s.hi[p], s.hi[p+1], s.hi[p+far], s.hi[p+far+1])
				if t.skip(lo, hi) {
					continue
				}
			}
			buf.pairs = append(buf.pairs, int32(p))
			for _, r := range [4]int{p, p + 1, p + far, p + far + 1} {
				buf.need[r>>6] |= 1 << (r & 63)
			}
		}
	}
	for w, word := range buf.need {
		for ; word != 0; word &= word - 1 {
			buf.rows = append(buf.rows, int32(w<<6+bits.TrailingZeros64(word)))
		}
	}

	// Classification, parallel over the rows read. Each row's words are
	// assigned whole, so the pooled matrices need no clearing: a row no
	// live pair reads keeps stale bits nobody looks at.
	parallelRange(len(buf.rows), func(i0, i1 int) {
		for _, r32 := range buf.rows[i0:i1] {
			r := int(r32)
			t.classify(values[r*nx:(r+1)*nx], buf.a.row(r), buf.b.row(r))
		}
	})

	// Cell sweep over the live pairs, word-parallel in x. It runs
	// serially: cell layer k writes corner rows into point layers k and
	// k+1, so slabs split across workers would share a boundary point
	// layer of the mask. The scan is memory-bandwidth-bound, so the loss
	// on multi-core hosts is modest.
	ps := &buf.pair
	for _, p32 := range buf.pairs {
		p := int(p32)
		rows := [4]int{p, p + 1, p + far, p + far + 1}
		t.cells(ps.cells, &buf.a, &buf.b, rows, ps)
		markCellCorners(mask.Words(), ps.cells, ps.corners, nx, rows)
	}
}

// bitRows is a packed bit matrix: one row of nx bits per (j,k) point row.
type bitRows struct {
	words    []uint64
	wordsPer int
}

// reset sizes b for rows rows of nx bits, keeping its backing array when
// large enough. The words keep whatever they held.
func (b *bitRows) reset(nx, rows int) {
	b.wordsPer = (nx + 63) / 64
	b.words = grow(b.words, b.wordsPer*rows)
}

// row returns the word slice for row r.
func (b *bitRows) row(r int) []uint64 {
	return b.words[r*b.wordsPer : (r+1)*b.wordsPer]
}

// pairScratch is a sweep's per-row-pair working words, one row wide each.
type pairScratch struct {
	or, and, nan, shifted, cells, corners []uint64
}

// sweepBuf is one pass's working memory, recycled through sweepPool so a
// pass allocates nothing but its output mask.
type sweepBuf struct {
	a, b  bitRows  // classified rows; see cellTest
	need  []uint64 // one bit per point row, set when a live pair reads it
	pairs []int32  // live pairs, by first row
	rows  []int32  // rows to classify, ascending
	pair  pairScratch
}

var sweepPool sync.Pool

// getSweepBuf returns a pass buffer sized for rows point rows of nx
// points, with need cleared and the pair and row lists empty.
func getSweepBuf(nx, rows int) *sweepBuf {
	buf, _ := sweepPool.Get().(*sweepBuf)
	if buf == nil {
		buf = new(sweepBuf)
	}
	buf.a.reset(nx, rows)
	buf.b.reset(nx, rows)
	buf.need = grow(buf.need, (rows+63)/64)
	clear(buf.need)
	buf.pairs = buf.pairs[:0]
	buf.rows = buf.rows[:0]
	ps := &buf.pair
	for _, w := range []*[]uint64{&ps.or, &ps.and, &ps.nan, &ps.shifted, &ps.cells, &ps.corners} {
		*w = grow(*w, buf.a.wordsPer)
	}
	return buf
}

// grow returns s resized to n words, reallocating only when its capacity
// is short. Reused words keep their contents.
func grow(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

// shiftRight1 computes dst = src >> 1 across word boundaries (bit i of
// dst = bit i+1 of src), so dst's bit i pairs point i with point i+1.
func shiftRight1(dst, src []uint64) {
	n := len(src)
	for w := 0; w < n; w++ {
		v := src[w] >> 1
		if w+1 < n {
			v |= src[w+1] << 63
		}
		dst[w] = v
	}
}

// markCellCorners selects, in each of the four point rows, both x-corners
// of every cell whose bit is set in cells (bit i is the cell between
// points i and i+1), using corners as scratch. Bit nx-1 of cells pairs
// the last point with nothing, so it is cleared first.
func markCellCorners(mask, cells, corners []uint64, nx int, rows [4]int) {
	last := nx - 1
	cells[last>>6] &^= 1 << (last & 63)
	anyBits := uint64(0)
	for _, c := range cells {
		anyBits |= c
	}
	if anyBits == 0 {
		return
	}
	// Bit i selects points i and i+1.
	for w := range cells {
		v := cells[w] | cells[w]<<1
		if w > 0 {
			v |= cells[w-1] >> 63
		}
		corners[w] = v
	}
	for _, row := range rows {
		orAligned(mask, row*nx, corners, nx)
	}
}

// orAligned ORs the first nbits of src into dst starting at dst bit
// offset (which may not be word-aligned).
func orAligned(dst []uint64, offset int, src []uint64, nbits int) {
	word := offset >> 6
	shift := uint(offset & 63)
	full := nbits >> 6
	for w := 0; w < len(src); w++ {
		b := src[w]
		// Trim bits beyond nbits in the final word.
		if w == full {
			rem := uint(nbits & 63)
			if rem != 0 {
				b &= (1 << rem) - 1
			}
		} else if w > full {
			break
		}
		if b == 0 {
			continue
		}
		dst[word+w] |= b << shift
		if shift != 0 && word+w+1 < len(dst) {
			dst[word+w+1] |= b >> (64 - shift)
		}
	}
}
