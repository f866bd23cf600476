package contour

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"vizndp/internal/bitset"
	"vizndp/internal/grid"
)

// Bit-parallel contour and range selection.
//
// The pre-filter scan runs on the storage node for every NDP fetch, so
// its cost is on the measured data-load path. A contour pass classifies
// each point row into two bit rows — "below" the isovalue and "above"
// (at or above) it; a NaN is neither — and then works 64 points per word
// operation. An edge straddles where one end is below and the other
// above: below & above>>1 | above & below>>1 within a row, and the same
// without the shift across two rows. A cell's corners straddle where the
// OR of its four rows' "below" bits, paired along x (or | or>>1), meets
// that of "above", and are all non-NaN where the AND of below|above,
// paired along x, is set. A range pass has one "in range" row and keeps
// a cell where the OR of its corners' bits is set.
//
// A row pair is the four point rows whose cells one (j, k) sweep step
// covers, and it marks the edges no earlier pair holds. Given a
// RowRanges summary, a pass first drops every pair whose rows' combined
// range cannot hold a selected edge or cell, then classifies only the
// rows the remaining pairs read and sweeps only those pairs. Without one
// every pair is live: there is one sweep either way.

// A Rule is which points a contour selection ships.
type Rule uint8

const (
	// RuleEdges ships both ends of every interesting edge (ends straddle
	// an isovalue, neither NaN) and the NaN corners of every cell whose
	// non-NaN corners straddle one: what marching cubes interpolates, and
	// the NaNs that tell it which cells to skip.
	RuleEdges Rule = iota
	// RuleCells ships every corner of every cell whose corners straddle
	// an isovalue, none NaN: what servers sent before RuleEdges, and send
	// a request that does not ask for edges.
	RuleCells
)

// RowRanges summarizes an array one point row at a time: for each (j, k)
// row of nx points, bounds lo and hi on its non-NaN values. SummarizeRows
// takes them exact — the least and greatest — and a row with no non-NaN
// value gets lo = +Inf and hi = -Inf, so no isovalue can find it
// straddled. BoundRows takes wider ones from what a reader knew before
// reading the values. A select's mask is the same under any bounds that
// hold, exact or not; only how many row pairs it skips differs. It costs
// 8 bytes per row (2/nx of the array's bytes, 1/64 at nx = 128) and is
// valid only for the values it bounds.
//
// A nil *RowRanges is a valid summary that judges every row pair live.
type RowRanges struct {
	dims   grid.Dims
	lo, hi []float32
}

// BoundRows returns the summary of g's point rows whose row r is bounded
// by lo[r] and hi[r], which it keeps. The caller vouches that every
// non-NaN value of row r lies in [lo[r], hi[r]]; selects with the summary
// then read only the rows their live pairs hold (ContourRows, RangeRows).
func BoundRows(g *grid.Uniform, lo, hi []float32) (*RowRanges, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if rows := g.Dims.Y * g.Dims.Z; len(lo) != rows || len(hi) != rows {
		return nil, fmt.Errorf("contour: bounds for %d and %d rows, grid has %d", len(lo), len(hi), rows)
	}
	return &RowRanges{dims: g.Dims, lo: lo, hi: hi}, nil
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

// SelectContour selects by rule the points that contouring values at
// isovalues needs, with the row pairs judged by s. SelectCellCorners is
// the RuleEdges select over every row pair; the mask is the same, word
// for word, with or without a summary.
func (s *RowRanges) SelectContour(g *grid.Uniform, values []float32, isovalues []float64, rule Rule) (*bitset.Bitset, error) {
	if err := validateInputs(g, values, isovalues); err != nil {
		return nil, err
	}
	if err := s.fits(g); err != nil {
		return nil, err
	}
	mask := bitset.New(g.NumPoints())
	for _, iso := range isovalues {
		s.selectCorners(g, values, isoTest{iso, rule}, mask)
	}
	return mask, nil
}

// ContourRows marks in need, one bit per (j, k) point row, the rows
// SelectContour reads at isovalues with the row pairs judged by s: every
// row of a pair s leaves live for one of the isovalues. The select's mask
// depends on those rows' values alone, so they are all of the array a
// reader must fetch before it selects with s. need must hold a bit per
// row of s; bits already set stay set.
func (s *RowRanges) ContourRows(isovalues []float64, need []uint64) {
	for _, iso := range isovalues {
		s.livePairs(isoTest{iso: iso}, need, nil)
	}
}

// RangeRows is ContourRows for SelectRangeCorners over [lo, hi].
func (s *RowRanges) RangeRows(lo, hi float64, need []uint64) {
	s.livePairs(rangeTest{lo, hi}, need, nil)
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
	// skip reports that nothing in a row pair whose four rows' non-NaN
	// values span [lo, hi] can be selected.
	skip(lo, hi float32) bool
	// classify writes one point row's words into a and b, by assignment.
	classify(row []float32, a, b []uint64)
	// mark ORs into mask the points the pass selects from one row pair.
	mark(mask []uint64, p *rowPair, s *pairScratch)
}

// rowPair is one live row pair of a pass: its point rows (j, k), (j+1,
// k), (j, k+1), (j+1, k+1), and the pass's classified rows.
type rowPair struct {
	nx           int
	rows         [4]int
	a, b         *bitRows
	lastJ, lastK bool // no pair follows along j, along k
}

// words sets dst to the pair's four rows of m.
func (p *rowPair) words(m *bitRows, dst *[4][]uint64) {
	for i, r := range p.rows {
		dst[i] = m.row(r)
	}
}

// isoTest selects the points contouring at iso needs, by rule. a holds
// "below" (v < iso), b "above" (v >= iso); a NaN is neither.
type isoTest struct {
	iso  float64
	rule Rule
}

// skip: a straddling edge or cell has a non-NaN value below iso, so
// lo < iso, and one at or above it, so hi >= iso.
func (t isoTest) skip(lo, hi float32) bool {
	return float64(lo) >= t.iso || float64(hi) < t.iso
}

func (t isoTest) classify(row []float32, below, above []uint64) {
	for w := range below {
		var bw, aw uint64
		for i, v := range row[w*64 : min(len(row), w*64+64)] {
			if f := float64(v); f < t.iso {
				bw |= 1 << (i & 63)
			} else if f >= t.iso {
				aw |= 1 << (i & 63)
			}
		}
		below[w], above[w] = bw, aw
	}
}

func (t isoTest) mark(mask []uint64, p *rowPair, s *pairScratch) {
	bl, ab, m := &s.below, &s.above, &s.marks
	p.words(p.a, bl)
	p.words(p.b, ab)
	var anyBelow, anyAbove uint64
	for w := range bl[0] {
		anyBelow |= bl[0][w] | bl[1][w] | bl[2][w] | bl[3][w]
		anyAbove |= ab[0][w] | ab[1][w] | ab[2][w] | ab[3][w]
	}
	if anyBelow == 0 || anyAbove == 0 {
		return // no edge or cell of the pair straddles
	}
	if t.rule == RuleCells {
		straddle(bl, ab, s)
		for w := range s.cells {
			s.cells[w] &= s.valid[w]
		}
		markCellCorners(mask, s.cells, s.corners, p.nx, p.rows)
		return
	}
	// The edges no earlier pair holds: row (j, k)'s x, y and z edges, and
	// at the last j or k those of the rows no later pair starts from.
	for i := range m {
		clear(m[i])
	}
	xEdges(m[0], bl[0], ab[0])
	crossEdges(m[0], m[1], bl[0], ab[0], bl[1], ab[1])
	crossEdges(m[0], m[2], bl[0], ab[0], bl[2], ab[2])
	if p.lastJ {
		xEdges(m[1], bl[1], ab[1])
		crossEdges(m[1], m[3], bl[1], ab[1], bl[3], ab[3])
	}
	if p.lastK {
		xEdges(m[2], bl[2], ab[2])
		crossEdges(m[2], m[3], bl[2], ab[2], bl[3], ab[3])
		if p.lastJ {
			xEdges(m[3], bl[3], ab[3])
		}
	}
	// The NaN corners of cells whose non-NaN corners straddle.
	straddle(bl, ab, s)
	for w := range s.cells {
		s.cells[w] &^= s.valid[w]
	}
	if cellCorners(s.cells, s.corners, p.nx) {
		for i := range m {
			for w := range m[i] {
				m[i][w] |= s.corners[w] &^ (bl[i][w] | ab[i][w])
			}
		}
	}
	for i, r := range p.rows {
		orAligned(mask, r*p.nx, m[i], p.nx)
	}
}

// xEdges marks in dst both ends of every straddling edge within one row.
func xEdges(dst, below, above []uint64) {
	n := len(below)
	var carry uint64 // the previous word's top edge bit, for e<<1
	for w := 0; w < n; w++ {
		bs, as := below[w]>>1, above[w]>>1
		if w+1 < n {
			bs |= below[w+1] << 63
			as |= above[w+1] << 63
		}
		e := below[w]&as | above[w]&bs // bit i: the edge (i, i+1)
		dst[w] |= e | e<<1 | carry
		carry = e >> 63
	}
}

// crossEdges marks in da and db both ends of every straddling edge between two rows.
func crossEdges(da, db, belowA, aboveA, belowB, aboveB []uint64) {
	for w := range da {
		e := belowA[w]&aboveB[w] | aboveA[w]&belowB[w]
		da[w] |= e
		db[w] |= e
	}
}

// straddle sets s.cells to the row pair's cells whose non-NaN corners
// straddle the isovalue — some below it, some above — and s.valid to
// those whose eight corners are all non-NaN. Bit i is the cell between
// points i and i+1, so each word pairs the four rows' bits i and i+1.
func straddle(b, a *[4][]uint64, s *pairScratch) {
	word := func(w int) (below, above, valid uint64) {
		if w == len(s.cells) {
			return 0, 0, 0
		}
		return b[0][w] | b[1][w] | b[2][w] | b[3][w], a[0][w] | a[1][w] | a[2][w] | a[3][w],
			(b[0][w] | a[0][w]) & (b[1][w] | a[1][w]) & (b[2][w] | a[2][w]) & (b[3][w] | a[3][w])
	}
	bl, ab, v := word(0)
	for w := range s.cells {
		nb, na, nv := word(w + 1)
		s.cells[w] = (bl | bl>>1 | nb<<63) & (ab | ab>>1 | na<<63)
		s.valid[w] = v & (v>>1 | nv<<63)
		bl, ab, v = nb, na, nv
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

func (rangeTest) mark(mask []uint64, p *rowPair, s *pairScratch) {
	in, c := &s.below, s.cells
	p.words(p.a, in)
	for w := range c {
		c[w] = in[0][w] | in[1][w] | in[2][w] | in[3][w]
	}
	for w := range c {
		c[w] |= c[w] >> 1 // Pair corners along x.
		if w+1 < len(c) {
			c[w] |= c[w+1] << 63
		}
	}
	markCellCorners(mask, c, s.corners, p.nx, p.rows)
}

// livePairs is the pair-liveness test of a pass for t, shared by the
// sweep and the read planner (ContourRows, RangeRows): over the row
// pairs of a grid of s's dims — every pair when s is nil — it sets in
// need, one bit per point row, the four rows of each pair s leaves live,
// and appends the pair, as its first row << 2 | last-pair bits, to
// *pairs when pairs is not nil.
func (s *RowRanges) livePairs(t cellTest, need []uint64, pairs *[]int32) {
	ny, nz := s.dims.Y, s.dims.Z
	if s.dims.X < 2 {
		return // rows of one point hold no cell
	}
	// far is the row offset from a pair's near layer to its far one.
	far := ny
	for k := 0; k < nz-1; k++ {
		for j := 0; j < ny-1; j++ {
			p := k*ny + j
			if s.lo != nil {
				lo := min(s.lo[p], s.lo[p+1], s.lo[p+far], s.lo[p+far+1])
				hi := max(s.hi[p], s.hi[p+1], s.hi[p+far], s.hi[p+far+1])
				if t.skip(lo, hi) {
					continue
				}
			}
			if pairs != nil {
				last := 0 // bit 0: no pair follows along j; bit 1: none along k
				if j == ny-2 {
					last = 1
				}
				if k == nz-2 {
					last |= 2
				}
				*pairs = append(*pairs, int32(p<<2|last))
			}
			for _, r := range [4]int{p, p + 1, p + far, p + far + 1} {
				need[r>>6] |= 1 << (r & 63)
			}
		}
	}
}

// selectCorners runs one pass of the sweep for t over the row pairs s
// judges live, OR-ing the points t selects into mask.
func (s *RowRanges) selectCorners(g *grid.Uniform, values []float32, t cellTest, mask *bitset.Bitset) {
	nx, ny, nz := g.Dims.X, g.Dims.Y, g.Dims.Z
	if nx < 2 {
		return // rows of one point hold no cell
	}
	far := ny
	buf := getSweepBuf(nx, ny*nz)
	defer sweepPool.Put(buf)

	// The live pairs, each named by its first row, and the rows they read.
	if s == nil {
		s = &RowRanges{dims: g.Dims} // no bounds: every pair is live
	}
	s.livePairs(t, buf.need, &buf.pairs)
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

	// Sweep over the live pairs, word-parallel in x. It runs serially:
	// pair (j, k) writes into point layers k and k+1, so slabs split
	// across workers would share a boundary point layer of the mask.
	pr := &buf.rp
	*pr = rowPair{nx: nx, a: &buf.a, b: &buf.b}
	for _, e := range buf.pairs {
		p := int(e >> 2)
		pr.rows = [4]int{p, p + 1, p + far, p + far + 1}
		pr.lastJ, pr.lastK = e&1 != 0, e&2 != 0
		t.mark(mask.Words(), pr, &buf.pair)
	}
}

// bitRows is a packed bit matrix: one row of nx bits per (j,k) point row.
type bitRows struct {
	words    []uint64
	wordsPer int
}

// reset sizes b for rows rows of nx bits, keeping its backing array (and
// the words it held) when large enough.
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
	valid, cells, corners []uint64
	below, above          [4][]uint64 // the pair's classified rows
	marks                 [4][]uint64 // per row of the pair
}

// sweepBuf is one pass's working memory, recycled through sweepPool so a
// pass allocates nothing but its output mask.
type sweepBuf struct {
	a, b  bitRows  // classified rows; see cellTest
	need  []uint64 // one bit per point row, set when a live pair reads it
	pairs []int32  // live pairs: first row << 2 | last-pair bits
	rows  []int32  // rows to classify, ascending
	rp    rowPair
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
	for _, w := range []*[]uint64{&ps.valid, &ps.cells, &ps.corners, &ps.marks[0], &ps.marks[1], &ps.marks[2], &ps.marks[3]} {
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

// markCellCorners selects, in each of the four point rows, both x-corners
// of every cell whose bit is set in cells, using corners as scratch.
func markCellCorners(mask, cells, corners []uint64, nx int, rows [4]int) {
	if !cellCorners(cells, corners, nx) {
		return
	}
	for _, row := range rows {
		orAligned(mask, row*nx, corners, nx)
	}
}

// cellCorners sets corners to both x-corners of every cell whose bit is
// set in cells (bit i is the cell between points i and i+1) and reports
// whether there is one. Bit nx-1 of cells pairs the last point with
// nothing, so it is cleared first.
func cellCorners(cells, corners []uint64, nx int) bool {
	last := nx - 1
	cells[last>>6] &^= 1 << (last & 63)
	anyBits := uint64(0)
	for _, c := range cells {
		anyBits |= c
	}
	if anyBits == 0 {
		return false
	}
	// Bit i selects points i and i+1.
	for w := range cells {
		v := cells[w] | cells[w]<<1
		if w > 0 {
			v |= cells[w-1] >> 63
		}
		corners[w] = v
	}
	return true
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
