package contour

import (
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
// straddle bits back to point rows with the inverse shifts.

// bitRows is a packed bit matrix: one row of nx bits per (j,k) point row.
type bitRows struct {
	words    []uint64
	wordsPer int
	nx       int
}

func newBitRows(nx, rows int) *bitRows {
	wp := (nx + 63) / 64
	return &bitRows{words: make([]uint64, wp*rows), wordsPer: wp, nx: nx}
}

// row returns the word slice for row r.
func (b *bitRows) row(r int) []uint64 {
	return b.words[r*b.wordsPer : (r+1)*b.wordsPer]
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

// selectCellCornersBits computes the cell-corner selection for one
// isovalue using word-parallel sweeps, OR-ing results into mask.
func selectCellCornersBits(g *grid.Uniform, values []float32, iso float64, mask *bitset.Bitset) {
	nx, ny, nz := g.Dims.X, g.Dims.Y, g.Dims.Z
	rows := ny * nz

	below := newBitRows(nx, rows)
	nan := newBitRows(nx, rows)

	// Classification pass, parallel over rows.
	parallelRange(rows, func(r0, r1 int) {
		for r := r0; r < r1; r++ {
			b := below.row(r)
			nb := nan.row(r)
			base := r * nx
			for i := 0; i < nx; i++ {
				v := values[base+i]
				if isNaN32(v) {
					nb[i>>6] |= 1 << (i & 63)
					continue
				}
				if float64(v) < iso {
					b[i>>6] |= 1 << (i & 63)
				}
			}
		}
	})

	// Cell sweep: one cell layer (k) at a time, word-parallel in x. It
	// runs serially: cell layer k writes corner rows into point layers k
	// and k+1, so slabs split across workers would share a boundary point
	// layer of the mask. The scan is memory-bandwidth-bound, so the loss
	// on multi-core hosts is modest.
	wp := below.wordsPer
	maskWords := mask.Words()
	// Scratch buffers reused across rows.
	rowOr := make([]uint64, wp)
	rowAnd := make([]uint64, wp)
	rowNaN := make([]uint64, wp)
	shifted := make([]uint64, wp)
	straddle := make([]uint64, wp)
	corners := make([]uint64, wp)
	for k := 0; k < nz-1; k++ {
		for j := 0; j < ny-1; j++ {
			r00 := below.row(k*ny + j)
			r10 := below.row(k*ny + j + 1)
			r01 := below.row((k+1)*ny + j)
			r11 := below.row((k+1)*ny + j + 1)
			n00 := nan.row(k*ny + j)
			n10 := nan.row(k*ny + j + 1)
			n01 := nan.row((k+1)*ny + j)
			n11 := nan.row((k+1)*ny + j + 1)
			for w := 0; w < wp; w++ {
				rowOr[w] = r00[w] | r10[w] | r01[w] | r11[w]
				rowAnd[w] = r00[w] & r10[w] & r01[w] & r11[w]
				rowNaN[w] = n00[w] | n10[w] | n01[w] | n11[w]
			}
			// Pair corners along x.
			shiftRight1(shifted, rowOr)
			for w := 0; w < wp; w++ {
				straddle[w] = rowOr[w] | shifted[w]
			}
			shiftRight1(shifted, rowAnd)
			for w := 0; w < wp; w++ {
				straddle[w] &^= rowAnd[w] & shifted[w] // or != and
			}
			shiftRight1(shifted, rowNaN)
			for w := 0; w < wp; w++ {
				straddle[w] &^= rowNaN[w] | shifted[w] // no NaN corner
			}
			markCellCorners(maskWords, straddle, corners, nx,
				[4]int{k*ny + j, k*ny + j + 1, (k+1)*ny + j, (k+1)*ny + j + 1})
		}
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
		bits := src[w]
		// Trim bits beyond nbits in the final word.
		if w == full {
			rem := uint(nbits & 63)
			if rem != 0 {
				bits &= (1 << rem) - 1
			}
		} else if w > full {
			break
		}
		if bits == 0 {
			continue
		}
		dst[word+w] |= bits << shift
		if shift != 0 && word+w+1 < len(dst) {
			dst[word+w+1] |= bits >> (64 - shift)
		}
	}
}
