package contour

import (
	"fmt"
	"math"
	"math/bits"

	"vizndp/internal/bitset"
	"vizndp/internal/grid"
)

// The paper's prototype offloads a single filter type (contouring) and
// names extending to more filters as future work. This file adds that
// extension: a threshold filter — keep every cell with at least one
// corner value inside [Lo, Hi] — split the same way into a storage-side
// selection and a client-side evaluation.

// CellSet is the output of a threshold filter: the kept cells, by flat
// cell index (x-fastest ordering over the (nx-1)(ny-1)(nz-1) cell grid).
type CellSet struct {
	Cells []int32
}

// Count returns the number of kept cells.
func (c *CellSet) Count() int { return len(c.Cells) }

// Equal reports whether two cell sets are identical.
func (c *CellSet) Equal(o *CellSet) bool {
	if len(c.Cells) != len(o.Cells) {
		return false
	}
	for i := range c.Cells {
		if c.Cells[i] != o.Cells[i] {
			return false
		}
	}
	return true
}

func validateRange(lo, hi float64) error {
	if math.IsNaN(lo) || math.IsNaN(hi) {
		return fmt.Errorf("contour: NaN threshold bound")
	}
	if lo > hi {
		return fmt.Errorf("contour: threshold range [%v, %v] is empty", lo, hi)
	}
	return nil
}

// inRange reports whether v lies in [lo, hi]; NaN never does.
func inRange(v float32, lo, hi float64) bool {
	if isNaN32(v) {
		return false
	}
	f := float64(v)
	return f >= lo && f <= hi
}

// ThresholdCells returns the cells with at least one corner value inside
// [lo, hi] (VTK's "any point" threshold mode). A NaN value never
// satisfies the range.
func ThresholdCells(g *grid.Uniform, values []float32, lo, hi float64) (*CellSet, error) {
	if err := validateField(g, values); err != nil {
		return nil, err
	}
	if err := validateRange(lo, hi); err != nil {
		return nil, err
	}
	return threshold(g.Dims, values, nonNaNBits(values), lo, hi), nil
}

// ThresholdCellsSparse is ThresholdCells for a field that is known only
// at the points marked in present — the NDP payload's own form. It reads
// values nowhere else, so the rest of values may hold anything. The cell
// set equals the one ThresholdCells returns for the same values with NaN
// at every absent point: an absent corner, like a NaN one, is never in
// range, which keeps sparse evaluation exact (see SelectRangeCorners).
func ThresholdCellsSparse(g *grid.Uniform, values []float32, present *bitset.Bitset, lo, hi float64) (*CellSet, error) {
	if err := validateField(g, values); err != nil {
		return nil, err
	}
	if present.Len() != len(values) {
		return nil, fmt.Errorf("contour: presence of %d bits for %d values", present.Len(), len(values))
	}
	if err := validateRange(lo, hi); err != nil {
		return nil, err
	}
	return threshold(g.Dims, values, present.Words(), lo, hi), nil
}

// threshold keeps the cells with a present corner in [lo, hi]. It marks
// those corners first, reading values only where present is set, then
// ORs the marks of each cell's eight corners 64 cells to a word, in the
// k/j/i order of the cell index.
func threshold(d grid.Dims, values []float32, present []uint64, lo, hi float64) *CellSet {
	in := make([]uint64, len(present))
	for w, word := range present {
		for ; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			if i := w<<6 | b; i < len(values) && inRange(values[i], lo, hi) {
				in[w] |= 1 << uint(b)
			}
		}
	}
	nx, ny := d.X, d.Y
	layer := nx * ny
	any4 := func(p int) uint64 {
		return bitsAt(in, p) | bitsAt(in, p+nx) | bitsAt(in, p+layer) | bitsAt(in, p+layer+nx)
	}
	out := &CellSet{}
	for k := 0; k < d.Z-1; k++ {
		for j := 0; j < ny-1; j++ {
			for i0 := 0; i0 < nx-1; i0 += 64 {
				// Bit b: one of the four rows' points i0+b or i0+b+1 is
				// in range, which is cell i0+b.
				p := k*layer + j*nx + i0
				m := any4(p) | any4(p+1)
				if n := nx - 1 - i0; n < 64 {
					m &= 1<<uint(n) - 1
				}
				cell := (k*(ny-1)+j)*(nx-1) + i0
				for ; m != 0; m &= m - 1 {
					out.Cells = append(out.Cells, int32(cell+bits.TrailingZeros64(m)))
				}
			}
		}
	}
	return out
}

// SelectRangeCorners marks every corner of every cell the threshold
// filter keeps. Shipping exactly these points makes sparse threshold
// evaluation exact: kept cells arrive with all corners; dropped cells
// have no in-range corner anywhere, so whatever subset of their corners
// arrives (via neighbouring kept cells) still fails the predicate. It is
// the bit-row sweep of selectbits.go over every row pair, with a cell kept
// where the OR of its corner rows, paired along x, is set.
func SelectRangeCorners(g *grid.Uniform, values []float32, lo, hi float64) (*bitset.Bitset, error) {
	return (*RowRanges)(nil).SelectRangeCorners(g, values, lo, hi)
}
