package contour

import (
	"fmt"
	"math"

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
// [lo, hi] (VTK's "any point" threshold mode). Points valued NaN — data
// withheld by the NDP pre-filter — never satisfy the range, which keeps
// sparse evaluation exact: see SelectRangeCorners.
func ThresholdCells(g *grid.Uniform, values []float32, lo, hi float64) (*CellSet, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if len(values) != g.NumPoints() {
		return nil, fmt.Errorf("contour: %d values for %d grid points", len(values), g.NumPoints())
	}
	if err := validateRange(lo, hi); err != nil {
		return nil, err
	}
	nx, ny, nz := g.Dims.X, g.Dims.Y, g.Dims.Z
	strideY := nx
	strideZ := nx * ny
	out := &CellSet{}

	if g.Is2D() {
		cellsX := nx - 1
		for j := 0; j < ny-1; j++ {
			for i := 0; i < cellsX; i++ {
				idx := j*strideY + i
				if inRange(values[idx], lo, hi) || inRange(values[idx+1], lo, hi) ||
					inRange(values[idx+strideY], lo, hi) || inRange(values[idx+strideY+1], lo, hi) {
					out.Cells = append(out.Cells, int32(j*cellsX+i))
				}
			}
		}
		return out, nil
	}

	cellsX, cellsY := nx-1, ny-1
	for k := 0; k < nz-1; k++ {
		for j := 0; j < cellsY; j++ {
			base := k*strideZ + j*strideY
			for i := 0; i < cellsX; i++ {
				idx := base + i
				if inRange(values[idx], lo, hi) || inRange(values[idx+1], lo, hi) ||
					inRange(values[idx+strideY], lo, hi) || inRange(values[idx+strideY+1], lo, hi) ||
					inRange(values[idx+strideZ], lo, hi) || inRange(values[idx+strideZ+1], lo, hi) ||
					inRange(values[idx+strideZ+strideY], lo, hi) || inRange(values[idx+strideZ+strideY+1], lo, hi) {
					out.Cells = append(out.Cells, int32((k*cellsY+j)*cellsX+i))
				}
			}
		}
	}
	return out, nil
}

// SelectRangeCorners marks every corner of every cell the threshold
// filter keeps. Shipping exactly these points makes sparse threshold
// evaluation exact: kept cells arrive with all corners; dropped cells
// have no in-range corner anywhere, so whatever subset of their corners
// arrives (via neighbouring kept cells) still fails the predicate.
func SelectRangeCorners(g *grid.Uniform, values []float32, lo, hi float64) (*bitset.Bitset, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if len(values) != g.NumPoints() {
		return nil, fmt.Errorf("contour: %d values for %d grid points", len(values), g.NumPoints())
	}
	if err := validateRange(lo, hi); err != nil {
		return nil, err
	}
	nx, ny, nz := g.Dims.X, g.Dims.Y, g.Dims.Z

	// Classify points into bit rows (bit i set when point i of the row is
	// in range, never for NaN), then sweep cells 64 per word as
	// selectCellCornersBits does: a cell is kept where the OR of its
	// corner rows, paired along x with its one-bit shift, is set.
	in := newBitRows(nx, ny*nz)
	parallelRange(ny*nz, func(r0, r1 int) {
		for r := r0; r < r1; r++ {
			b := in.row(r)
			for i, v := range values[r*nx : (r+1)*nx] {
				if f := float64(v); f >= lo && f <= hi {
					b[i>>6] |= 1 << (i & 63)
				}
			}
		}
	})

	// A 2-D grid has one cell layer whose corners all lie in point layer
	// 0, so its far corner rows repeat the near ones.
	layers, dk := nz-1, 1
	if g.Is2D() {
		layers, dk = 1, 0
	}
	mask := bitset.New(g.NumPoints())
	cells := make([]uint64, in.wordsPer)
	shifted := make([]uint64, in.wordsPer)
	corners := make([]uint64, in.wordsPer)
	for k := 0; k < layers; k++ {
		for j := 0; j < ny-1; j++ {
			rows := [4]int{k*ny + j, k*ny + j + 1, (k+dk)*ny + j, (k+dk)*ny + j + 1}
			r00, r10, r01, r11 := in.row(rows[0]), in.row(rows[1]), in.row(rows[2]), in.row(rows[3])
			for w := range cells {
				cells[w] = r00[w] | r10[w] | r01[w] | r11[w]
			}
			shiftRight1(shifted, cells)
			for w := range cells {
				cells[w] |= shifted[w]
			}
			markCellCorners(mask.Words(), cells, corners, nx, rows)
		}
	}
	return mask, nil
}
