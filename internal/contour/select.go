package contour

import (
	"runtime"
	"sync"

	"vizndp/internal/bitset"
	"vizndp/internal/grid"
)

// straddles reports whether the edge (va, vb) crosses iso under the same
// classification the contour filters use (inside = value < iso). NaN
// endpoints never straddle.
func straddles(va, vb float32, iso float64) bool {
	if isNaN32(va) || isNaN32(vb) {
		return false
	}
	a := float64(va) < iso
	b := float64(vb) < iso
	return a != b
}

// InterestingEdgePoints marks every mesh point incident to at least one
// axis-aligned "interesting edge" — an edge whose endpoint values
// straddle one of the isovalues. This is exactly the point set the paper
// measures in Fig. 6 and the minimal information a classic marching-cubes
// post-filter needs.
func InterestingEdgePoints(g *grid.Uniform, values []float32, isovalues []float64) (*bitset.Bitset, error) {
	if err := validateInputs(g, values, isovalues); err != nil {
		return nil, err
	}
	nx, ny, nz := g.Dims.X, g.Dims.Y, g.Dims.Z
	strideY := nx
	strideZ := nx * ny

	mask := parallelSlabs(nz, g.NumPoints(), func(k0, k1 int, local *bitset.Bitset) {
		for k := k0; k < k1; k++ {
			for j := 0; j < ny; j++ {
				base := k*strideZ + j*strideY
				for i := 0; i < nx; i++ {
					idx := base + i
					v := values[idx]
					for _, iso := range isovalues {
						// +x, +y, +z neighbours; edges in the negative
						// directions are covered from their other endpoint.
						if i+1 < nx && straddles(v, values[idx+1], iso) {
							local.Set(idx)
							local.Set(idx + 1)
						}
						if j+1 < ny && straddles(v, values[idx+strideY], iso) {
							local.Set(idx)
							local.Set(idx + strideY)
						}
						if k+1 < nz && straddles(v, values[idx+strideZ], iso) {
							local.Set(idx)
							local.Set(idx + strideZ)
						}
					}
				}
			}
		}
	})
	return mask, nil
}

// SelectCellCorners marks every corner point of each "interesting cell" —
// a cell whose corner values straddle one of the isovalues. This is the
// selection the NDP pre-filter ships: it is a small superset of
// InterestingEdgePoints and guarantees the marching-tetrahedra
// post-filter reproduces the full-array contour exactly, because every
// cell that can emit geometry arrives with all of its corners. It is the
// bit-row sweep of selectbits.go over every row pair;
// (*RowRanges).SelectCellCorners is the same sweep over the live ones.
func SelectCellCorners(g *grid.Uniform, values []float32, isovalues []float64) (*bitset.Bitset, error) {
	return (*RowRanges)(nil).SelectCellCorners(g, values, isovalues)
}

// parallelRange splits [0,n) across workers.
func parallelRange(n int, work func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		work(0, n)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := n * w / workers
		hi := n * (w + 1) / workers
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			work(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// parallelSlabs splits layers [0,n) across workers, each filling a local
// bitmap of nbits, and ORs the results together. Local bitmaps avoid
// write contention on the shared layer between adjacent slabs.
func parallelSlabs(n, nbits int, work func(k0, k1 int, local *bitset.Bitset)) *bitset.Bitset {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		mask := bitset.New(nbits)
		work(0, n, mask)
		return mask
	}
	locals := make([]*bitset.Bitset, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		k0 := n * w / workers
		k1 := n * (w + 1) / workers
		locals[w] = bitset.New(nbits)
		wg.Add(1)
		go func(w, k0, k1 int) {
			defer wg.Done()
			work(k0, k1, locals[w])
		}(w, k0, k1)
	}
	wg.Wait()
	mask := locals[0]
	for _, l := range locals[1:] {
		mask.Or(l)
	}
	return mask
}

// Selectivity returns the fraction of points selected by mask.
func Selectivity(mask *bitset.Bitset) float64 {
	if mask.Len() == 0 {
		return 0
	}
	return float64(mask.Count()) / float64(mask.Len())
}
