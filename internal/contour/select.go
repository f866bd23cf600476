package contour

import (
	"runtime"
	"sync"

	"vizndp/internal/bitset"
	"vizndp/internal/grid"
)

// SelectCellCorners marks the points the NDP pre-filter ships so the
// marching-cubes post-filter reproduces the full-array contour exactly:
// both ends of every interesting edge — an axis edge whose ends straddle
// one of the isovalues, neither NaN, the point set the paper measures in
// Fig. 6 — and the NaN corners of every cell whose non-NaN corners
// straddle one, so the post-filter skips the cells the full-array
// contour skips. It is (*RowRanges).SelectContour with RuleEdges over
// every row pair. (The name predates the edge rule; the benchmark
// harness still calls it by this name.)
func SelectCellCorners(g *grid.Uniform, values []float32, isovalues []float64) (*bitset.Bitset, error) {
	return (*RowRanges)(nil).SelectContour(g, values, isovalues, RuleEdges)
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

// Selectivity returns the fraction of points selected by mask.
func Selectivity(mask *bitset.Bitset) float64 {
	if mask.Len() == 0 {
		return 0
	}
	return float64(mask.Count()) / float64(mask.Len())
}
