package contour

import (
	"runtime"
	"sync"

	"vizndp/internal/bitset"
	"vizndp/internal/grid"
)

// selectCellCornersGeneric is RuleCells as a per-cell scan, the select
// the bit-row sweep replaced. It stays as the oracle RuleCells is held
// to.
func selectCellCornersGeneric(g *grid.Uniform, values []float32, isovalues []float64) *bitset.Bitset {
	nx, ny, nz := g.Dims.X, g.Dims.Y, g.Dims.Z
	strideY := nx
	strideZ := nx * ny

	cellLayers := nz - 1
	return parallelSlabs(cellLayers, g.NumPoints(), func(k0, k1 int, local *bitset.Bitset) {
		var corners [8]int
		for k := k0; k < k1; k++ {
			for j := 0; j < ny-1; j++ {
				base := k*strideZ + j*strideY
				for i := 0; i < nx-1; i++ {
					idx := base + i
					corners = [8]int{
						idx, idx + 1,
						idx + strideY, idx + strideY + 1,
						idx + strideZ, idx + strideZ + 1,
						idx + strideZ + strideY, idx + strideZ + strideY + 1,
					}
					if cellStraddles(values, corners[:], isovalues) {
						for _, c := range corners {
							local.Set(c)
						}
					}
				}
			}
		}
	})
}

// cellStraddles reports whether the cell's corner values cross any
// isovalue. Cells containing NaN never straddle.
func cellStraddles(values []float32, corners []int, isovalues []float64) bool {
	lo := values[corners[0]]
	hi := lo
	for _, c := range corners[1:] {
		v := values[c]
		if isNaN32(v) {
			return false
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if isNaN32(lo) {
		return false
	}
	for _, iso := range isovalues {
		if float64(lo) < iso && float64(hi) >= iso {
			return true
		}
	}
	return false
}

// The reference contour: a scalar walk over every cell with a map
// dedupe, driven by the generated case table. It stays as the oracle the
// kernel's sweep, work list and rolling edge slots are tested against:
// every mesh the kernel produces must Equal the one this walk produces,
// vertex for vertex and in the same order. The table itself is held to
// the face rule by the table tests in cubes_test.go.

// marchReference contours values over g with the reference walk: visit
// every cell, gather its eight corners, skip it at the first NaN, and
// deduplicate vertices through a map keyed by (edge, isovalue).
func marchReference(g *grid.Uniform, values []float32, isovalues []float64) *Mesh {
	mesh := &Mesh{}
	verts := make(map[uint64]int32)
	dims := g.Dims
	nx, ny := dims.X, dims.Y
	strideY := nx
	strideZ := nx * ny

	var cornerIdx [8]int
	var cornerVal [8]float64
	var cornerPos [8]grid.Vec3

	for k := 0; k < dims.Z-1; k++ {
		for j := 0; j < ny-1; j++ {
			base := k*strideZ + j*strideY
			for i := 0; i < nx-1; i++ {
				hasNaN := false
				for c := 0; c < 8; c++ {
					dx, dy, dz := c&1, (c>>1)&1, (c>>2)&1
					idx := base + i + dx + dy*strideY + dz*strideZ
					if isNaN32(values[idx]) {
						hasNaN = true
						break
					}
					cornerIdx[c] = idx
					cornerVal[c] = float64(values[idx])
					cornerPos[c] = g.PointPosition(i+dx, j+dy, k+dz)
				}
				if hasNaN {
					continue
				}
				for isoIdx, iso := range isovalues {
					inside := 0
					for c, v := range cornerVal {
						if v < iso {
							inside |= 1 << c
						}
					}
					edges := cubeTris[inside]
					for t := 0; t < len(edges); t += 3 {
						var tri [3]int32
						for n, e := range edges[t : t+3] {
							a := int(cubeEdgeLo[e])
							b := a | 1<<(e/4)
							key := uint64(cornerIdx[a])<<36 | uint64(cornerIdx[b])<<8 | uint64(isoIdx)
							vi, ok := verts[key]
							if !ok {
								va, vb := cornerVal[a], cornerVal[b]
								pa, pb := cornerPos[a], cornerPos[b]
								tt := (iso - va) / (vb - va)
								if tt < 0 {
									tt = 0
								} else if tt > 1 {
									tt = 1
								}
								vi = int32(len(mesh.Vertices))
								mesh.Vertices = append(mesh.Vertices, pa.Add(pb.Sub(pa).Scale(tt)))
								verts[key] = vi
							}
							tri[n] = vi
						}
						mesh.Tris = append(mesh.Tris, tri)
					}
				}
			}
		}
	}
	return mesh
}

// The reference selections. InterestingEdgePoints is the paper's Fig. 6
// metric as a scalar loop; selectEdgesGeneric adds RuleEdges' NaN
// corners to it. The sweep is held to both.

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
// measures in Fig. 6 and the values marching cubes interpolates.
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

// selectEdgesGeneric is RuleEdges cell by cell: InterestingEdgePoints
// plus the NaN corners of every cell whose non-NaN corners straddle an
// isovalue. A grid whose rows or columns are one point long has edges
// but no cell, so no contour, and nothing is selected.
func selectEdgesGeneric(g *grid.Uniform, values []float32, isovalues []float64) *bitset.Bitset {
	nx, ny, nz := g.Dims.X, g.Dims.Y, g.Dims.Z
	if nx < 2 || ny < 2 {
		return bitset.New(g.NumPoints())
	}
	mask, err := InterestingEdgePoints(g, values, isovalues)
	if err != nil {
		panic(err)
	}
	for k := 0; k < nz-1; k++ {
		for j := 0; j < ny-1; j++ {
			for i := 0; i < nx-1; i++ {
				c := g.PointIndex(i, j, k)
				corners := [8]int{c, c + 1, c + nx, c + nx + 1, c + nx*ny, c + nx*ny + 1, c + nx*ny + nx, c + nx*ny + nx + 1}
				for _, iso := range isovalues {
					below, above, nan := false, false, false
					for _, p := range corners {
						switch v := values[p]; {
						case isNaN32(v):
							nan = true
						case float64(v) < iso:
							below = true
						default:
							above = true
						}
					}
					if nan && below && above {
						for _, p := range corners {
							if isNaN32(values[p]) {
								mask.Set(p)
							}
						}
					}
				}
			}
		}
	}
	return mask
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
