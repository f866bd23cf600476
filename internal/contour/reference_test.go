package contour

import (
	"math"

	"vizndp/internal/bitset"
	"vizndp/internal/grid"
)

// selectCellCornersGeneric is the straightforward per-cell scan the
// cell-corner select ran before the bit-row sweep replaced it. It stays
// as the oracle the sweep is held to.
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

// The reference contour: the per-cell scan and map dedupe that
// MarchingTetrahedra ran before the bit-parallel cell enumerator and the
// rolling edge table replaced them. It stays as the oracle the kernel is
// tested against (as selectCellCornersGeneric is for the select scan):
// every mesh the kernel produces must Equal the one this walk produces,
// vertex for vertex and in the same order.

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
				// Gather the cell's corners; reject NaN cells early.
				lo := math.Inf(1)
				hi := math.Inf(-1)
				hasNaN := false
				for c := 0; c < 8; c++ {
					dx, dy, dz := c&1, (c>>1)&1, (c>>2)&1
					idx := base + i + dx + dy*strideY + dz*strideZ
					v := values[idx]
					if isNaN32(v) {
						hasNaN = true
						break
					}
					cornerIdx[c] = idx
					fv := float64(v)
					cornerVal[c] = fv
					if fv < lo {
						lo = fv
					}
					if fv > hi {
						hi = fv
					}
				}
				if hasNaN {
					continue
				}
				for isoIdx, iso := range isovalues {
					// The cell contributes only if some corner is inside
					// (v < iso) and some outside (v >= iso).
					if lo >= iso || hi < iso {
						continue
					}
					for c := 0; c < 8; c++ {
						dx, dy, dz := c&1, (c>>1)&1, (c>>2)&1
						cornerPos[c] = g.PointPosition(i+dx, j+dy, k+dz)
					}
					for _, tet := range kuhnTets {
						marchTetReference(mesh, verts, &cornerIdx, &cornerVal, &cornerPos,
							tet, iso, uint64(isoIdx))
					}
				}
			}
		}
	}
	return mesh
}

// marchTetReference emits the triangles for one tetrahedron of the
// reference walk.
func marchTetReference(mesh *Mesh, verts map[uint64]int32,
	idx *[8]int, val *[8]float64, pos *[8]grid.Vec3,
	tet [4]int, iso float64, isoIdx uint64) {

	var inside, outside [4]int
	ni, no := 0, 0
	for _, c := range tet {
		if val[c] < iso {
			inside[ni] = c
			ni++
		} else {
			outside[no] = c
			no++
		}
	}
	if ni == 0 || ni == 4 {
		return
	}

	// edgeVert returns the deduplicated interpolated vertex on edge (a,b).
	edgeVert := func(a, b int) int32 {
		ga, gb := idx[a], idx[b]
		pa, pb := pos[a], pos[b]
		va, vb := val[a], val[b]
		if ga > gb {
			ga, gb = gb, ga
			pa, pb = pb, pa
			va, vb = vb, va
		}
		key := uint64(ga)<<36 | uint64(gb)<<8 | isoIdx
		if vi, ok := verts[key]; ok {
			return vi
		}
		t := (iso - va) / (vb - va)
		if t < 0 {
			t = 0
		} else if t > 1 {
			t = 1
		}
		p := pa.Add(pb.Sub(pa).Scale(t))
		vi := int32(len(mesh.Vertices))
		mesh.Vertices = append(mesh.Vertices, p)
		verts[key] = vi
		return vi
	}

	// addTri appends a triangle wound so its normal points from the
	// inside region (v < iso) toward the outside region.
	addTri := func(a, b, c int32, outward grid.Vec3) {
		pa, pb, pc := mesh.Vertices[a], mesh.Vertices[b], mesh.Vertices[c]
		n := pb.Sub(pa).Cross(pc.Sub(pa))
		if n.Dot(outward) < 0 {
			b, c = c, b
		}
		mesh.Tris = append(mesh.Tris, [3]int32{a, b, c})
	}

	// outward direction: from the inside corners' centroid toward the
	// outside corners' centroid.
	var cin, cout grid.Vec3
	for i := 0; i < ni; i++ {
		cin = cin.Add(pos[inside[i]])
	}
	for i := 0; i < no; i++ {
		cout = cout.Add(pos[outside[i]])
	}
	outward := cout.Scale(1 / float64(no)).Sub(cin.Scale(1 / float64(ni)))

	switch ni {
	case 1:
		a := edgeVert(inside[0], outside[0])
		b := edgeVert(inside[0], outside[1])
		c := edgeVert(inside[0], outside[2])
		addTri(a, b, c, outward)
	case 3:
		a := edgeVert(inside[0], outside[0])
		b := edgeVert(inside[1], outside[0])
		c := edgeVert(inside[2], outside[0])
		addTri(a, b, c, outward)
	case 2:
		// Quad across the tet: edges (i0,o0), (i0,o1), (i1,o1), (i1,o0)
		// in cyclic order, split into two triangles.
		q0 := edgeVert(inside[0], outside[0])
		q1 := edgeVert(inside[0], outside[1])
		q2 := edgeVert(inside[1], outside[1])
		q3 := edgeVert(inside[1], outside[0])
		addTri(q0, q1, q2, outward)
		addTri(q0, q2, q3, outward)
	}
}
