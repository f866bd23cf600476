package contour

import (
	"fmt"

	"vizndp/internal/grid"
)

// cell edge numbering for marching squares, with corners
// c0=(i,j) c1=(i+1,j) c2=(i+1,j+1) c3=(i,j+1):
//
//	edge 0: c0-c1 (bottom)   edge 1: c1-c2 (right)
//	edge 2: c3-c2 (top)      edge 3: c0-c3 (left)
var squareEdges = [4][2]int{{0, 1}, {1, 2}, {3, 2}, {0, 3}}

// squareCases maps the 4-bit inside mask (bit i set when corner i is
// inside, i.e. value < isovalue) to the contour segments as pairs of edge
// numbers. The two saddle cases (5 and 10) are resolved at runtime with
// the cell-centre average and handled separately.
var squareCases = [16][][2]int{
	0:  nil,
	1:  {{3, 0}},
	2:  {{0, 1}},
	3:  {{3, 1}},
	4:  {{1, 2}},
	5:  nil, // saddle, resolved at runtime
	6:  {{0, 2}},
	7:  {{3, 2}},
	8:  {{2, 3}},
	9:  {{0, 2}},
	10: nil, // saddle, resolved at runtime
	11: {{1, 2}},
	12: {{3, 1}},
	13: {{0, 1}},
	14: {{3, 0}},
	15: nil,
}

// MarchingSquares extracts isolines of a 2D grid (Dims.Z == 1) at each
// isovalue. NaN cells are skipped, with the same semantics as the 3D
// filter.
func MarchingSquares(g *grid.Uniform, values []float32, isovalues []float64) (*LineSet, error) {
	if err := validateMarch(g, values, isovalues); err != nil {
		return nil, err
	}
	if !g.Is2D() {
		return nil, fmt.Errorf("contour: grid %v is 3D; use MarchingTetrahedra", g.Dims)
	}

	ls := &LineSet{}
	verts := make(map[uint64]int32)
	nx, ny := g.Dims.X, g.Dims.Y

	var cornerIdx [4]int
	var cornerVal [4]float64
	var cornerPos [4]grid.Vec3

	for j := 0; j < ny-1; j++ {
		for i := 0; i < nx-1; i++ {
			offs := [4][2]int{{0, 0}, {1, 0}, {1, 1}, {0, 1}}
			hasNaN := false
			for c, o := range offs {
				idx := (j+o[1])*nx + i + o[0]
				v := values[idx]
				if isNaN32(v) {
					hasNaN = true
					break
				}
				cornerIdx[c] = idx
				cornerVal[c] = float64(v)
				cornerPos[c] = g.PointPosition(i+o[0], j+o[1], 0)
			}
			if hasNaN {
				continue
			}
			for isoIdx, iso := range isovalues {
				mask := 0
				for c := 0; c < 4; c++ {
					if cornerVal[c] < iso {
						mask |= 1 << c
					}
				}
				if mask == 0 || mask == 15 {
					continue
				}
				segs := squareCases[mask]
				if mask == 5 || mask == 10 {
					center := (cornerVal[0] + cornerVal[1] + cornerVal[2] + cornerVal[3]) / 4
					centerInside := center < iso
					if (mask == 5) == centerInside {
						// Inside corners connect through the middle: cut
						// off the two outside corners.
						segs = [][2]int{{0, 1}, {2, 3}}
					} else {
						segs = [][2]int{{3, 0}, {1, 2}}
					}
				}
				for _, s := range segs {
					a := squareEdgeVert(ls, verts, &cornerIdx, &cornerVal, &cornerPos,
						s[0], iso, uint64(isoIdx))
					b := squareEdgeVert(ls, verts, &cornerIdx, &cornerVal, &cornerPos,
						s[1], iso, uint64(isoIdx))
					ls.Segments = append(ls.Segments, [2]int32{a, b})
				}
			}
		}
	}
	return ls, nil
}

func squareEdgeVert(ls *LineSet, verts map[uint64]int32,
	idx *[4]int, val *[4]float64, pos *[4]grid.Vec3,
	edge int, iso float64, isoIdx uint64) int32 {

	ca, cb := squareEdges[edge][0], squareEdges[edge][1]
	ga, gb := idx[ca], idx[cb]
	pa, pb := pos[ca], pos[cb]
	va, vb := val[ca], val[cb]
	if ga > gb {
		ga, gb = gb, ga
		pa, pb = pb, pa
		va, vb = vb, va
	}
	key := uint64(ga)<<36 | uint64(gb)<<8 | isoIdx
	if vi, ok := verts[key]; ok {
		return vi
	}
	t := 0.5
	// vizlint:ignore floateq degenerate-edge guard: equal endpoints would divide by zero below
	if va != vb {
		t = (iso - va) / (vb - va)
		if t < 0 {
			t = 0
		} else if t > 1 {
			t = 1
		}
	}
	p := pa.Add(pb.Sub(pa).Scale(t))
	vi := int32(len(ls.Vertices))
	ls.Vertices = append(ls.Vertices, p)
	verts[key] = vi
	return vi
}
