package contour

import (
	"fmt"
	"math"
	"math/bits"

	"vizndp/internal/bitset"
	"vizndp/internal/grid"
)

// maxPointsForKey bounds grid sizes so a (cell, isovalue, case) work-list
// entry packs into a uint64: 28 bits of point index and 8 bits of
// isovalue index cover grids beyond the paper's 500^3.
const maxPointsForKey = 1 << 28

// The marching-cubes case table is generated from one face rule, not
// typed in. Corner c of a cell sits at offsets (dx,dy,dz) with c = dx +
// 2*dy + 4*dz; edge e runs along axis e/4 from corner cubeEdgeLo[e].
//
// The face rule: walking a face's corners counter-clockwise as seen from
// outside, each run of inside corners yields one segment, from the
// crossing where the walk enters the run to the one where it leaves. So
// an ambiguous face separates its inside corners, and the inside lies on
// every segment's right. The rule reads only the face's corner bits, so
// two cells sharing a face put the same segments on it: the surface is
// watertight. Each crossing is entered on one of its faces and left on
// the other, so the segments chain into loops; fanning each loop winds
// the triangles' normals from inside (v < iso) to outside.
var cubeEdgeLo = [12]uint8{0, 2, 4, 6, 0, 1, 4, 5, 0, 1, 2, 3}

var (
	// cubeTris[m] lists, three edges to a triangle, the triangles of a
	// cell whose inside corners are the set bits of m.
	cubeTris [256][]uint8
	// cubeFill[pm][in] completes in, the inside bits of the present
	// corners pm, to all eight corners: in a fixed order, each absent
	// corner takes the side of its first known neighbour along x, y, z.
	// It is 0 — a case with no triangles — when the surface would then
	// cross an edge with an absent end, which no selection ships. Only
	// in ⊆ pm is filled.
	cubeFill [256][256]uint8
)

// cubeEdge returns the edge joining corners c1 and c2, one bit apart.
func cubeEdge(c1, c2 int) int {
	axis, lo := bits.TrailingZeros(uint(c1^c2)), c1&c2
	return axis*4 + lo&(1<<axis-1) | lo>>(axis+1)<<axis
}

// cubeCuts returns, one bit per edge, the edges of case m whose ends lie
// on different sides, among those with both ends in mask.
func cubeCuts(m, mask int) (cuts uint16) {
	for e, lo := range cubeEdgeLo {
		hi := int(lo) | 1<<(e/4)
		if m>>lo&1 != m>>hi&1 && mask>>lo&1 != 0 && mask>>hi&1 != 0 {
			cuts |= 1 << e
		}
	}
	return cuts
}

func init() {
	for m := range cubeTris {
		// next[e] is the crossing a segment leads to from crossing e.
		var next [12]int
		for f := 0; f < 6; f++ {
			// Face f is side f&1 of axis f/2; (u, v, its outward normal)
			// is right-handed, so these corners run counter-clockwise.
			axis, side := f/2, f&1
			u, v := (axis+1)%3, (axis+2)%3
			if side == 0 {
				u, v = v, u
			}
			base := side << axis
			corners := [4]int{base, base | 1<<u, base | 1<<u | 1<<v, base | 1<<v}
			for t, c := range corners {
				prev := corners[(t+3)%4]
				if m>>prev&1 != 0 || m>>c&1 == 0 {
					continue // not where the walk enters a run
				}
				last := t // the run's last inside corner
				for m>>corners[(last+1)%4]&1 != 0 {
					last++
				}
				next[cubeEdge(prev, c)] = cubeEdge(corners[last%4], corners[(last+1)%4])
			}
		}
		for cuts := cubeCuts(m, 255); cuts != 0; {
			loop := []int{bits.TrailingZeros16(cuts)}
			for e := next[loop[0]]; e != loop[0]; e = next[e] {
				loop = append(loop, e)
			}
			for i, e := range loop {
				cuts &^= 1 << e
				if i >= 2 {
					cubeTris[m] = append(cubeTris[m], uint8(loop[0]), uint8(loop[i-1]), uint8(e))
				}
			}
		}
	}
	for pm := 0; pm < 256; pm++ {
		for in := pm; ; in = (in - 1) & pm {
			side, known := in, pm
			for known != 0 && known != 255 {
				for c := 0; c < 8; c++ {
					for axis := 0; axis < 3 && known>>c&1 == 0; axis++ {
						if n := c ^ 1<<axis; known>>n&1 != 0 {
							side |= side >> n & 1 << c
							known |= 1 << c
						}
					}
				}
			}
			if cubeCuts(side, 255) != cubeCuts(side, pm) {
				side = 0
			}
			cubeFill[pm][in] = uint8(side)
			if in == 0 {
				break
			}
		}
	}
}

// MarchingTetrahedra extracts the isosurfaces of values over g at the
// isovalues with marching cubes, as one indexed mesh; the name predates
// the cube table, and the benchmark harness still calls it. A point is
// inside when its value is below the isovalue, so a flat region exactly
// at it has no surface. A cell with a NaN corner is skipped.
func MarchingTetrahedra(g *grid.Uniform, values []float32, isovalues []float64) (*Mesh, error) {
	if err := validateMarch(g, values, isovalues); err != nil {
		return nil, err
	}
	return march(g, values, nil, isovalues), nil
}

// MarchingCubesSparse is MarchingTetrahedra for a field known only at
// the points marked in present — the NDP payload's own form — and reads
// values nowhere else. A cell is marched when some edge has both ends
// present; an absent corner takes its side from a present neighbour, and
// a present NaN corner skips the cell. When present holds a pre-filter
// selection of a field (either Rule), the mesh equals MarchingTetrahedra's
// over the whole field, vertex for vertex. For any presence the mesh is
// a function of the present points alone.
func MarchingCubesSparse(g *grid.Uniform, values []float32, present *bitset.Bitset, isovalues []float64) (*Mesh, error) {
	if err := validateMarch(g, values, isovalues); err != nil {
		return nil, err
	}
	if present.Len() != len(values) {
		return nil, fmt.Errorf("contour: presence of %d bits for %d values", present.Len(), len(values))
	}
	return march(g, values, present.Words(), isovalues), nil
}

// validateMarch is validateInputs plus the limits of the work-list keys.
func validateMarch(g *grid.Uniform, values []float32, isovalues []float64) error {
	if err := validateInputs(g, values, isovalues); err != nil {
		return err
	}
	if g.NumPoints() > maxPointsForKey {
		return fmt.Errorf("contour: grid of %d points exceeds the %d-point limit",
			g.NumPoints(), maxPointsForKey)
	}
	if len(isovalues) > 255 {
		return fmt.Errorf("contour: %d isovalues exceeds the 255 limit", len(isovalues))
	}
	return nil
}

// The kernel. straddlingCells lists the (cell, isovalue) pairs that emit
// triangles in the order a triple loop over every cell reaches them,
// with their case and the exact triangle count, so the mesh is allocated
// once; marcher.run emits them. Vertices are created the first time an
// edge is crossed, in that order, so skipping cells that emit nothing
// cannot change the mesh: the sparse and dense calls build the same one.

// march contours the cells of g; a nil present means every point is.
func march(g *grid.Uniform, values []float32, present []uint64, isovalues []float64) *Mesh {
	dims := g.Dims
	cells, tris := straddlingCells(dims, values, present, isovalues)
	if len(cells) == 0 {
		return &Mesh{}
	}
	// A closed surface has half as many vertices as triangles; open
	// borders (grid faces, withheld cells) add a few more.
	verts := tris/2 + tris/8 + 16
	m := marcher{
		g: g, nx: dims.X, layer: dims.X * dims.Y,
		values: values, isovalues: isovalues,
		mesh:  &Mesh{Vertices: make([]grid.Vec3, 0, verts), Tris: make([][3]int32, 0, tris)},
		slots: make([][]int32, len(isovalues)),
	}
	m.run(cells)
	return m.mesh
}

// bitsAt returns the 64 bits of words starting at bit offset off.
func bitsAt(words []uint64, off int) uint64 {
	w, s := off>>6, uint(off&63)
	v := words[w] >> s
	if s != 0 && w+1 < len(words) {
		v |= words[w+1] << (64 - s)
	}
	return v
}

// straddlingCells lists, in k/j/i order, one entry per emitting (cell,
// isovalue): the cell's first point << 16 | the isovalue's index << 8 |
// the case, and counts their triangles. With every point present it
// visits every cell; otherwise, 64 cells to a word, only those with an
// edge whose ends are both present.
func straddlingCells(dims grid.Dims, values []float32, present []uint64, isovalues []float64) (cells []uint64, tris int) {
	nx, ny := dims.X, dims.Y
	layer := nx * ny
	var v [8]float32
	for k := 0; k < dims.Z-1; k++ {
		for j := 0; j < ny-1; j++ {
			for i0 := 0; i0 < nx-1; i0 += 64 {
				p := k*layer + j*nx + i0
				live := ^uint64(0)
				if n := nx - 1 - i0; n < 64 {
					live = 1<<uint(n) - 1
				}
				var r [8]uint64 // r[c] bit b: corner c of cell i0+b is present
				if present != nil {
					r = [8]uint64{
						bitsAt(present, p), bitsAt(present, p+1),
						bitsAt(present, p+nx), bitsAt(present, p+nx+1),
						bitsAt(present, p+layer), bitsAt(present, p+layer+1),
						bitsAt(present, p+layer+nx), bitsAt(present, p+layer+nx+1),
					}
					live &= r[0]&r[1] | r[2]&r[3] | r[4]&r[5] | r[6]&r[7] | // x edges
						r[0]&r[2] | r[1]&r[3] | r[4]&r[6] | r[5]&r[7] | // y edges
						r[0]&r[4] | r[1]&r[5] | r[2]&r[6] | r[3]&r[7] // z edges
				}
				for ; live != 0; live &= live - 1 {
					b := bits.TrailingZeros64(live)
					c := p + b
					v[0], v[1] = values[c], values[c+1]
					v[2], v[3] = values[c+nx], values[c+nx+1]
					v[4], v[5] = values[c+layer], values[c+layer+1]
					v[6], v[7] = values[c+layer+nx], values[c+layer+nx+1]
					pm := 255
					if present != nil {
						pm = 0
						for ci, w := range r {
							pm |= int(w>>uint(b)&1) << ci
						}
					}
					lo, hi := v[0], v[0]
					if pm == 255 {
						for _, x := range v[1:] {
							lo, hi = min(lo, x), max(hi, x)
						}
					} else {
						lo, hi = float32(math.Inf(1)), float32(math.Inf(-1))
						for m := pm; m != 0; m &= m - 1 {
							x := v[bits.TrailingZeros(uint(m))]
							lo, hi = min(lo, x), max(hi, x)
						}
					}
					if lo != lo {
						continue // a NaN corner
					}
					for q, iso := range isovalues {
						// Some corner inside (v < iso), some outside.
						if float64(lo) >= iso || float64(hi) < iso {
							continue
						}
						var inside int
						for ci, x := range v {
							if float64(x) < iso {
								inside |= 1 << ci
							}
						}
						if pm != 255 {
							// Absent corners' values are never used.
							if inside = int(cubeFill[pm][inside&pm]); inside == 0 {
								continue // no selection ships such a cell
							}
						}
						cells = append(cells, uint64(c)<<16|uint64(q)<<8|uint64(inside))
						tris += len(cubeTris[inside]) / 3
					}
				}
			}
		}
	}
	return cells, tris
}

// marcher emits the triangles of a work list into mesh.
type marcher struct {
	g         *grid.Uniform
	nx, layer int // points per row and per layer
	values    []float32
	isovalues []float64
	mesh      *Mesh

	// slots[q] maps the edges of isovalue q to vertices: one entry per
	// (point of two rolling point layers, axis) holding the vertex index
	// plus one. Point layer L lives in half L&1, where the entries of
	// layer L-2 are still lying; an entry counts only if it exceeds
	// floor[L&1], the vertex count when the sweep first came within
	// reach of layer L, which every older entry falls short of. Nothing
	// is ever cleared.
	slots [][]int32
	floor [2]int32

	// The cell being marched.
	val  [8]float64
	pos  [8]grid.Vec3
	slot [8]int // index into slots[q] of each corner's x entry
	k    int    // its cell layer
}

// run marches the work list, which must be in ascending cell order.
func (m *marcher) run(cells []uint64) {
	row, j, last := -m.nx, 0, -1 // the row's first point, its j, the gathered cell
	m.k = -1
	for _, e := range cells {
		if c := int(e >> 16); c != last {
			last = c
			if c < row || c >= row+m.nx {
				k := c / m.layer
				j = (c - k*m.layer) / m.nx
				row = k*m.layer + j*m.nx
				if k != m.k {
					// Cells of layer k reach point layers k and k+1.
					// Layer k+1 is new. Layer k was new one cell layer
					// ago, unless that cell layer was skipped.
					n := int32(len(m.mesh.Vertices))
					m.floor[(k+1)&1] = n
					if m.k != k-1 {
						m.floor[k&1] = n
					}
					m.k = k
				}
			}
			m.gather(c, c-row, j)
		}
		m.marchCell(int(e>>8)&0xff, e&0xff)
	}
}

// gather loads the corners of the cell whose first point is c = (i,j,m.k).
func (m *marcher) gather(c, i, j int) {
	for b := 0; b < 8; b++ {
		dx, dy, k := b&1, b>>1&1, m.k+b>>2
		p := c + dx + dy*m.nx + (b>>2)*m.layer
		m.val[b] = float64(m.values[p])
		m.pos[b] = m.g.PointPosition(i+dx, j+dy, k)
		m.slot[b] = 3 * ((k&1)*m.layer + p - k*m.layer)
	}
}

// marchCell emits the gathered cell's triangles for isovalue q, whose
// inside corners are the set bits of inside.
func (m *marcher) marchCell(q int, inside uint64) {
	if m.slots[q] == nil {
		m.slots[q] = make([]int32, 2*3*m.layer)
	}
	edges := cubeTris[inside]
	for t := 0; t < len(edges); t += 3 {
		// Vertices are created in the order the calls are written.
		tri := [3]int32{m.edgeVert(edges[t], q), m.edgeVert(edges[t+1], q), m.edgeVert(edges[t+2], q)}
		m.mesh.Tris = append(m.mesh.Tris, tri)
	}
}

// edgeVert returns the deduplicated interpolated vertex on edge e.
func (m *marcher) edgeVert(e uint8, q int) int32 {
	a, axis := int(cubeEdgeLo[e]), int(e/4)
	b := a | 1<<axis
	entry := &m.slots[q][m.slot[a]+axis]
	if *entry > m.floor[(m.k+a>>2)&1] {
		return *entry - 1
	}
	iso := m.isovalues[q]
	pa, pb := m.pos[a], m.pos[b]
	va, vb := m.val[a], m.val[b]
	t := (iso - va) / (vb - va)
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	vi := int32(len(m.mesh.Vertices))
	m.mesh.Vertices = append(m.mesh.Vertices, pa.Add(pb.Sub(pa).Scale(t)))
	*entry = vi + 1
	return vi
}
