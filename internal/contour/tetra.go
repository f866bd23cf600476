package contour

import (
	"fmt"
	"math/bits"

	"vizndp/internal/bitset"
	"vizndp/internal/grid"
)

// maxPointsForKey bounds grid sizes so a (cell, isovalue, corner mask)
// work-list entry packs into a uint64: 28 bits of point index and 8 bits
// of isovalue index cover grids beyond the paper's 500^3.
const maxPointsForKey = 1 << 28

// kuhnTets lists the Kuhn 6-tetrahedron decomposition of the unit cube.
// Corner c encodes offsets (dx,dy,dz) as c = dx + 2*dy + 4*dz. Every tet
// runs from corner 0 (000) to corner 7 (111) adding one axis at a time,
// which makes shared cube faces carry matching diagonals across
// neighbouring cells. It also means every tet edge joins a corner a to a
// corner b whose offsets contain a's, so an edge is named by its lower
// point and the direction b^a in 1..7.
var kuhnTets = [6][4]int{
	{0, 1, 3, 7}, // +x +y +z
	{0, 1, 5, 7}, // +x +z +y
	{0, 2, 3, 7}, // +y +x +z
	{0, 2, 6, 7}, // +y +z +x
	{0, 4, 5, 7}, // +z +x +y
	{0, 4, 6, 7}, // +z +y +x
}

// cellTris[m] is how many triangles a cell emits when the set bits of m
// are its corners inside the isosurface: per tetrahedron, one triangle
// when one or three corners are inside and two when two are.
var cellTris = func() (t [256]uint8) {
	for m := range t {
		for _, tet := range kuhnTets {
			in := 0
			for _, c := range tet {
				in += m >> c & 1
			}
			t[m] += [5]uint8{0, 1, 2, 1, 0}[in]
		}
	}
	return t
}()

// MarchingTetrahedra extracts the isosurfaces of values over g at each of
// the given isovalues, returning a single indexed mesh. Points valued NaN
// mark data withheld by the NDP pre-filter; cells touching them are
// skipped, 64 at a time. A point is "inside" when its value is strictly
// below the isovalue, so flat regions exactly at an isovalue produce no
// surface.
func MarchingTetrahedra(g *grid.Uniform, values []float32, isovalues []float64) (*Mesh, error) {
	if err := validateMarch(g, values, isovalues); err != nil {
		return nil, err
	}
	return march(g, values, nonNaNBits(values), isovalues), nil
}

// MarchingTetrahedraSparse is MarchingTetrahedra for a field that is
// known only at the points marked in present — the NDP payload's own
// form. It contours the cells whose eight corners are all present and
// reads values nowhere else, so the rest of values may hold anything; a
// present point must not be NaN. The mesh equals the one
// MarchingTetrahedra builds from the same values with NaN at every
// absent point.
func MarchingTetrahedraSparse(g *grid.Uniform, values []float32, present *bitset.Bitset, isovalues []float64) (*Mesh, error) {
	if err := validateMarch(g, values, isovalues); err != nil {
		return nil, err
	}
	if present.Len() != len(values) {
		return nil, fmt.Errorf("contour: presence of %d bits for %d values", present.Len(), len(values))
	}
	return march(g, values, present.Words(), isovalues), nil
}

// validateMarch is validateInputs plus the limits of the marching
// filters' packed keys.
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

// nonNaNBits returns one bit per value, set where the value is not NaN.
func nonNaNBits(values []float32) []uint64 {
	words := make([]uint64, (len(values)+63)/64)
	for w := range words {
		var word uint64
		for b, v := range values[w*64 : min(w*64+64, len(values))] {
			if !isNaN32(v) {
				word |= 1 << uint(b)
			}
		}
		words[w] = word
	}
	return words
}

// The kernel. A cell can emit triangles only if all eight corners are
// present and some isovalue separates them, so the sweep has two steps.
//
// straddlingCells enumerates such cells without visiting the others: per
// (k, j) pair of point rows it ANDs the presence bits of the four rows
// and of their one-bit shifts, 64 cells to a word, and tests only the set
// bits. Bits are visited in ascending i inside ascending j inside
// ascending k, which is the order a plain triple loop over every cell
// would reach the same cells in. The work list it returns also gives the
// exact triangle count, so the mesh is allocated once.
//
// marcher.run then emits each listed cell's triangles. Vertices are
// created the first time an edge is crossed, in work-list order; skipping
// a cell that emits nothing cannot change that order, so the mesh is the
// same — vertex for vertex — whether the absent points were never looked
// at or were NaN in a dense array, and whatever the selection withheld.

// march contours the cells of g whose corners are all present.
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

// straddlingCells lists, in k/j/i order, the cells whose corners are all
// present and straddle an isovalue, one entry per (cell, isovalue): the
// cell's first point index shifted left 16, the isovalue's index shifted
// left 8, and the mask of corners inside. It also returns the number of
// triangles those cells will emit.
func straddlingCells(dims grid.Dims, values []float32, present []uint64, isovalues []float64) (cells []uint64, tris int) {
	nx, ny := dims.X, dims.Y
	layer := nx * ny
	all4 := func(p int) uint64 {
		return bitsAt(present, p) & bitsAt(present, p+nx) &
			bitsAt(present, p+layer) & bitsAt(present, p+layer+nx)
	}
	for k := 0; k < dims.Z-1; k++ {
		for j := 0; j < ny-1; j++ {
			for i0 := 0; i0 < nx-1; i0 += 64 {
				p := k*layer + j*nx + i0
				// Bit b: points i0+b of the four rows are present, then
				// points i0+b and i0+b+1 are, which is cell i0+b.
				m := all4(p)
				if m == 0 {
					continue
				}
				m &= all4(p + 1)
				if n := nx - 1 - i0; n < 64 {
					m &= 1<<uint(n) - 1
				}
				for ; m != 0; m &= m - 1 {
					c := p + bits.TrailingZeros64(m)
					var v [8]float32
					v[0], v[1] = values[c], values[c+1]
					v[2], v[3] = values[c+nx], values[c+nx+1]
					v[4], v[5] = values[c+layer], values[c+layer+1]
					v[6], v[7] = values[c+layer+nx], values[c+layer+nx+1]
					lo, hi := v[0], v[0]
					for _, x := range v[1:] {
						lo, hi = min(lo, x), max(hi, x)
					}
					for q, iso := range isovalues {
						// Some corner inside (v < iso), some outside.
						if float64(lo) >= iso || float64(hi) < iso {
							continue
						}
						var inside uint64
						for b, x := range v {
							if float64(x) < iso {
								inside |= 1 << uint(b)
							}
						}
						cells = append(cells, uint64(c)<<16|uint64(q)<<8|inside)
						tris += int(cellTris[inside])
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
	// (point of two rolling point layers, edge direction 1..7) holding
	// the vertex index plus one. Point layer L lives in half L&1, where
	// the entries of layer L-2 are still lying; an entry counts only if
	// it exceeds floor[L&1], the vertex count when the sweep first came
	// within reach of layer L, which every older entry falls short of.
	// Nothing is ever cleared.
	slots [][]int32
	floor [2]int32

	// The cell being marched.
	val  [8]float64
	pos  [8]grid.Vec3
	slot [8]int // index into slots[q] of each corner's direction-1 entry
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
		m.marchCell(int(e>>8)&0xff, uint(e)&0xff)
	}
}

// gather loads the corners of the cell whose first point is c = (i,j,m.k).
func (m *marcher) gather(c, i, j int) {
	for b := 0; b < 8; b++ {
		dx, dy, k := b&1, b>>1&1, m.k+b>>2
		p := c + dx + dy*m.nx + (b>>2)*m.layer
		m.val[b] = float64(m.values[p])
		m.pos[b] = m.g.PointPosition(i+dx, j+dy, k)
		m.slot[b] = 7 * ((k&1)*m.layer + p - k*m.layer)
	}
}

// marchCell emits the gathered cell's triangles for isovalue q, whose
// inside corners are the set bits of inside.
func (m *marcher) marchCell(q int, inside uint) {
	if m.slots[q] == nil {
		m.slots[q] = make([]int32, 2*7*m.layer)
	}
	for _, tet := range kuhnTets {
		m.marchTet(tet, q, inside)
	}
}

// edgeVert returns the deduplicated interpolated vertex on edge (a,b).
func (m *marcher) edgeVert(a, b, q int) int32 {
	if a > b {
		a, b = b, a
	}
	entry := &m.slots[q][m.slot[a]+(b^a)-1]
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

// addTri appends a triangle wound so its normal points from the inside
// region (v < iso) toward the outside region.
func (m *marcher) addTri(a, b, c int32, outward grid.Vec3) {
	pa, pb, pc := m.mesh.Vertices[a], m.mesh.Vertices[b], m.mesh.Vertices[c]
	n := pb.Sub(pa).Cross(pc.Sub(pa))
	if n.Dot(outward) < 0 {
		b, c = c, b
	}
	m.mesh.Tris = append(m.mesh.Tris, [3]int32{a, b, c})
}

// marchTet emits the triangles for one tetrahedron.
func (m *marcher) marchTet(tet [4]int, q int, insideMask uint) {
	var inside, outside [4]int
	ni, no := 0, 0
	for _, c := range tet {
		if insideMask>>uint(c)&1 != 0 {
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

	// outward direction: from the inside corners' centroid toward the
	// outside corners' centroid.
	var cin, cout grid.Vec3
	for i := 0; i < ni; i++ {
		cin = cin.Add(m.pos[inside[i]])
	}
	for i := 0; i < no; i++ {
		cout = cout.Add(m.pos[outside[i]])
	}
	outward := cout.Scale(1 / float64(no)).Sub(cin.Scale(1 / float64(ni)))

	switch ni {
	case 1:
		a := m.edgeVert(inside[0], outside[0], q)
		b := m.edgeVert(inside[0], outside[1], q)
		c := m.edgeVert(inside[0], outside[2], q)
		m.addTri(a, b, c, outward)
	case 3:
		a := m.edgeVert(inside[0], outside[0], q)
		b := m.edgeVert(inside[1], outside[0], q)
		c := m.edgeVert(inside[2], outside[0], q)
		m.addTri(a, b, c, outward)
	case 2:
		// Quad across the tet: edges (i0,o0), (i0,o1), (i1,o1), (i1,o0)
		// in cyclic order, split into two triangles.
		q0 := m.edgeVert(inside[0], outside[0], q)
		q1 := m.edgeVert(inside[0], outside[1], q)
		q2 := m.edgeVert(inside[1], outside[1], q)
		q3 := m.edgeVert(inside[1], outside[0], q)
		m.addTri(q0, q1, q2, outward)
		m.addTri(q0, q2, q3, outward)
	}
}
