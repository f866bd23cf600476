// Package contour implements the contour filters at the heart of the
// paper's pipeline: isosurface extraction over 3-D uniform grids, plus
// the "interesting edge" analysis that the NDP pre-filter uses to decide
// which mesh points must be transferred. Every filter and selection here
// needs two point layers; a 2-D grid (a slice plane) is refused.
//
// VTK's contour filter uses marching cubes / flying edges; this
// reproduction uses marching tetrahedra over the Kuhn 6-tetrahedron cube
// decomposition, which produces the same class of output (a triangle
// mesh whose vertices are linear interpolations along cell edges) from a
// case table that is correct by construction. The Kuhn decomposition is
// translation-consistent, so faces shared by neighbouring cells carry the
// same diagonal and the resulting surface is watertight.
//
// Fields may be partial: the NDP pre-filter withholds the points no
// contour cell needs. A partial field arrives either as values plus one
// presence bit per point (MarchingTetrahedraSparse, the post-filter's
// path) or as a dense array with NaN at withheld points; any cell with a
// corner absent or NaN is skipped, which — by the selection guarantee in
// internal/core — never removes geometry.
package contour

import (
	"fmt"
	"math"

	"vizndp/internal/grid"
)

// Mesh is an indexed triangle mesh.
type Mesh struct {
	Vertices []grid.Vec3
	Normals  []grid.Vec3 // per-vertex; filled by ComputeNormals
	Tris     [][3]int32
}

// NumTriangles returns the triangle count.
func (m *Mesh) NumTriangles() int { return len(m.Tris) }

// NumVertices returns the vertex count.
func (m *Mesh) NumVertices() int { return len(m.Vertices) }

// ComputeNormals fills per-vertex normals as area-weighted averages of
// incident triangle normals.
func (m *Mesh) ComputeNormals() {
	m.Normals = make([]grid.Vec3, len(m.Vertices))
	for _, t := range m.Tris {
		a, b, c := m.Vertices[t[0]], m.Vertices[t[1]], m.Vertices[t[2]]
		// Cross product length is twice the area: natural weighting.
		n := b.Sub(a).Cross(c.Sub(a))
		for _, vi := range t {
			m.Normals[vi] = m.Normals[vi].Add(n)
		}
	}
	for i := range m.Normals {
		m.Normals[i] = m.Normals[i].Normalize()
	}
}

// Area returns the total surface area of the mesh.
func (m *Mesh) Area() float64 {
	var sum float64
	for _, t := range m.Tris {
		a, b, c := m.Vertices[t[0]], m.Vertices[t[1]], m.Vertices[t[2]]
		sum += b.Sub(a).Cross(c.Sub(a)).Norm() / 2
	}
	return sum
}

// BoundaryEdges returns the number of edges used by exactly one triangle.
// A watertight (closed) surface has zero boundary edges.
func (m *Mesh) BoundaryEdges() int {
	type edge struct{ a, b int32 }
	counts := make(map[edge]int)
	for _, t := range m.Tris {
		for i := 0; i < 3; i++ {
			a, b := t[i], t[(i+1)%3]
			if a > b {
				a, b = b, a
			}
			counts[edge{a, b}]++
		}
	}
	n := 0
	for _, c := range counts {
		if c == 1 {
			n++
		}
	}
	return n
}

// Equal reports whether two meshes are identical: same vertices in the
// same order (bit-exact) and same triangles. Used by the NDP correctness
// invariant Contour(post(pre(A))) == Contour(A).
func (m *Mesh) Equal(o *Mesh) bool {
	if len(m.Vertices) != len(o.Vertices) || len(m.Tris) != len(o.Tris) {
		return false
	}
	for i := range m.Vertices {
		if m.Vertices[i] != o.Vertices[i] {
			return false
		}
	}
	for i := range m.Tris {
		if m.Tris[i] != o.Tris[i] {
			return false
		}
	}
	return true
}

func isNaN32(v float32) bool { return v != v }

// validateField performs the checks every filter and selection shares:
// a valid 3-D grid and one value per point.
func validateField(g *grid.Uniform, values []float32) error {
	if err := g.Validate(); err != nil {
		return err
	}
	if g.Is2D() {
		return fmt.Errorf("contour: grid %v is 2-D; the filters need two point layers", g.Dims)
	}
	if len(values) != g.NumPoints() {
		return fmt.Errorf("contour: %d values for %d grid points", len(values), g.NumPoints())
	}
	return nil
}

// validateInputs is validateField plus the isovalues' own checks.
func validateInputs(g *grid.Uniform, values []float32, isovalues []float64) error {
	if err := validateField(g, values); err != nil {
		return err
	}
	if len(isovalues) == 0 {
		return fmt.Errorf("contour: no isovalues")
	}
	for _, v := range isovalues {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("contour: invalid isovalue %v", v)
		}
	}
	return nil
}
