// Package grid models uniform rectilinear grids and the scalar fields
// defined over them. It is the data model shared by every other layer of
// the system: the dataset generators write grids, the I/O layer serializes
// them, the contour filter consumes them, and the NDP pre-filter selects
// subsets of their points.
//
// A grid is a box of Nx x Ny x Nz vertices (points). Scalar fields attach
// one value per point. Cells are the (Nx-1) x (Ny-1) x (Nz-1) hexahedra
// between points; 2D grids are expressed with Nz == 1.
package grid

import (
	"fmt"
	"math"
)

// Dims holds the point counts of a grid along each axis.
type Dims struct {
	X, Y, Z int
}

// NumPoints returns the total number of grid points.
func (d Dims) NumPoints() int { return d.X * d.Y * d.Z }

// NumCells returns the total number of cells. A dimension with a single
// point layer contributes a factor of 1 rather than 0 so that 2D and 1D
// grids still have cells along their remaining axes.
func (d Dims) NumCells() int {
	cx, cy, cz := d.X-1, d.Y-1, d.Z-1
	if cx < 1 {
		cx = 1
	}
	if cy < 1 {
		cy = 1
	}
	if cz < 1 {
		cz = 1
	}
	return cx * cy * cz
}

// Valid reports whether every dimension is at least 1.
func (d Dims) Valid() bool { return d.X >= 1 && d.Y >= 1 && d.Z >= 1 }

func (d Dims) String() string { return fmt.Sprintf("%dx%dx%d", d.X, d.Y, d.Z) }

// Vec3 is a point or direction in grid world space.
type Vec3 struct {
	X, Y, Z float64
}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v scaled by s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Dot returns the dot product of v and w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the cross product of v and w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Normalize returns v scaled to unit length, or the zero vector if v is zero.
func (v Vec3) Normalize() Vec3 {
	n := v.Norm()
	// vizlint:ignore floateq exact-zero guard before division; Norm() is never -0 or NaN here
	if n == 0 {
		return Vec3{}
	}
	return v.Scale(1 / n)
}

// Uniform is a uniform rectilinear ("image data") grid: points are laid out
// on a regular lattice defined by an origin and per-axis spacing. This is
// the only grid type the paper's prototype supports.
type Uniform struct {
	Dims    Dims
	Origin  Vec3
	Spacing Vec3
}

// NewUniform returns a unit-spaced grid at the origin with the given
// dimensions.
func NewUniform(nx, ny, nz int) *Uniform {
	return &Uniform{
		Dims:    Dims{nx, ny, nz},
		Spacing: Vec3{1, 1, 1},
	}
}

// PointIndex converts (i,j,k) point coordinates to a flat index using
// x-fastest ordering (VTK convention).
func (g *Uniform) PointIndex(i, j, k int) int {
	return (k*g.Dims.Y+j)*g.Dims.X + i
}

// PointPosition returns the world-space position of point (i,j,k).
func (g *Uniform) PointPosition(i, j, k int) Vec3 {
	return Vec3{
		g.Origin.X + float64(i)*g.Spacing.X,
		g.Origin.Y + float64(j)*g.Spacing.Y,
		g.Origin.Z + float64(k)*g.Spacing.Z,
	}
}

// NumPoints returns the number of points of the grid.
func (g *Uniform) NumPoints() int { return g.Dims.NumPoints() }

// NumCells returns the number of cells of the grid.
func (g *Uniform) NumCells() int { return g.Dims.NumCells() }

// Is2D reports whether the grid has a single point layer in Z.
func (g *Uniform) Is2D() bool { return g.Dims.Z == 1 }

// Clone returns a copy of the grid definition.

// Equal reports whether two grids describe the same lattice.
func (g *Uniform) Equal(o *Uniform) bool {
	return g.Dims == o.Dims && g.Origin == o.Origin && g.Spacing == o.Spacing
}

// Validate returns an error if the grid definition is unusable.
func (g *Uniform) Validate() error {
	if !g.Dims.Valid() {
		return fmt.Errorf("grid: invalid dims %v", g.Dims)
	}
	if g.Spacing.X <= 0 || g.Spacing.Y <= 0 || g.Spacing.Z <= 0 {
		return fmt.Errorf("grid: non-positive spacing %+v", g.Spacing)
	}
	return nil
}
