package contour

import (
	"fmt"

	"vizndp/internal/grid"
)

// A third offloaded filter type (with contour and threshold): axis-
// aligned slice extraction, VTK's plane-extract on uniform grids. Its
// pre-filter selection is a single point layer, so the data reduction is
// essentially the grid edge length (e.g. 1/128 of the array) regardless
// of field content — the best case for near-data processing.

// Axis selects a slicing axis.
type Axis uint8

// Slicing axes.
const (
	AxisX Axis = iota
	AxisY
	AxisZ
)

// String names the axis.
func (a Axis) String() string {
	switch a {
	case AxisX:
		return "x"
	case AxisY:
		return "y"
	case AxisZ:
		return "z"
	default:
		return fmt.Sprintf("axis(%d)", uint8(a))
	}
}

// ParseAxis converts "x", "y", or "z".
func ParseAxis(s string) (Axis, error) {
	switch s {
	case "x":
		return AxisX, nil
	case "y":
		return AxisY, nil
	case "z":
		return AxisZ, nil
	default:
		return 0, fmt.Errorf("contour: unknown axis %q", s)
	}
}

func validateSlice(g *grid.Uniform, values []float32, axis Axis, index int) error {
	if err := g.Validate(); err != nil {
		return err
	}
	if len(values) != g.NumPoints() {
		return fmt.Errorf("contour: %d values for %d grid points", len(values), g.NumPoints())
	}
	var limit int
	switch axis {
	case AxisX:
		limit = g.Dims.X
	case AxisY:
		limit = g.Dims.Y
	case AxisZ:
		limit = g.Dims.Z
	default:
		return fmt.Errorf("contour: invalid axis %d", axis)
	}
	if index < 0 || index >= limit {
		return fmt.Errorf("contour: slice index %d outside [0, %d)", index, limit)
	}
	return nil
}

// ExtractSlice copies the plane axis=index out of the 3D field, returning
// a 2D grid (Dims.Z == 1) and its values. The slice's local axes are the
// remaining grid axes in their original order: an X slice maps (y,z) to
// the 2D (x,y) axes, a Y slice maps (x,z), a Z slice maps (x,y). Points
// valued NaN pass through, so slicing composes with NDP payloads.
func ExtractSlice(g *grid.Uniform, values []float32, axis Axis, index int) (*grid.Uniform, []float32, error) {
	if err := validateSlice(g, values, axis, index); err != nil {
		return nil, nil, err
	}
	nx, ny, nz := g.Dims.X, g.Dims.Y, g.Dims.Z
	strideY := nx
	strideZ := nx * ny

	var out2d *grid.Uniform
	var out []float32
	switch axis {
	case AxisZ:
		out2d = grid.NewUniform(nx, ny, 1)
		out2d.Origin = grid.Vec3{X: g.Origin.X, Y: g.Origin.Y, Z: g.Origin.Z + float64(index)*g.Spacing.Z}
		out2d.Spacing = grid.Vec3{X: g.Spacing.X, Y: g.Spacing.Y, Z: 1}
		out = make([]float32, nx*ny)
		copy(out, values[index*strideZ:(index+1)*strideZ])
	case AxisY:
		out2d = grid.NewUniform(nx, nz, 1)
		out2d.Origin = grid.Vec3{X: g.Origin.X, Y: g.Origin.Z, Z: g.Origin.Y + float64(index)*g.Spacing.Y}
		out2d.Spacing = grid.Vec3{X: g.Spacing.X, Y: g.Spacing.Z, Z: 1}
		out = make([]float32, nx*nz)
		for k := 0; k < nz; k++ {
			copy(out[k*nx:(k+1)*nx], values[k*strideZ+index*strideY:k*strideZ+index*strideY+nx])
		}
	case AxisX:
		out2d = grid.NewUniform(ny, nz, 1)
		out2d.Origin = grid.Vec3{X: g.Origin.Y, Y: g.Origin.Z, Z: g.Origin.X + float64(index)*g.Spacing.X}
		out2d.Spacing = grid.Vec3{X: g.Spacing.Y, Y: g.Spacing.Z, Z: 1}
		out = make([]float32, ny*nz)
		for k := 0; k < nz; k++ {
			for j := 0; j < ny; j++ {
				out[k*ny+j] = values[k*strideZ+j*strideY+index]
			}
		}
	}
	return out2d, out, nil
}
