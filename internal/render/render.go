// Package render is a small software rasterizer standing in for the
// OpenGL sub-pipeline at the sink of the paper's VTK pipelines. It turns
// contour meshes into shaded PNG images (orthographic projection,
// z-buffer, Lambertian shading) — enough to regenerate the paper's
// qualitative figures (the contour movies of Figs. 7/8, the two-contour
// render of Fig. 4, and the Nyx halo contour of Fig. 12).
//
// Rendering time is deliberately not part of any measured load time,
// matching the paper's methodology.
package render

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"math"
	"os"

	"vizndp/internal/contour"
	"vizndp/internal/grid"
)

// Options configures a render.
type Options struct {
	// Width and Height are the output size in pixels (default 512x512).
	Width, Height int
	// AzimuthDeg and ElevationDeg orient the orthographic camera.
	AzimuthDeg, ElevationDeg float64
	// Background fills the frame (default near-black).
	Background color.RGBA
}

func (o Options) withDefaults() Options {
	out := o
	if out.Width <= 0 {
		out.Width = 512
	}
	if out.Height <= 0 {
		out.Height = 512
	}
	if out.Background == (color.RGBA{}) {
		out.Background = color.RGBA{R: 16, G: 18, B: 24, A: 255}
	}
	return out
}

// Layer pairs a mesh with its display color, so multiple contours can be
// composed in one frame (cyan water + yellow asteroid, as in Fig. 4).
type Layer struct {
	Mesh  *contour.Mesh
	Color color.RGBA
}

// Meshes renders the layers into one image.
func Meshes(layers []Layer, opts Options) (*image.RGBA, error) {
	o := opts.withDefaults()
	img := newFrame(o)
	zbuf := make([]float64, o.Width*o.Height)
	zbuf[0] = math.Inf(-1)
	for filled := 1; filled < len(zbuf); filled *= 2 {
		copy(zbuf[filled:], zbuf[:filled])
	}

	// Camera basis from azimuth/elevation.
	az := o.AzimuthDeg * math.Pi / 180
	el := o.ElevationDeg * math.Pi / 180
	// View direction (from scene toward camera).
	view := grid.Vec3{
		X: math.Cos(el) * math.Cos(az),
		Y: math.Cos(el) * math.Sin(az),
		Z: math.Sin(el),
	}
	up := grid.Vec3{Z: 1}
	if math.Abs(view.Dot(up)) > 0.99 {
		up = grid.Vec3{Y: 1}
	}
	right := up.Cross(view).Normalize()
	trueUp := view.Cross(right).Normalize()

	// Fit the combined bounding box into the viewport.
	lo, hi, any := bounds(layers)
	if !any {
		return img, nil // nothing to draw
	}
	center := lo.Add(hi).Scale(0.5)
	radius := hi.Sub(lo).Norm() / 2
	// vizlint:ignore floateq exact-zero guard for a degenerate (single-point) bounding box
	if radius == 0 {
		radius = 1
	}
	scale := 0.45 * float64(min(o.Width, o.Height)) / radius

	light := grid.Vec3{X: 0.4, Y: 0.25, Z: 0.88}.Normalize()

	project := func(v grid.Vec3) (sx, sy, depth float64) {
		r := v.Sub(center)
		sx = float64(o.Width)/2 + r.Dot(right)*scale
		sy = float64(o.Height)/2 - r.Dot(trueUp)*scale
		depth = r.Dot(view)
		return
	}

	for _, layer := range layers {
		m := layer.Mesh
		if m == nil {
			continue
		}
		for _, t := range m.Tris {
			a, b, c := m.Vertices[t[0]], m.Vertices[t[1]], m.Vertices[t[2]]
			n := b.Sub(a).Cross(c.Sub(a)).Normalize()
			// Two-sided shading: light whichever side faces the lamp.
			lambert := math.Abs(n.Dot(light))
			shade := 0.25 + 0.75*lambert
			col := color.RGBA{
				R: uint8(float64(layer.Color.R) * shade),
				G: uint8(float64(layer.Color.G) * shade),
				B: uint8(float64(layer.Color.B) * shade),
				A: 255,
			}
			ax, ay, az1 := project(a)
			bx, by, bz := project(b)
			cx, cy, cz := project(c)
			rasterTriangle(img, zbuf, o.Width, o.Height,
				ax, ay, az1, bx, by, bz, cx, cy, cz, col)
		}
	}
	return img, nil
}

// newFrame returns an image of the requested size filled with the
// background: one row is set pixel by pixel and the rest are copies.
func newFrame(o Options) *image.RGBA {
	img := image.NewRGBA(image.Rect(0, 0, o.Width, o.Height))
	row := img.Pix[:4*o.Width]
	for x := 0; x < o.Width; x++ {
		img.SetRGBA(x, 0, o.Background)
	}
	for y := 1; y < o.Height; y++ {
		copy(img.Pix[y*img.Stride:], row)
	}
	return img
}

// Mesh renders a single mesh in the given color.
func Mesh(m *contour.Mesh, col color.RGBA, opts Options) (*image.RGBA, error) {
	return Meshes([]Layer{{Mesh: m, Color: col}}, opts)
}

func bounds(layers []Layer) (lo, hi grid.Vec3, any bool) {
	lo = grid.Vec3{X: math.Inf(1), Y: math.Inf(1), Z: math.Inf(1)}
	hi = grid.Vec3{X: math.Inf(-1), Y: math.Inf(-1), Z: math.Inf(-1)}
	for _, l := range layers {
		if l.Mesh == nil {
			continue
		}
		for _, v := range l.Mesh.Vertices {
			any = true
			lo.X = math.Min(lo.X, v.X)
			lo.Y = math.Min(lo.Y, v.Y)
			lo.Z = math.Min(lo.Z, v.Z)
			hi.X = math.Max(hi.X, v.X)
			hi.Y = math.Max(hi.Y, v.Y)
			hi.Z = math.Max(hi.Z, v.Z)
		}
	}
	return lo, hi, any
}

// rasterTriangle fills one screen-space triangle with z-buffering.
func rasterTriangle(img *image.RGBA, zbuf []float64, w, h int,
	ax, ay, az, bx, by, bz, cx, cy, cz float64, col color.RGBA) {

	minX := int(math.Floor(math.Min(ax, math.Min(bx, cx))))
	maxX := int(math.Ceil(math.Max(ax, math.Max(bx, cx))))
	minY := int(math.Floor(math.Min(ay, math.Min(by, cy))))
	maxY := int(math.Ceil(math.Max(ay, math.Max(by, cy))))
	if minX < 0 {
		minX = 0
	}
	if minY < 0 {
		minY = 0
	}
	if maxX >= w {
		maxX = w - 1
	}
	if maxY >= h {
		maxY = h - 1
	}
	area := (bx-ax)*(cy-ay) - (by-ay)*(cx-ax)
	// vizlint:ignore floateq exact-zero guard: degenerate triangle, inverse computed below
	if area == 0 {
		return
	}
	inv := 1 / area
	for y := minY; y <= maxY; y++ {
		py := float64(y) + 0.5
		for x := minX; x <= maxX; x++ {
			px := float64(x) + 0.5
			// Normalizing by the signed area makes the barycentric
			// weights non-negative for interior pixels under either
			// winding.
			w0 := ((bx-ax)*(py-ay) - (by-ay)*(px-ax)) * inv
			w1 := ((cx-bx)*(py-by) - (cy-by)*(px-bx)) * inv
			w2 := 1 - w0 - w1
			if w0 < 0 || w1 < 0 || w2 < 0 {
				continue
			}
			// w1 is a's weight (edge b->c), w2 is b's (edge c->a),
			// w0 is c's (edge a->b).
			depth := w1*az + w2*bz + w0*cz
			idx := y*w + x
			if depth <= zbuf[idx] {
				continue
			}
			zbuf[idx] = depth
			off := y*img.Stride + 4*x
			pix := img.Pix[off : off+4 : off+4]
			pix[0], pix[1], pix[2], pix[3] = col.R, col.G, col.B, col.A
		}
	}
}

// SavePNG writes img to path.
func SavePNG(img image.Image, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := png.Encode(f, img); err != nil {
		f.Close()
		return fmt.Errorf("render: encoding %s: %w", path, err)
	}
	return f.Close()
}
