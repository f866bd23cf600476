// Package render is a small software rasterizer standing in for the
// OpenGL sub-pipeline at the sink of the paper's VTK pipelines. It turns
// contour meshes into shaded PNG images (orthographic projection,
// z-buffer, Lambertian shading) — enough to regenerate the paper's
// qualitative figures (the contour movies of Figs. 7/8, the two-contour
// render of Fig. 4, and the Nyx halo contour of Fig. 12).
//
// Rendering time is not part of any load time the experiments report
// (Table II, Figs. 13/14), matching the paper's methodology; the benchmark's
// frame workload does time it, as part of its time to picture. The
// rasteriser draws exactly the pixels of the reference loop kept with the
// tests. It tests a triangle only at the pixel centres near enough to its
// vertices to pass, and skips one whose box holds no pixel centre.
package render

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"math"
	"os"
	"slices"
	"sync"

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

// margin is how far, in pixels, outside its vertices' range a triangle's
// pixel centres are tested: rounding can accept a centre a few bits out.
const margin = 1e-3

// light is the lamp's direction for the Lambertian shading.
var light = grid.Vec3{X: 0.4, Y: 0.25, Z: 0.88}.Normalize()

// point is a projected vertex: pixel coordinates and depth toward the camera.
type point struct{ x, y, z float64 }

// scratch is a frame's z-buffer (2 MiB at 512x512) and its projected
// vertices, reused across frames.
type scratch struct {
	zbuf []float64
	proj []point
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Meshes renders the layers into one image.
func Meshes(layers []Layer, opts Options) (*image.RGBA, error) {
	o := opts.withDefaults()
	img := newFrame(o)

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

	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	zbuf := slices.Grow(sc.zbuf[:0], o.Width*o.Height)[:o.Width*o.Height]
	sc.zbuf, zbuf[0] = zbuf, math.Inf(-1)
	for filled := 1; filled < len(zbuf); filled *= 2 {
		copy(zbuf[filled:], zbuf[:filled])
	}

	for _, layer := range layers {
		m := layer.Mesh
		if m == nil {
			continue
		}
		sc.proj = slices.Grow(sc.proj[:0], len(m.Vertices))[:len(m.Vertices)]
		for i, v := range m.Vertices {
			r := v.Sub(center)
			sc.proj[i] = point{
				x: float64(o.Width)/2 + r.Dot(right)*scale,
				y: float64(o.Height)/2 - r.Dot(trueUp)*scale,
				z: r.Dot(view),
			}
		}
		drawMesh(img, zbuf, m, sc.proj, layer.Color)
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

// drawMesh rasterises m, its vertices projected in proj, into img and zbuf
// (row-major depths), each triangle base shaded by its normal. A pixel is
// drawn when its centre passes the barycentric and depth tests; a triangle
// whose box holds no centre is skipped before it is shaded.
func drawMesh(img *image.RGBA, zbuf []float64, m *contour.Mesh, proj []point, base color.RGBA) {
	w, h := img.Rect.Dx(), img.Rect.Dy()
	for _, t := range m.Tris {
		a, b, c := proj[t[0]], proj[t[1]], proj[t[2]]
		lx, hx := min(a.x, b.x, c.x), max(a.x, b.x, c.x)
		ly, hy := min(a.y, b.y, c.y), max(a.y, b.y, c.y)
		area := (b.x-a.x)*(c.y-a.y) - (b.y-a.y)*(c.x-a.x)
		// vizlint:ignore floateq exact-zero guard: degenerate triangle, inverse computed below
		if area == 0 {
			continue
		}
		// A centre beyond margin fails the test unless the area is so small
		// that rounding picks the weights' signs (1e-10 is 1e-13/margin, 10x
		// that error's bound); then the box is floor(min)..ceil(max).
		s := max(hx-lx, hy-ly)
		var minX, maxX, minY, maxY int
		if math.Abs(area) > 1e-10*s*s*(s+2) {
			minX, maxX = int(math.Ceil(lx-0.5-margin)), int(math.Floor(hx-0.5+margin))
			minY, maxY = int(math.Ceil(ly-0.5-margin)), int(math.Floor(hy-0.5+margin))
		} else {
			minX, maxX = int(math.Floor(lx)), int(math.Ceil(hx))
			minY, maxY = int(math.Floor(ly)), int(math.Ceil(hy))
		}
		minX, maxX = max(minX, 0), min(maxX, w-1)
		minY, maxY = max(minY, 0), min(maxY, h-1)
		if minX > maxX || minY > maxY {
			continue
		}
		inv := 1 / area
		var col color.RGBA // shaded at the first pixel written
		for y := minY; y <= maxY; y++ {
			py := float64(y) + 0.5
			// The conversions round the row's products as the per-pixel
			// expressions did, so no fused multiply-add moves a weight.
			e0 := float64((b.x - a.x) * (py - a.y))
			e1 := float64((c.x - b.x) * (py - b.y))
			for x := minX; x <= maxX; x++ {
				px := float64(x) + 0.5
				// Normalizing by the signed area makes the barycentric
				// weights non-negative for interior pixels under either
				// winding.
				w0 := (e0 - (b.y-a.y)*(px-a.x)) * inv
				w1 := (e1 - (c.y-b.y)*(px-b.x)) * inv
				w2 := 1 - w0 - w1
				if w0 < 0 || w1 < 0 || w2 < 0 {
					continue
				}
				// w1 is a's weight (edge b->c), w2 is b's (edge c->a),
				// w0 is c's (edge a->b).
				depth := w1*a.z + w2*b.z + w0*c.z
				idx := y*w + x
				if depth <= zbuf[idx] {
					continue
				}
				zbuf[idx] = depth
				if col.A == 0 {
					col = shade(m, t, base)
				}
				off := y*img.Stride + 4*x
				pix := img.Pix[off : off+4 : off+4]
				pix[0], pix[1], pix[2], pix[3] = col.R, col.G, col.B, col.A
			}
		}
	}
}

// shade is base lit by the lamp from triangle t's normal, on whichever
// side faces the lamp (two-sided shading).
func shade(m *contour.Mesh, t [3]int32, base color.RGBA) color.RGBA {
	a, b, c := m.Vertices[t[0]], m.Vertices[t[1]], m.Vertices[t[2]]
	n := b.Sub(a).Cross(c.Sub(a)).Normalize()
	s := 0.25 + 0.75*math.Abs(n.Dot(light))
	return color.RGBA{
		R: uint8(float64(base.R) * s),
		G: uint8(float64(base.G) * s),
		B: uint8(float64(base.B) * s),
		A: 255,
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
