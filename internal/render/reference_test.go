package render

import (
	"image"
	"image/color"
	"math"

	"vizndp/internal/grid"
)

// referenceMeshes is Meshes as it was before the rasteriser bounded each
// triangle's box by pixel centres: it projects a vertex once per triangle
// that uses it, shades every triangle, and tests every pixel of the box
// floor(min)..ceil(max). Meshes must match its pixels exactly
// (TestMeshesMatchReference, FuzzRasterTriangle). It also returns its
// z-buffer.
func referenceMeshes(layers []Layer, opts Options) (*image.RGBA, []float64) {
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
		return img, zbuf // nothing to draw
	}
	center := lo.Add(hi).Scale(0.5)
	radius := hi.Sub(lo).Norm() / 2
	// vizlint:ignore floateq exact-zero guard for a degenerate (single-point) bounding box
	if radius == 0 {
		radius = 1
	}
	scale := 0.45 * float64(min(o.Width, o.Height)) / radius

	project := func(v grid.Vec3) (sx, sy, depth float64) {
		r := v.Sub(center)
		sx = float64(o.Width)/2 + r.Dot(right)*scale
		sy = float64(o.Height)/2 - r.Dot(trueUp)*scale
		depth = r.Dot(view)
		return
	}

	for _, layer := range layers {
		referenceLayer(img, zbuf, o.Width, o.Height, layer, project)
	}
	return img, zbuf
}

// referenceLayer is the reference's loop over one layer's triangles;
// project maps a vertex to screen coordinates and depth.
func referenceLayer(img *image.RGBA, zbuf []float64, w, h int, layer Layer,
	project func(grid.Vec3) (sx, sy, depth float64)) {

	light := grid.Vec3{X: 0.4, Y: 0.25, Z: 0.88}.Normalize()

	m := layer.Mesh
	if m == nil {
		return
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
		referenceRasterTriangle(img, zbuf, w, h,
			ax, ay, az1, bx, by, bz, cx, cy, cz, col)
	}
}

// referenceRasterTriangle fills one screen-space triangle with z-buffering.
func referenceRasterTriangle(img *image.RGBA, zbuf []float64, w, h int,
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
