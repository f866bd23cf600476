package render

import (
	"bytes"
	"fmt"
	"image/color"
	"math"
	"runtime"
	"sync"
	"testing"

	"vizndp/internal/contour"
	"vizndp/internal/grid"
	"vizndp/internal/sim"
)

var (
	water    = color.RGBA{R: 40, G: 210, B: 210, A: 255}
	asteroid = color.RGBA{R: 235, G: 210, B: 40, A: 255}
)

// asteroidMeshes contours v02 and v03 of one 128³ asteroid time step at
// each isovalue as the benchmark's NDP frames do: the sparse kernel over
// the pre-filter's selection, which builds the dense kernel's mesh
// vertex for vertex (contour's TestSparseReconstructionInvariant) in a
// fraction of its time.
func asteroidMeshes(t testing.TB, cfg sim.AsteroidConfig, step int, isos []float64) (v02, v03 []*contour.Mesh) {
	t.Helper()
	ds, err := cfg.Generate(step)
	if err != nil {
		t.Fatal(err)
	}
	contourOf := func(name string, iso float64) *contour.Mesh {
		values, isos := ds.Field(name).Values, []float64{iso}
		mask, err := contour.SelectCellCorners(ds.Grid, values, isos)
		if err != nil {
			t.Fatal(err)
		}
		m, err := contour.MarchingCubesSparse(ds.Grid, values, mask, isos)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	for _, iso := range isos {
		v02 = append(v02, contourOf("v02", iso))
		v03 = append(v03, contourOf("v03", iso))
	}
	return v02, v03
}

// sameRender fails t unless Meshes draws layers exactly as the
// reference. It may run on any goroutine.
func sameRender(t *testing.T, what string, layers []Layer, opts Options) {
	t.Helper()
	got, err := Meshes(layers, opts)
	if err != nil {
		t.Errorf("%s: %v", what, err)
		return
	}
	want, _ := referenceMeshes(layers, opts)
	if !bytes.Equal(got.Pix, want.Pix) {
		t.Errorf("%s: pixels differ from the reference", what)
	}
}

// TestMeshesMatchReference renders the benchmark frame's meshes — 128³
// asteroid, every step, v02 and v03, isovalues 0.1..0.9 — through three
// cameras, one of them near the pole where the camera swaps its up
// vector, plus vizpipe's two-layer composition, and holds every image to
// the reference rasteriser byte for byte. Each frame renders serially,
// and the frames are spread over GOMAXPROCS goroutines while the next
// step's meshes are built; -short keeps seed 1's first and last step.
func TestMeshesMatchReference(t *testing.T) {
	cameras := []Options{
		{},
		{Width: 512, Height: 512, AzimuthDeg: 35, ElevationDeg: 30},
		{Width: 480, Height: 400, AzimuthDeg: 120, ElevationDeg: 89.5},
	}
	isos := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	seeds := []uint32{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	type frame struct {
		what   string
		layers []Layer
		opts   Options
	}
	frames := make(chan frame)
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := range frames {
				sameRender(t, f.what, f.layers, f.opts)
			}
		}()
	}
	defer wg.Wait()
	defer close(frames)
	for _, seed := range seeds {
		cfg := sim.AsteroidConfig{N: 128, Seed: seed}
		steps := cfg.Timesteps(3)
		if testing.Short() {
			steps = []int{steps[0], steps[2]}
		}
		for _, step := range steps {
			v02, v03 := asteroidMeshes(t, cfg, step, isos)
			for i, iso := range isos {
				for ci, cam := range cameras {
					frames <- frame{fmt.Sprintf("seed %d step %d v02 iso %v camera %d", seed, step, iso, ci),
						[]Layer{{Mesh: v02[i], Color: water}}, cam}
					frames <- frame{fmt.Sprintf("seed %d step %d v03 iso %v camera %d", seed, step, iso, ci),
						[]Layer{{Mesh: v03[i], Color: asteroid}}, cam}
				}
			}
			frames <- frame{fmt.Sprintf("seed %d step %d v02+v03 iso 0.1", seed, step),
				[]Layer{{Mesh: v02[0], Color: water}, {Mesh: v03[0], Color: asteroid}},
				Options{Width: 800, Height: 800, AzimuthDeg: 35, ElevationDeg: 25}}
		}
	}
}

// TestMeshConcurrent renders different meshes at different sizes from
// eight goroutines at once, so frames share the pooled z-buffers and
// projections, and holds every image to the reference.
func TestMeshConcurrent(t *testing.T) {
	type job struct {
		layers []Layer
		opts   Options
		want   []byte
	}
	jobs := make([]job, 8)
	for i := range jobs {
		m := sphereMesh(t, 12+2*i, 3+float64(i)/2)
		opts := Options{Width: 40 + 24*i, Height: 200 - 16*i, AzimuthDeg: float64(20 * i), ElevationDeg: float64(10 * i)}
		layers := []Layer{{Mesh: m, Color: water}}
		want, _ := referenceMeshes(layers, opts)
		jobs[i] = job{layers, opts, want.Pix}
	}
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			for range 20 {
				img, err := Meshes(j.layers, j.opts)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(img.Pix, j.want) {
					t.Errorf("%dx%d: pixels differ from the reference", j.opts.Width, j.opts.Height)
					return
				}
			}
		}(jobs[i])
	}
	wg.Wait()
}

// fuzzVertex is a fuzz seed's vertex: x and y in eighths of a pixel plus a
// perturbation, in units of 1e-7 px or, with ulps set, of the last bit;
// depth in eighths.
type fuzzVertex struct {
	x8, y8, dx, dy, z8 int
	ulps               bool
}

// fuzzCoord is the three bytes decodeFuzz reads back as v8/8 moved by d
// units.
func fuzzCoord(v8, d int, ulps bool) []byte {
	b1 := byte(v8 & 7)
	if ulps {
		b1 |= 8
	}
	return []byte{byte(v8>>3 + 8), b1, byte(int8(d))}
}

// fuzzInput encodes a frame size and triangles for FuzzRasterTriangle.
func fuzzInput(w, h int, tris ...[3]fuzzVertex) (uint16, []byte) {
	var data []byte
	for _, tri := range tris {
		for _, v := range tri {
			data = append(data, fuzzCoord(v.x8, v.dx, v.ulps)...)
			data = append(data, fuzzCoord(v.y8, v.dy, v.ulps)...)
			data = append(data, fuzzCoord(v.z8, 0, false)...)
		}
	}
	return uint16(w-8) | uint16(h-8)<<8, data
}

// decodeFuzz reads a frame of 8..40 px a side and one to three
// triangles, 27 bytes each, in screen coordinates. Each coordinate is a
// whole pixel from 8 px before the frame to 8 px past it, a multiple of
// 1/8 px (so vertices land exactly on pixel centres and edges) and a
// perturbation of up to 127 units of 1e-7 px (near-collinear slivers) or
// of the last bit (vertices a rounding error off a centre).
func decodeFuzz(size uint16, data []byte) (w, h int, m *contour.Mesh) {
	w, h = 8+int(size&0xff)%33, 8+int(size>>8)%33
	coord := func(b []byte, extent int) float64 {
		v := float64(int(b[0])%(extent+16)-8) + float64(b[1]&7)/8
		unit := 1e-7
		if b[1]&8 != 0 {
			unit = math.Nextafter(v, math.Inf(1)) - v
		}
		return v + float64(int8(b[2]))*unit
	}
	m = &contour.Mesh{}
	for n := 0; n < 3 && len(data) >= 27; n++ {
		for v := 0; v < 3; v++ {
			m.Vertices = append(m.Vertices, grid.Vec3{
				X: coord(data[0:3], w),
				Y: coord(data[3:6], h),
				Z: coord(data[6:9], 0),
			})
			data = data[9:]
		}
		m.Tris = append(m.Tris, [3]int32{int32(3 * n), int32(3*n + 1), int32(3*n + 2)})
	}
	return w, h, m
}

// FuzzRasterTriangle draws one to three triangles given in screen
// coordinates with drawMesh and with the reference rasteriser, and
// requires the same pixels and the same z-buffer.
func FuzzRasterTriangle(f *testing.F) {
	type v = fuzzVertex
	add := func(w, h int, tris ...[3]fuzzVertex) {
		size, data := fuzzInput(w, h, tris...)
		f.Add(size, data)
	}
	// Vertices on pixel centres, and on pixel edges.
	add(16, 16, [3]v{{x8: 20, y8: 20, z8: 8}, {x8: 84, y8: 28}, {x8: 44, y8: 100, z8: -8}})
	add(16, 16, [3]v{{x8: 16, y8: 16, z8: 8}, {x8: 88, y8: 24}, {x8: 40, y8: 104, z8: -8}})
	// Both windings of one triangle.
	add(24, 20, [3]v{{x8: 4, y8: 9}, {x8: 150, y8: 30}, {x8: 60, y8: 140}},
		[3]v{{x8: 4, y8: 9, z8: 1}, {x8: 60, y8: 140, z8: 1}, {x8: 150, y8: 30, z8: 1}})
	// Near-collinear slivers: a midpoint moved 1e-7 px off the line, one
	// along a row of centres and one diagonal.
	add(40, 12, [3]v{{x8: 4, y8: 20}, {x8: 244, y8: 20}, {x8: 124, y8: 20, dy: 1}})
	add(40, 12, [3]v{{x8: 4, y8: 20}, {x8: 124, y8: 20, dy: -1}, {x8: 244, y8: 20}})
	add(32, 32, [3]v{{x8: 12, y8: 12}, {x8: 172, y8: 172, dx: 1}, {x8: 92, y8: 92, dy: 1}})
	// Vertices a last bit off pixel centres; in the second, rounding
	// lets the test accept centres a last bit outside the vertices' range.
	add(16, 16, [3]v{{x8: 20, y8: 20, dx: -1, dy: -1, ulps: true}, {x8: 100, y8: 36, dx: 1, dy: 1, ulps: true}, {x8: 44, y8: 92, dx: 1, dy: -1, ulps: true}})
	add(16, 16, [3]v{{x8: 44, y8: 28, dx: 1, dy: 1, ulps: true}, {x8: 12, y8: 100, dx: 1, ulps: true}, {x8: 52, y8: 44, dx: -1, ulps: true}})
	// A sliver along a diagonal of centres whose perturbations keep it
	// collinear, so its area is rounding error.
	add(32, 32, [3]v{{x8: 204, y8: 172, dx: 1, dy: 1}, {x8: 108, y8: 76, dx: -1, dy: -1}, {x8: 156, y8: 124, dx: 2, dy: 2}})
	// Zero area.
	add(20, 20, [3]v{{x8: 8, y8: 8}, {x8: 40, y8: 40}, {x8: 72, y8: 72}})
	// Vertices off the frame on every side.
	add(10, 10, [3]v{{x8: -60, y8: 40}, {x8: 140, y8: -60}, {x8: 40, y8: 140}},
		[3]v{{x8: 140, y8: 140}, {x8: -64, y8: 150}, {x8: 150, y8: -64}})
	// Two coplanar triangles sharing an edge.
	add(16, 16, [3]v{{x8: 8, y8: 8, z8: 2}, {x8: 120, y8: 8, z8: 2}, {x8: 8, y8: 120, z8: 2}},
		[3]v{{x8: 120, y8: 8, z8: 2}, {x8: 120, y8: 120, z8: 2}, {x8: 8, y8: 120, z8: 2}})

	f.Fuzz(func(t *testing.T, size uint16, data []byte) {
		w, h, m := decodeFuzz(size, data)
		if len(m.Tris) == 0 {
			return
		}
		col := color.RGBA{R: 200, G: 120, B: 60, A: 255}
		o := Options{Width: w, Height: h}.withDefaults()
		identity := func(p grid.Vec3) (float64, float64, float64) { return p.X, p.Y, p.Z }
		want := newFrame(o)
		wantZ := make([]float64, w*h)
		for i := range wantZ {
			wantZ[i] = math.Inf(-1)
		}
		referenceLayer(want, wantZ, w, h, Layer{Mesh: m, Color: col}, identity)

		got := newFrame(o)
		gotZ := make([]float64, w*h)
		for i := range gotZ {
			gotZ[i] = math.Inf(-1)
		}
		proj := make([]point, len(m.Vertices))
		for i, p := range m.Vertices {
			proj[i] = point{p.X, p.Y, p.Z}
		}
		drawMesh(got, gotZ, m, proj, col)

		if !bytes.Equal(got.Pix, want.Pix) {
			t.Fatalf("%dx%d %v: pixels differ from the reference", w, h, m.Vertices)
		}
		for i := range gotZ {
			if math.Float64bits(gotZ[i]) != math.Float64bits(wantZ[i]) {
				t.Fatalf("%dx%d %v: depth at (%d,%d) is %v, reference %v", w, h, m.Vertices, i%w, i/w, gotZ[i], wantZ[i])
			}
		}
	})
}

// renderBench is BenchmarkRenderMesh128's input: the 128³ asteroid at
// seed 1, step 0, isovalue 0.5.
var renderBench struct {
	once     sync.Once
	v02, v03 *contour.Mesh
}

// BenchmarkRenderMesh128 renders one benchmark frame's mesh at 512², the
// frame's default camera: edge-on is v02, the water surface seen edge-on,
// where most triangles cover no pixel centre; zoomed is v03, the asteroid,
// few triangles covering many pixels each.
func BenchmarkRenderMesh128(b *testing.B) {
	renderBench.once.Do(func() {
		v02, v03 := asteroidMeshes(b, sim.AsteroidConfig{N: 128, Seed: 1}, 0, []float64{0.5})
		renderBench.v02, renderBench.v03 = v02[0], v03[0]
	})
	for _, bc := range []struct {
		name string
		mesh *contour.Mesh
	}{{"edge-on", renderBench.v02}, {"zoomed", renderBench.v03}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Mesh(bc.mesh, water, Options{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*bc.mesh.NumTriangles())/b.Elapsed().Seconds(), "triangles/s")
		})
	}
}
