package render

import (
	"image/color"
	"image/png"
	"math"
	"os"
	"path/filepath"
	"testing"

	"vizndp/internal/contour"
	"vizndp/internal/grid"
)

func sphereMesh(t testing.TB, n int, r float64) *contour.Mesh {
	t.Helper()
	g := grid.NewUniform(n, n, n)
	vals := make([]float32, g.NumPoints())
	c := float64(n-1) / 2
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				dx, dy, dz := float64(i)-c, float64(j)-c, float64(k)-c
				vals[g.PointIndex(i, j, k)] = float32(math.Sqrt(dx*dx + dy*dy + dz*dz))
			}
		}
	}
	m, err := contour.MarchingTetrahedra(g, vals, []float64{r})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRenderSphereCoversCenter(t *testing.T) {
	m := sphereMesh(t, 24, 8)
	cyan := color.RGBA{R: 40, G: 220, B: 220, A: 255}
	img, err := Mesh(m, cyan, Options{Width: 128, Height: 128})
	if err != nil {
		t.Fatal(err)
	}
	bg := Options{}.withDefaults().Background
	// Centre pixel shows the sphere; corners show background.
	if img.RGBAAt(64, 64) == bg {
		t.Error("centre pixel is background; sphere not drawn")
	}
	for _, p := range [][2]int{{1, 1}, {126, 1}, {1, 126}, {126, 126}} {
		if img.RGBAAt(p[0], p[1]) != bg {
			t.Errorf("corner %v not background", p)
		}
	}
	// The drawn pixels should be cyan-ish: green/blue dominant over red.
	px := img.RGBAAt(64, 64)
	if px.G <= px.R || px.B <= px.R {
		t.Errorf("centre pixel %v not cyan-shaded", px)
	}
}

func TestRenderEmptyMesh(t *testing.T) {
	img, err := Mesh(&contour.Mesh{}, color.RGBA{R: 255, A: 255}, Options{Width: 32, Height: 32})
	if err != nil {
		t.Fatal(err)
	}
	bg := Options{}.withDefaults().Background
	if img.RGBAAt(16, 16) != bg {
		t.Error("empty mesh drew pixels")
	}
}

func TestZBufferOcclusion(t *testing.T) {
	// Two unit-square triangles at different depths along the view axis;
	// the nearer one must win.
	near := &contour.Mesh{
		Vertices: []grid.Vec3{{X: -1, Y: -1, Z: 1}, {X: 1, Y: -1, Z: 1}, {X: 0, Y: 1, Z: 1}},
		Tris:     [][3]int32{{0, 1, 2}},
	}
	far := &contour.Mesh{
		Vertices: []grid.Vec3{{X: -1, Y: -1, Z: -1}, {X: 1, Y: -1, Z: -1}, {X: 0, Y: 1, Z: -1}},
		Tris:     [][3]int32{{0, 1, 2}},
	}
	red := color.RGBA{R: 200, A: 255}
	blue := color.RGBA{B: 200, A: 255}
	// Camera along +Z (elevation 90): near (z=1) is closer to the camera.
	opts := Options{Width: 64, Height: 64, ElevationDeg: 90}
	img, err := Meshes([]Layer{{Mesh: far, Color: blue}, {Mesh: near, Color: red}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	px := img.RGBAAt(32, 32)
	if px.R == 0 || px.B != 0 {
		t.Errorf("centre pixel %v; near red triangle should occlude far blue", px)
	}
	// Order independence: drawing near first must give the same winner.
	img2, err := Meshes([]Layer{{Mesh: near, Color: red}, {Mesh: far, Color: blue}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	px2 := img2.RGBAAt(32, 32)
	if px2 != px {
		t.Errorf("z-buffer order dependent: %v vs %v", px, px2)
	}
}

func TestRenderTwoLayers(t *testing.T) {
	// Fig. 4 composition: two contours in one frame, different colors.
	water := sphereMesh(t, 20, 8)
	asteroid := sphereMesh(t, 20, 3)
	img, err := Meshes([]Layer{
		{Mesh: water, Color: color.RGBA{R: 40, G: 210, B: 210, A: 255}},
		{Mesh: asteroid, Color: color.RGBA{R: 230, G: 210, B: 40, A: 255}},
	}, Options{Width: 96, Height: 96, AzimuthDeg: 30, ElevationDeg: 25})
	if err != nil {
		t.Fatal(err)
	}
	bg := Options{}.withDefaults().Background
	drawn := 0
	for y := 0; y < 96; y++ {
		for x := 0; x < 96; x++ {
			if img.RGBAAt(x, y) != bg {
				drawn++
			}
		}
	}
	if drawn < 500 {
		t.Errorf("only %d pixels drawn", drawn)
	}
}

func TestSavePNG(t *testing.T) {
	m := sphereMesh(t, 16, 5)
	img, err := Mesh(m, color.RGBA{R: 200, G: 100, B: 50, A: 255}, Options{Width: 48, Height: 48})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "out.png")
	if err := SavePNG(img, path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	decoded, err := png.Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Bounds().Dx() != 48 {
		t.Errorf("decoded width = %d", decoded.Bounds().Dx())
	}
}

func TestSavePNGBadPath(t *testing.T) {
	m := sphereMesh(t, 12, 4)
	img, _ := Mesh(m, color.RGBA{A: 255}, Options{Width: 8, Height: 8})
	if err := SavePNG(img, filepath.Join(t.TempDir(), "no", "such", "dir", "x.png")); err == nil {
		t.Error("bad path accepted")
	}
}
