// Quickstart: the split contour filter in a single process.
//
// Generates one timestep of the deep-water asteroid impact dataset, runs
// the pre-filter/post-filter pair locally over the wire format, verifies
// the result against a plain full-array contour, and renders a PNG.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"image/color"
	"io"
	"log"
	"os"

	"vizndp/internal/contour"
	"vizndp/internal/core"
	"vizndp/internal/render"
	"vizndp/internal/sim"
	"vizndp/internal/stats"
)

func main() {
	log.SetFlags(0)
	if err := run(os.Stdout, 64, "quickstart.png"); err != nil {
		log.Fatal(err)
	}
}

// run contours an n³ timestep and writes the render to pngPath.
func run(w io.Writer, n int, pngPath string) error {
	// One mid-impact timestep of the 11-array xRage-like dataset.
	ds, err := sim.AsteroidConfig{N: n, Seed: 7}.Generate(24006)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "dataset: %v grid, %d arrays\n", ds.Grid.Dims, ds.NumFields())

	// Contour the water surface (v02) at 0.1 with the split filter: the
	// pre-filter selects only the mesh points the contour needs, the
	// post-filter rebuilds the contour from that sparse payload.
	field := ds.Field("v02")
	mesh, st, err := core.SplitContour(ds.Grid, field, []float64{0.1}, core.EncAuto)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "pre-filter: selected %d of %d points (%.3f%%)\n",
		st.SelectedPoints, st.NumPoints, 100*st.Selectivity())
	fmt.Fprintf(w, "transfer:   %s instead of %s (%.0fx reduction)\n",
		stats.FormatBytes(st.PayloadBytes), stats.FormatBytes(st.RawBytes), st.Reduction())

	// The invariant the system rests on: identical output.
	full, err := contour.MarchingTetrahedra(ds.Grid, field.Values, []float64{0.1})
	if err != nil {
		return err
	}
	if !mesh.Equal(full) {
		return fmt.Errorf("BUG: split contour differs from full contour")
	}
	fmt.Fprintf(w, "contour:    %d triangles, identical to the full-array contour\n",
		mesh.NumTriangles())

	img, err := render.Mesh(mesh, color.RGBA{R: 40, G: 210, B: 210, A: 255},
		render.Options{Width: 640, Height: 640, AzimuthDeg: 35, ElevationDeg: 30})
	if err != nil {
		return err
	}
	if err := render.SavePNG(img, pngPath); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", pngPath)
	return nil
}
