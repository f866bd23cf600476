package sim

import (
	"fmt"
	"math"

	"vizndp/internal/grid"
)

// NyxArrayNames lists the six arrays of the Nyx snapshot.
var NyxArrayNames = []string{
	"velocity_x", "velocity_y", "velocity_z",
	"temperature", "dark_matter_density", "baryon_density",
}

// NyxHaloThreshold is the baryon-density value above which halos form;
// the paper contours at this value (citing Jin et al.).
const NyxHaloThreshold = 81.66

// NyxConfig parameterizes the cosmology snapshot generator.
type NyxConfig struct {
	// N is the grid edge length.
	N int
	// Seed varies the realization.
	Seed uint32
}

// Generate produces the single-timestep, 6-array Nyx-like dataset.
// The baryon-density field is log-normal — overwhelmingly below the halo
// threshold — with a sparse set of compact peaks crossing it, so the halo
// contour selects on the order of 0.1% of mesh points. All fields carry
// fine-grained noise, reproducing the dataset's poor lossless
// compressibility (the paper measured only ~11% size reduction).
func (c NyxConfig) Generate() (*grid.Dataset, error) {
	if c.N < 8 {
		return nil, fmt.Errorf("sim: nyx grid edge %d too small (need >= 8)", c.N)
	}
	n := c.N
	// ~10 halos per 96^3 volume, scaled by volume.
	halos := 1 + 10*n*n*n/(96*96*96)
	g := grid.NewUniform(n, n, n)
	g.Spacing = grid.Vec3{X: 1.0 / float64(n-1), Y: 1.0 / float64(n-1), Z: 1.0 / float64(n-1)}
	ds := grid.NewDataset(g)

	fields := make(map[string]*grid.Field, len(NyxArrayNames))
	for _, name := range NyxArrayNames {
		fields[name] = grid.NewField(name, g.NumPoints())
	}

	// Halo centres and radii, in normalized coordinates.
	type halo struct {
		c grid.Vec3
		r float64
	}
	hs := make([]halo, halos)
	for i := range hs {
		hi := int32(i)
		hs[i] = halo{
			c: grid.Vec3{
				X: 0.08 + 0.84*latticeValue(hi, 0, 0, c.Seed+101),
				Y: 0.08 + 0.84*latticeValue(hi, 1, 0, c.Seed+101),
				Z: 0.08 + 0.84*latticeValue(hi, 2, 0, c.Seed+101),
			},
			r: (2.2 + 2.5*latticeValue(hi, 3, 0, c.Seed+101)) / float64(n-1),
		}
	}

	// A halo adds 260·exp(−d2/2r²) to a density that is at least
	// exp(−2.15) ≈ 0.1165 (ls and fine lie in [0,1)), half an ulp of
	// which is ~6.9e-18. Beyond d2 = 100·r² the term is below
	// 260·exp(−50) ≈ 5.1e-20, so adding it rounds back to the same
	// density: skipping it leaves every sum unchanged, bit for bit. A row
	// skips the halos whose dy²+dz² alone is past the cut, since
	// (dx²+dy²)+dz² is never below dy²+dz² in floating point either.
	cut := make([]float64, len(hs))
	for h := range hs {
		cut[h] = 100 * hs[h].r * hs[h].r
	}

	vx := fields["velocity_x"].Values
	vy := fields["velocity_y"].Values
	vz := fields["velocity_z"].Values
	tm := fields["temperature"].Values
	dm := fields["dark_matter_density"].Values
	bd := fields["baryon_density"].Values
	inv := 1.0 / float64(n-1)
	parallel(n, func(k int) {
		z := float64(k) * inv
		near := make([]int, 0, len(hs))
		for j := 0; j < n; j++ {
			y := float64(j) * inv
			near = near[:0]
			for h := range hs {
				dy, dz := y-hs[h].c.Y, z-hs[h].c.Z
				if dy*dy+dz*dz <= cut[h] {
					near = append(near, h)
				}
			}
			for i := 0; i < n; i++ {
				x := float64(i) * inv
				idx := g.PointIndex(i, j, k)
				fx, fy, fz := float64(i), float64(j), float64(k)

				// Log-normal background: smooth large-scale
				// structure plus fine noise in the exponent, so
				// the mantissas are effectively incompressible.
				ls := fbm(fx, fy, fz, 24, 3, c.Seed+1)
				fine := fbm(fx, fy, fz, 2, 2, c.Seed+2)
				expo := 3.2*(ls-0.5) + 1.1*(fine-0.5)
				density := math.Exp(expo) // median 1, tail << threshold

				// Compact halo peaks pushing above the threshold.
				for _, h := range near {
					dx, dy, dz := x-hs[h].c.X, y-hs[h].c.Y, z-hs[h].c.Z
					d2 := dx*dx + dy*dy + dz*dz
					if d2 > cut[h] {
						continue
					}
					density += 260 * math.Exp(-d2/(2*hs[h].r*hs[h].r))
				}
				bd[idx] = float32(density)

				// Dark matter traces baryons with its own noise.
				dm[idx] = float32(density * (3 + 2*fbm(fx, fy, fz, 4, 2, c.Seed+3)))

				// Temperature correlates with density.
				tm[idx] = float32(8e3 * math.Pow(density, 0.6) *
					(0.5 + fbm(fx, fy, fz, 3, 2, c.Seed+4)))

				// Peculiar velocities: bulk flows plus dispersion.
				v := fbm3(fx, fy, fz, 16, 3, c.Seed+5)
				vx[idx] = float32(3e7 * (v[0] - 0.5))
				vy[idx] = float32(3e7 * (v[1] - 0.5))
				vz[idx] = float32(3e7 * (v[2] - 0.5))
			}
		}
	})

	for _, name := range NyxArrayNames {
		ds.MustAddField(fields[name])
	}
	return ds, nil
}
