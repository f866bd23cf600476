package sim

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"vizndp/internal/grid"
)

// AsteroidMaxStep is the last timestep of the simulated run, matching the
// paper's 0..48,013 range.
const AsteroidMaxStep = 48013

// AsteroidArrayNames lists the 11 arrays of Table I, in table order.
var AsteroidArrayNames = []string{
	"rho", "prs", "tev", "xdt", "ydt", "zdt", "snd", "grd", "mat", "v02", "v03",
}

// AsteroidConfig parameterizes the deep-water asteroid impact generator.
type AsteroidConfig struct {
	// N is the grid edge length; the paper's dataset is 500 (125M points
	// per array). Experiments here default to a smaller edge.
	N int
	// Seed varies the ensemble member.
	Seed uint32
}

// Timesteps returns n evenly spaced timesteps from 0 to AsteroidMaxStep;
// the paper's experiments use n = 9.
func (c AsteroidConfig) Timesteps(n int) []int {
	if n < 2 {
		return []int{0}
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i * AsteroidMaxStep / (n - 1)
	}
	return out
}

// impactFraction is where in normalized time the asteroid hits the ocean
// ("impacting the ocean midway through the simulation").
const impactFraction = 0.5

// Generate produces the full 11-array dataset for one timestep. The same
// (config, step) always yields identical data.
func (c AsteroidConfig) Generate(step int) (*grid.Dataset, error) {
	if c.N < 8 {
		return nil, fmt.Errorf("sim: asteroid grid edge %d too small (need >= 8)", c.N)
	}
	if step < 0 || step > AsteroidMaxStep {
		return nil, fmt.Errorf("sim: timestep %d outside [0, %d]", step, AsteroidMaxStep)
	}
	n := c.N
	g := grid.NewUniform(n, n, n)
	g.Spacing = grid.Vec3{X: 1.0 / float64(n-1), Y: 1.0 / float64(n-1), Z: 1.0 / float64(n-1)}
	ds := grid.NewDataset(g)

	fields := make(map[string]*grid.Field, len(AsteroidArrayNames))
	for _, name := range AsteroidArrayNames {
		fields[name] = grid.NewField(name, g.NumPoints())
	}

	t := float64(step) / AsteroidMaxStep
	st := asteroidState(t, c.Seed)

	// Fill all arrays in one sweep, parallel over z-slabs.
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		k0 := n * w / workers
		k1 := n * (w + 1) / workers
		wg.Add(1)
		go func(k0, k1 int) {
			defer wg.Done()
			c.fillSlab(g, fields, st, k0, k1)
		}(k0, k1)
	}
	wg.Wait()

	for _, name := range AsteroidArrayNames {
		ds.MustAddField(fields[name])
	}
	return ds, nil
}

// asteroidSim holds the per-timestep state of the cartoon physics.
type asteroidSim struct {
	t        float64 // normalized time [0,1]
	tau      float64 // post-impact time [0,1]; 0 before impact
	seed     uint32
	seaLevel float64
	// asteroid
	astC grid.Vec3 // centre in normalized coords
	astR float64
	// waves
	ringR, ringAmp float64
	craterAmp      float64
	// entropy controls
	bandNoise float64 // in-interface noise amplitude
	mistAmp   float64 // spray cloud amplitude
	mistR     float64 // spray cloud radius
}

func asteroidState(t float64, seed uint32) asteroidSim {
	s := asteroidSim{t: t, seed: seed, seaLevel: 0.40}
	const r0 = 0.10
	if t < impactFraction {
		// Falling from the upper atmosphere.
		z0 := 0.92
		frac := t / impactFraction
		s.astC = grid.Vec3{X: 0.5, Y: 0.5, Z: z0 - (z0-s.seaLevel)*frac}
		s.astR = r0
	} else {
		tau := (t - impactFraction) / (1 - impactFraction)
		s.tau = tau
		// Deforming and sinking after impact.
		s.astC = grid.Vec3{X: 0.5, Y: 0.5, Z: s.seaLevel - 0.13*tau}
		s.astR = r0 * (1 + 1.4*tau)
		s.ringR = 0.04 + 0.42*tau
		s.ringAmp = 0.045 * (1 - 0.55*tau)
		s.craterAmp = 0.07 * (1 - tau)
		s.mistAmp = 0.38 * math.Sqrt(tau)
		s.mistR = 0.18 + 0.22*tau
	}
	// Interface roughness grows through the whole run (entropy increase).
	s.bandNoise = 0.04 + 0.5*t
	return s
}

// interfaceProfile converts a signed distance (positive = inside, in
// normalized units) into a volume fraction. The profile is flat near
// fraction 1 and steep near fraction 0, which makes higher contour
// values select thicker shells — the trend in the paper's Fig. 6.
func interfaceProfile(sdf, width float64) float64 {
	u := clamp01(sdf/width + 0.5)
	return 1 - (1-u)*(1-u)
}

func (c AsteroidConfig) fillSlab(g *grid.Uniform, fields map[string]*grid.Field,
	s asteroidSim, k0, k1 int) {

	n := c.N
	inv := 1.0 / float64(n-1)
	width := 2.5 * inv // interface half-width: a couple of cells

	rho := fields["rho"].Values
	prs := fields["prs"].Values
	tev := fields["tev"].Values
	xdt := fields["xdt"].Values
	ydt := fields["ydt"].Values
	zdt := fields["zdt"].Values
	snd := fields["snd"].Values
	grd := fields["grd"].Values
	mat := fields["mat"].Values
	v02 := fields["v02"].Values
	v03 := fields["v03"].Values

	for k := k0; k < k1; k++ {
		w := float64(k) * inv
		for j := 0; j < n; j++ {
			y := float64(j) * inv
			for i := 0; i < n; i++ {
				x := float64(i) * inv
				idx := g.PointIndex(i, j, k)

				fx, fy, fz := float64(i), float64(j), float64(k)

				// ---- asteroid volume fraction (v03) ----
				dax := x - s.astC.X
				day := y - s.astC.Y
				daz := w - s.astC.Z
				dAst := math.Sqrt(dax*dax + day*day + daz*daz)
				a := interfaceProfile(s.astR-dAst, width)
				if s.tau > 0 && a > 0 {
					// Break the deforming asteroid up with noise, strongest
					// near its boundary so the core stays intact material.
					edge := smoothstep(0.45, 1, dAst/s.astR)
					a *= 1 - 0.75*s.tau*edge*fbm(fx, fy, fz, 6, 2, s.seed+11)
				}
				// Fragment blobs thrown out after impact.
				if s.tau > 0 {
					for f := int32(0); f < 5; f++ {
						ang := 2 * math.Pi * latticeValue(f, 0, 0, s.seed+21)
						rad := (0.08 + 0.18*s.tau) * (0.5 + latticeValue(f, 1, 0, s.seed+21))
						bx := 0.5 + rad*math.Cos(ang)
						by := 0.5 + rad*math.Sin(ang)
						bz := s.seaLevel + 0.05*s.tau
						br := 0.016 + 0.012*latticeValue(f, 2, 0, s.seed+21)
						d := math.Sqrt((x-bx)*(x-bx) + (y-by)*(y-by) + (w-bz)*(w-bz))
						fb := interfaceProfile(br-d, width)
						if fb > a {
							a = fb
						}
					}
				}
				// In-band noise (keeps the 0 and 1 plateaus exact).
				if a > 0 && a < 1 {
					a += 4 * a * (1 - a) * s.bandNoise * 0.25 *
						(fbm(fx, fy, fz, 3, 2, s.seed+31) - 0.5)
					a = clamp01(a)
				}
				// Porous interior: patches of sub-unity fraction inside
				// the asteroid (cracks, regolith). High contour values
				// (0.7, 0.9) cross these noisy patches while low values
				// only see the outer shell, so selectivity grows with
				// the contour value (the paper's Fig. 6 trend), and the
				// texture deepens over the run.
				// vizlint:ignore floateq sentinel test: a is assigned exactly 1 in the interior branch
				if a == 1 {
					patch := smoothstep(0.4, 0.7, fbm(fx, fy, fz, 9, 2, s.seed+35))
					if patch > 0 {
						crack := 1.3 * patch * (0.55 + 0.45*s.t) *
							fbm(fx, fy, fz, 2, 2, s.seed+36)
						a = clamp01(1 - crack)
					}
				}

				// ---- ocean surface and water fraction (v02) ----
				rimp := math.Hypot(x-0.5, y-0.5)
				surf := s.seaLevel
				// Pre-impact ripples, growing rougher over time.
				surf += 0.004 * (1 + 3*s.t) * (fbm(fx, fy, 0, 12, 3, s.seed+41) - 0.5)
				if s.tau > 0 {
					// Expanding tsunami ring.
					dr := rimp - s.ringR
					surf += s.ringAmp * math.Cos(dr/0.018) * math.Exp(-dr*dr/(2*0.05*0.05))
					// Transient crater at the impact site.
					surf -= s.craterAmp * math.Exp(-rimp*rimp/(2*0.06*0.06))
				}
				wv := interfaceProfile(surf-w, width)
				if wv > 0 && wv < 1 {
					wv += 4 * wv * (1 - wv) * s.bandNoise * 0.25 *
						(fbm(fx, fy, fz, 3, 2, s.seed+51) - 0.5)
					wv = clamp01(wv)
				}
				// Patchy sub-surface foam: mixing just below the surface
				// pulls the fraction slightly under 1 in growing patches.
				// High contour values (0.7, 0.9) cross these noisy patches
				// while low values see only the sharp interface — the
				// higher-selectivity-at-higher-values trend of Fig. 6.
				// vizlint:ignore floateq sentinel test: wv is assigned exactly 1 below the surface
				if wv == 1 {
					depth := surf - w
					if depth < 0.12 {
						patch := smoothstep(0.5, 0.8, fbm(fx, fy, 0, 10, 2, s.seed+81))
						if patch > 0 {
							foam := 0.45 * patch * (0.45 + 0.55*s.t) * (1 - depth/0.12) *
								fbm(fx, fy, fz, 2, 2, s.seed+82)
							wv = clamp01(1 - foam)
						}
					}
				}
				// Spray/mist cloud above the impact: broad, noisy,
				// mid-range fractions that raise entropy late in the run.
				if s.mistAmp > 0 && w > surf && w < s.seaLevel+0.3 && rimp < s.mistR {
					env := (1 - rimp/s.mistR) * (1 - (w-surf)/0.3)
					m := s.mistAmp * env * fbm(fx, fy, fz, 5, 3, s.seed+61)
					if m > wv {
						wv = clamp01(m)
					}
				}
				// Water cannot occupy the same volume as the asteroid.
				if wv > 1-a {
					wv = 1 - a
				}
				av := 1 - wv - a // air fraction

				v02[idx] = float32(wv)
				v03[idx] = float32(a)

				// ---- derived physical fields ----
				depth := surf - w
				hydro := 0.0
				if depth > 0 {
					hydro = depth
				}
				rhoV := a*3.3 + wv*(1.0+0.04*hydro) + av*0.0012
				prsV := 1.0 + 98*hydro*wv + 0.3*av*math.Exp(-(w-s.seaLevel)*8)
				tevV := 0.025
				if s.tau > 0 {
					blast := math.Exp(-((rimp * rimp) + (w-s.seaLevel)*(w-s.seaLevel)) /
						(2 * (0.05 + 0.3*s.tau) * (0.05 + 0.3*s.tau)))
					prsV += 180 * (1 - s.tau) * blast
					tevV += 2.2 * (1 - 0.8*s.tau) * blast
				}
				// Velocity: falling asteroid, radial splash, wave motion.
				var vx, vy, vz float64
				// vizlint:ignore floateq sentinel test: tau stays exactly 0 until impact
				if a > 0.01 && s.tau == 0 {
					vz = -2.0e5 * a
				}
				if s.tau > 0 {
					sp := 1.6e5 * (1 - s.tau) * math.Exp(-rimp/(0.1+0.3*s.tau))
					if rimp > 1e-9 {
						vx = sp * (x - 0.5) / rimp
						vy = sp * (y - 0.5) / rimp
					}
					vz = sp * 0.4 * math.Exp(-math.Abs(w-s.seaLevel)*10)
				}
				// Turbulent component grows with time everywhere fluid is.
				turb := 2.5e4 * s.t * (wv + a)
				vx += turb * (fbm(fx, fy, fz, 4, 2, s.seed+71) - 0.5)
				vy += turb * (fbm(fx, fy, fz, 4, 2, s.seed+72) - 0.5)
				vz += turb * (fbm(fx, fy, fz, 4, 2, s.seed+73) - 0.5)

				sndV := a*3.0e5 + wv*1.5e5 + av*3.4e4

				// AMR refinement level: deepest near material interfaces.
				band := 4 * (wv*(1-wv) + a*(1-a))
				grdV := math.Round(1 + 3*smoothstep(0, 0.8, band))

				// Dominant material id.
				matV := 1.0 // air
				if wv >= 0.5 {
					matV = 2
				}
				if a >= 0.5 {
					matV = 3
				}

				rho[idx] = float32(rhoV)
				prs[idx] = float32(prsV)
				tev[idx] = float32(tevV)
				xdt[idx] = float32(vx)
				ydt[idx] = float32(vy)
				zdt[idx] = float32(vz)
				snd[idx] = float32(sndV)
				grd[idx] = float32(grdV)
				mat[idx] = float32(matV)
			}
		}
	}
}
