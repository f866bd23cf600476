// Package sim generates the two synthetic datasets used by every
// experiment, substituting for the paper's proprietary-scale inputs:
//
//   - the LANL "deep water asteroid impact" ensemble produced by xRage
//     (Sec. III): 11 float arrays on an N^3 grid over 9 timesteps, with
//     an asteroid striking an ocean midway through the run;
//   - the SDRBench Nyx cosmology snapshot (Sec. VII): 6 float arrays with
//     a log-normal baryon-density field and rare halo peaks.
//
// The generators are deterministic (seeded) and tuned to reproduce the
// dataset properties the evaluation depends on: the compressibility decay
// over time, the relative selectivities of v02 vs v03, the growth of
// contour selectivity with isovalue, and Nyx's poor lossless
// compressibility with ~0.06% halo-contour selectivity.
package sim

import "math"

// hash3 mixes lattice coordinates and a seed into 32 pseudo-random bits
// (an xxhash-style avalanche; no allocation, referentially transparent).
func hash3(x, y, z int32, seed uint32) uint32 {
	h := uint32(x)*0x9E3779B1 ^ uint32(y)*0x85EBCA77 ^ uint32(z)*0xC2B2AE3D ^ seed*0x27D4EB2F
	h ^= h >> 15
	h *= 0x85EBCA77
	h ^= h >> 13
	h *= 0xC2B2AE3D
	h ^= h >> 16
	return h
}

// latticeValue returns a uniform [0,1) value at a lattice point.
func latticeValue(x, y, z int32, seed uint32) float64 {
	return float64(hash3(x, y, z, seed)) / float64(1<<32)
}

// valueNoise is trilinear-interpolated lattice noise at the given feature
// scale (in grid cells), returning values in [0,1).
func valueNoise(x, y, z float64, scale float64, seed uint32) float64 {
	ix, iy, iz, fx, fy, fz := noiseCell(x, y, z, scale)
	return cellValue(ix, iy, iz, fx, fy, fz, seed)
}

// noiseCell returns a point's lattice cell and smoothstep fade weights at
// one scale: everything valueNoise computes before it hashes, so noise
// terms that differ only in seed share it.
func noiseCell(x, y, z float64, scale float64) (ix, iy, iz int32, fx, fy, fz float64) {
	x, y, z = x/scale, y/scale, z/scale
	x0, y0, z0 := math.Floor(x), math.Floor(y), math.Floor(z)
	fx, fy, fz = x-x0, y-y0, z-z0
	// Smoothstep fade for C1 continuity.
	fx = fx * fx * (3 - 2*fx)
	fy = fy * fy * (3 - 2*fy)
	fz = fz * fz * (3 - 2*fz)
	return int32(x0), int32(y0), int32(z0), fx, fy, fz
}

// cellValue interpolates the eight lattice values of cell (ix, iy, iz)
// for seed at fade weights (fx, fy, fz).
func cellValue(ix, iy, iz int32, fx, fy, fz float64, seed uint32) float64 {
	lerp := func(a, b, t float64) float64 { return a + (b-a)*t }
	v000 := latticeValue(ix, iy, iz, seed)
	v100 := latticeValue(ix+1, iy, iz, seed)
	v010 := latticeValue(ix, iy+1, iz, seed)
	v110 := latticeValue(ix+1, iy+1, iz, seed)
	v001 := latticeValue(ix, iy, iz+1, seed)
	v101 := latticeValue(ix+1, iy, iz+1, seed)
	v011 := latticeValue(ix, iy+1, iz+1, seed)
	v111 := latticeValue(ix+1, iy+1, iz+1, seed)
	return lerp(
		lerp(lerp(v000, v100, fx), lerp(v010, v110, fx), fy),
		lerp(lerp(v001, v101, fx), lerp(v011, v111, fx), fy),
		fz)
}

// fbm sums octaves of value noise for a natural-looking field in [0,1).
func fbm(x, y, z float64, scale float64, octaves int, seed uint32) float64 {
	sum, amp, norm := 0.0, 1.0, 0.0
	for o := 0; o < octaves; o++ {
		sum += amp * valueNoise(x, y, z, scale, seed+uint32(o)*101)
		norm += amp
		amp /= 2
		scale /= 2
		if scale < 1 {
			break
		}
	}
	return sum / norm
}

// fbm3 is fbm at one point for seeds seed, seed+1 and seed+2, each with
// fbm's bits: the three share each octave's lattice cell and fade
// weights.
func fbm3(x, y, z float64, scale float64, octaves int, seed uint32) [3]float64 {
	var sum [3]float64
	amp, norm := 1.0, 0.0
	for o := 0; o < octaves; o++ {
		ix, iy, iz, fx, fy, fz := noiseCell(x, y, z, scale)
		for s := range sum {
			sum[s] += amp * cellValue(ix, iy, iz, fx, fy, fz, seed+uint32(s)+uint32(o)*101)
		}
		norm += amp
		amp /= 2
		scale /= 2
		if scale < 1 {
			break
		}
	}
	for s := range sum {
		sum[s] /= norm
	}
	return sum
}

// clamp01 clamps v to [0,1].
func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// smoothstep maps v through the classic 3v^2-2v^3 ramp over [lo,hi].
func smoothstep(lo, hi, v float64) float64 {
	t := clamp01((v - lo) / (hi - lo))
	return t * t * (3 - 2*t)
}
