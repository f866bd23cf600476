package sim

import (
	"fmt"
	"runtime"
	"testing"

	"vizndp/internal/grid"
	"vizndp/internal/vtkio"
)

// pinnedCRCs are the CRC32C of every generated array's float bits, taken
// on amd64. A generator change that is meant to be a pure speed-up must
// leave every one of them as it is.
var pinnedCRCs = map[string]map[string]uint32{
	"asteroid n48 seed7 step0": {
		"rho": 0xd47c323c, "prs": 0xc3fa3e13, "tev": 0x39171945, "xdt": 0x65e4fbfb,
		"ydt": 0x65e4fbfb, "zdt": 0x987b751e, "snd": 0x488e166f, "grd": 0x911d0b94,
		"mat": 0xc8f8b62c, "v02": 0xfdbddd71, "v03": 0x8b377e4f,
	},
	"asteroid n48 seed7 step24006": {
		"rho": 0x21df77fe, "prs": 0x180aebc5, "tev": 0x39171945, "xdt": 0x0e802950,
		"ydt": 0x0047b1c1, "zdt": 0x348abcfd, "snd": 0x77ed0d1e, "grd": 0x42e67023,
		"mat": 0xa40834ef, "v02": 0x59d50f8b, "v03": 0x30a082e9,
	},
	"asteroid n48 seed7 step48013": {
		"rho": 0xb3228090, "prs": 0x6e1547b3, "tev": 0x2622b764, "xdt": 0xbd0a5b45,
		"ydt": 0x5ecd1faf, "zdt": 0x6529f521, "snd": 0x78b79133, "grd": 0xa75601db,
		"mat": 0xd62f5511, "v02": 0x3275f6cf, "v03": 0x12bf305c,
	},
	"nyx n48 seed13": {
		"velocity_x": 0x35fb0333, "velocity_y": 0xee83fc88, "velocity_z": 0xd6b85e4c,
		"temperature": 0x01cfe633, "dark_matter_density": 0x6bc716e2,
		"baryon_density": 0xf4b79eca,
	},
	"asteroid n128 seed1 step48013": {
		"rho": 0xd77b468d, "prs": 0x724277ae, "tev": 0xd103d89a, "xdt": 0x724127aa,
		"ydt": 0x99532f30, "zdt": 0x5e7c5b39, "snd": 0x4c4fca9b, "grd": 0x4f84a439,
		"mat": 0x930f70eb, "v02": 0xcd316ed8, "v03": 0xd62253a0,
	},
	"nyx n128 seed7": {
		"velocity_x": 0xcf89bea6, "velocity_y": 0x70523d7f, "velocity_z": 0x04f26741,
		"temperature": 0xbb7831a5, "dark_matter_density": 0x5dcd7c97,
		"baryon_density": 0xb7bf006f,
	},
}

// skipOffAMD64 skips a bit-identity pin where the pinned bits were not
// taken: Go may fuse x*y+z into one rounding on arm64, ppc64 and s390x,
// so the generators' bits are per-architecture.
func skipOffAMD64(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("bits pinned on amd64; Go may fuse multiply-adds on %s, so generated floats differ there", runtime.GOARCH)
	}
}

// TestGeneratorsPinned holds both generators to the bits they have
// always produced.
func TestGeneratorsPinned(t *testing.T) {
	skipOffAMD64(t)
	type build struct {
		name string
		gen  func() (*grid.Dataset, error)
	}
	ast := testAsteroid()
	builds := []build{}
	for _, step := range []int{0, AsteroidMaxStep / 2, AsteroidMaxStep} {
		builds = append(builds, build{fmt.Sprintf("asteroid n48 seed7 step%d", step),
			func() (*grid.Dataset, error) { return ast.Generate(step) }})
	}
	builds = append(builds, build{"nyx n48 seed13", testNyx().Generate})
	if !testing.Short() {
		builds = append(builds,
			build{fmt.Sprintf("asteroid n128 seed1 step%d", AsteroidMaxStep),
				func() (*grid.Dataset, error) { return AsteroidConfig{N: 128, Seed: 1}.Generate(AsteroidMaxStep) }},
			build{"nyx n128 seed7", NyxConfig{N: 128, Seed: 7}.Generate})
	}
	for _, b := range builds {
		ds, err := b.gen()
		if err != nil {
			t.Fatal(err)
		}
		want := pinnedCRCs[b.name]
		for _, name := range ds.FieldNames() {
			got := vtkio.Checksum(vtkio.FloatsAsBytes(ds.Field(name).Values))
			if w, ok := want[name]; !ok || got != w {
				t.Errorf("%s %s: crc32c %#08x, want %#08x", b.name, name, got, w)
			}
		}
	}
}
