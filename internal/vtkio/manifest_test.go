package vtkio

import (
	"strings"
	"testing"

	"vizndp/internal/grid"
)

func manifestGrid() *grid.Uniform {
	return &grid.Uniform{
		Dims:    grid.Dims{X: 12, Y: 10, Z: 8},
		Origin:  grid.Vec3{X: 0, Y: 1, Z: 2},
		Spacing: grid.Vec3{X: 1, Y: 0.5, Z: 0.25},
	}
}

func TestManifestRoundTrip(t *testing.T) {
	g := manifestGrid()
	spec := grid.BrickSpec{NX: 3, NY: 2, NZ: 1, Ghost: 1}
	m, err := BuildManifest(g, spec, []string{"v02", "v03"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Grid().Equal(g) {
		t.Errorf("grid round-trip: got %+v", got.Grid())
	}
	if got.Spec() != spec {
		t.Errorf("spec round-trip: got %+v, want %+v", got.Spec(), spec)
	}
	if len(got.Entries) != spec.Count() {
		t.Fatalf("%d entries, want %d", len(got.Entries), spec.Count())
	}
	for i, e := range got.Entries {
		if e.Shard != i%3 {
			t.Errorf("entry %d shard %d, want %d", i, e.Shard, i%3)
		}
		if e.Key != BrickKey(i) {
			t.Errorf("entry %d key %q, want %q", i, e.Key, BrickKey(i))
		}
	}
	bricks, err := got.GridBricks()
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range bricks {
		if got.Entries[i].PointLo != b.PointLo || got.Entries[i].PointHi != b.PointHi {
			t.Errorf("entry %d extent disagrees with derived brick", i)
		}
	}
}

func TestManifestUnassignedShards(t *testing.T) {
	m, err := BuildManifest(manifestGrid(), grid.BrickSpec{NX: 2, NY: 1, NZ: 1, Ghost: 1}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range m.Entries {
		if e.Shard != -1 {
			t.Errorf("entry %d shard %d, want -1 (unpinned)", i, e.Shard)
		}
	}
}

func TestManifestValidateRejects(t *testing.T) {
	fresh := func(t *testing.T) *Manifest {
		t.Helper()
		m, err := BuildManifest(manifestGrid(), grid.BrickSpec{NX: 2, NY: 2, NZ: 1, Ghost: 1}, nil, 2)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	cases := []struct {
		name   string
		mutate func(*Manifest)
		want   string
	}{
		{"bad magic", func(m *Manifest) { m.Magic = "nope" }, "magic"},
		{"bad version", func(m *Manifest) { m.Version = 99 }, "version"},
		{"drifted extent", func(m *Manifest) { m.Entries[1].PointHi[0]++ }, "geometry"},
		{"missing entry", func(m *Manifest) { m.Entries = m.Entries[:3] }, "entries"},
		{"empty key", func(m *Manifest) { m.Entries[0].Key = "" }, "no key"},
		{"duplicate key", func(m *Manifest) { m.Entries[1].Key = m.Entries[0].Key }, "duplicates"},
		{"bad shard", func(m *Manifest) { m.Entries[0].Shard = -2 }, "shard"},
		{"bad grid", func(m *Manifest) { m.Dims = [3]int{0, 0, 0} }, "grid"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := fresh(t)
			tc.mutate(m)
			err := m.Validate()
			if err == nil {
				t.Fatal("mutated manifest validated")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestDecodeManifestGarbage(t *testing.T) {
	if _, err := DecodeManifest([]byte("not json")); err == nil {
		t.Error("garbage decoded")
	}
	if _, err := DecodeManifest([]byte("{}")); err == nil {
		t.Error("empty document validated")
	}
}
