package vtkio

import (
	"errors"
	"reflect"
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
	m, err := BuildManifest(g, spec, []string{"v02", "v03"})
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

// oldShardManifest is a manifest as writers before the per-entry
// "shard" key went wrote it: pinned bricks (0, 1) and an unpinned one
// (-1), the first also with the whole-object "crc" key that entries
// no longer carry.
const oldShardManifest = `{"magic":"vnd-bricks","version":1,"dims":[7,4,3],"origin":[0,1,2],"spacing":[1,0.5,0.25],"bricks":[3,1,1],"ghost":1,"arrays":["d"],"entries":[` +
	`{"id":0,"index":[0,0,0],"cellLo":[0,0,0],"cellHi":[2,3,2],"pointLo":[0,0,0],"pointHi":[4,4,3],"key":"brick0000.vnd","shard":0,"crc":305419896},` +
	`{"id":1,"index":[1,0,0],"cellLo":[2,0,0],"cellHi":[4,3,2],"pointLo":[1,0,0],"pointHi":[6,4,3],"key":"brick0001.vnd","shard":1},` +
	`{"id":2,"index":[2,0,0],"cellLo":[4,0,0],"cellHi":[6,3,2],"pointLo":[3,0,0],"pointHi":[7,4,3],"key":"brick0002.vnd","shard":-1}]}`

// TestManifestDecodesShardKeys: an old manifest's "shard" and "crc"
// keys are ignored, so it decodes, validates and equals the manifest built today
// for the same grid and bricking.
func TestManifestDecodesShardKeys(t *testing.T) {
	got, err := DecodeManifest([]byte(oldShardManifest))
	if err != nil {
		t.Fatal(err)
	}
	g := &grid.Uniform{
		Dims:    grid.Dims{X: 7, Y: 4, Z: 3},
		Origin:  grid.Vec3{X: 0, Y: 1, Z: 2},
		Spacing: grid.Vec3{X: 1, Y: 0.5, Z: 0.25},
	}
	want, err := BuildManifest(g, grid.BrickSpec{NX: 3, NY: 1, NZ: 1, Ghost: 1}, []string{"d"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("old manifest decoded to %+v, want %+v", got, want)
	}
}

func TestManifestValidateRejects(t *testing.T) {
	fresh := func(t *testing.T) *Manifest {
		t.Helper()
		m, err := BuildManifest(manifestGrid(), grid.BrickSpec{NX: 2, NY: 2, NZ: 1, Ghost: 1}, nil)
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

// TestStoreLayoutPinned pins the names of the store layout: the stored
// datasets, the scrubber and every gather agree on them.
func TestStoreLayoutPinned(t *testing.T) {
	root := Root("bricks", "raw")
	for _, c := range []struct{ got, want string }{
		{ObjectKey("asteroid", "lz4", 42), "asteroid/lz4/ts00042.vnd"},
		{ObjectKey("nyx", "qlz4-0.01", 0), "nyx/qlz4-0.01/ts00000.vnd"},
		{StepDir(root, 42) + BrickKey(3), "bricks/raw/ts00042/brick0003.vnd"},
		{root + ManifestName, "bricks/raw/manifest.json"},
	} {
		if c.got != c.want {
			t.Errorf("got %q, want %q", c.got, c.want)
		}
	}
}

// TestWriteBricksPutsEveryBrick checks the brick writer hands put each
// brick the manifest lists, in order, under the step's directory and
// the entry's key, cut exactly as grid.ExtractBrick cuts it; and that a
// failing put stops it.
func TestWriteBricksPutsEveryBrick(t *testing.T) {
	g := manifestGrid()
	ds := grid.NewDataset(g)
	vals := make([]float32, g.NumPoints())
	for i := range vals {
		vals[i] = float32(i)
	}
	ds.MustAddField(&grid.Field{Name: "v02", Values: vals})
	m, err := BuildManifest(g, grid.BrickSpec{NX: 3, NY: 2, NZ: 1, Ghost: 1}, ds.FieldNames())
	if err != nil {
		t.Fatal(err)
	}
	bricks, err := m.GridBricks()
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	err = WriteBricks(m, ds, "root/", 5, func(key string, brick *grid.Dataset) error {
		i := len(keys)
		keys = append(keys, key)
		if want := "root/ts00005/" + m.Entries[i].Key; key != want {
			t.Errorf("brick %d key %q, want %q", i, key, want)
		}
		want, err := grid.ExtractBrick(ds, bricks[i])
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(brick, want) {
			t.Errorf("brick %d is not ExtractBrick's cut", i)
		}
		return nil
	})
	if err != nil || len(keys) != len(m.Entries) {
		t.Fatalf("WriteBricks put %d of %d bricks: %v", len(keys), len(m.Entries), err)
	}

	stop := errors.New("store full")
	calls := 0
	err = WriteBricks(m, ds, "root/", 5, func(string, *grid.Dataset) error {
		calls++
		return stop
	})
	if !errors.Is(err, stop) || calls != 1 {
		t.Errorf("a failing put: %d calls, error %v; want 1 call and its error", calls, err)
	}
}
