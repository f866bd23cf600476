package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"testing"

	"vizndp/internal/compress"
	"vizndp/internal/contour"
	"vizndp/internal/grid"
	"vizndp/internal/rpc"
	"vizndp/internal/vtkio"
)

// writeBricks bricks ds with spec, writes one .vnd object per brick plus
// the manifest under dir/<prefix>, and returns the manifest. shards is
// the manifest's placement fan-out (0 leaves entries unpinned).
func writeBricks(t *testing.T, dir, prefix string, ds *grid.Dataset, spec grid.BrickSpec, shards int) *vtkio.Manifest {
	t.Helper()
	if err := os.MkdirAll(filepath.Join(dir, filepath.FromSlash(prefix)), 0o755); err != nil {
		t.Fatal(err)
	}
	bricks, err := spec.Bricks(ds.Grid.Dims)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bricks {
		sub, err := grid.ExtractBrick(ds, b)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, filepath.FromSlash(prefix), vtkio.BrickKey(b.ID))
		if err := vtkio.WriteFile(path, sub, vtkio.WriteOptions{Codec: compress.None}); err != nil {
			t.Fatal(err)
		}
	}
	man, err := vtkio.BuildManifest(ds.Grid, spec, ds.FieldNames(), shards)
	if err != nil {
		t.Fatal(err)
	}
	data, err := vtkio.EncodeManifest(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, filepath.FromSlash(prefix), "manifest.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return man
}

// startShards launches n NDP servers over the same directory (every
// shard mounts the same store) and returns their addresses.
func startShards(t *testing.T, dir string, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		srv := NewServer(os.DirFS(dir), WithShardName(fmt.Sprintf("shard%d", i)))
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		addrs[i] = ln.Addr().String()
		t.Cleanup(func() { srv.Close() })
	}
	return addrs
}

// nanLacedField builds a deterministic random field with scattered NaN
// points, the adversarial input for the merge: no selection may gain or
// lose a point at a brick seam because of them.
func nanLacedField(g *grid.Uniform, seed int64) *grid.Field {
	rng := rand.New(rand.NewSource(seed))
	f := grid.NewField("d", g.NumPoints())
	for i := range f.Values {
		if rng.Intn(12) == 0 {
			f.Values[i] = float32(math.NaN())
		} else {
			f.Values[i] = rng.Float32() * 20
		}
	}
	return f
}

// TestShardedMergeBitIdentity is the sharded client's gate: for smooth
// and NaN-laced random fields under several brickings, the gathered
// payload must be byte-identical, in each encoding, to one unsharded
// pre-filtered fetch of the whole grid.
func TestShardedMergeBitIdentity(t *testing.T) {
	type tcase struct {
		name string
		g    *grid.Uniform
		f    *grid.Field
	}
	var cases []tcase
	{
		g, f := sphereField(20)
		cases = append(cases, tcase{"sphere3d", g, f})
	}
	{
		g := grid.NewUniform(13, 11, 9)
		f := nanLacedField(g, 11)
		cases = append(cases, tcase{"random3d", g, f})
	}
	specs := []grid.BrickSpec{
		{NX: 3, NY: 1, NZ: 1, Ghost: 1},
		{NX: 2, NY: 2, NZ: 1, Ghost: 1},
		{NX: 2, NY: 2, NZ: 1, Ghost: 2},
		{NX: 4, NY: 2, NZ: 1, Ghost: 0},
	}
	isos := []float64{5, 9.5}
	for _, tc := range cases {
		for _, spec := range specs {
			t.Run(fmt.Sprintf("%s/%dx%dx%d-g%d", tc.name, spec.NX, spec.NY, spec.NZ, spec.Ghost), func(t *testing.T) {
				ds := grid.NewDataset(tc.g)
				ds.MustAddField(tc.f)
				dir := t.TempDir()
				man := writeBricks(t, dir, "run/ts0", ds, spec, 3)
				addrs := startShards(t, dir, 3)

				sc, err := DialSharded(man, addrs, nil, rpc.ReconnectOptions{})
				if err != nil {
					t.Fatal(err)
				}
				defer sc.Close()

				for _, enc := range []Encoding{EncIndexValue, EncBlockBitmap, EncAuto} {
					got, st, err := sc.FetchArray("run/ts0/", "d", isos, enc)
					if err != nil {
						t.Fatalf("%v: %v", enc, err)
					}
					pre := &PreFilter{Isovalues: isos, Encoding: enc}
					p, _, err := pre.Run(tc.g, tc.f)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got.Data, p.Data) {
						t.Errorf("%v: gathered payload (%d points, %d bytes) differs from the unsharded one (%d points, %d bytes)",
							enc, got.Count, len(got.Data), p.Count, len(p.Data))
					}
					if st.Bricks != spec.Count() {
						t.Errorf("%v: stats report %d bricks, want %d", enc, st.Bricks, spec.Count())
					}
					if st.SelectedPoints != p.Count {
						t.Errorf("%v: merged %d unique points, unsharded selected %d", enc, st.SelectedPoints, p.Count)
					}
					// Even ghostless bricks share boundary point planes
					// (cells partition disjointly, point extents overlap by
					// one), so any multi-brick selection near a seam must
					// exercise the dedup.
					if p.Count > 0 && st.DupPoints == 0 {
						t.Errorf("%v: bricking produced no duplicate points; dedup untested", enc)
					}
				}
			})
		}
	}
}

// TestShardPlacementRule pins the one placement rule: an entry pinned to
// a shard in [0, n) goes there; an unpinned or out-of-range entry goes to
// shard ID mod n, which is what BuildManifest pins with, so a manifest
// built without a shard count places every brick where one built with n
// shards does.
func TestShardPlacementRule(t *testing.T) {
	for _, tc := range []struct {
		name      string
		id, shard int
		want      int
	}{
		{"pinned in range", 4, 2, 2},
		{"pinned to shard 0", 5, 0, 0},
		{"pinned out of range", 4, 7, 1},
		{"unpinned", 4, -1, 1},
		{"unpinned, ID below n", 2, -1, 2},
	} {
		if got := shardOf(vtkio.ManifestBrick{ID: tc.id, Shard: tc.shard}, 3); got != tc.want {
			t.Errorf("%s: brick %d (shard %d) placed on %d of 3, want %d", tc.name, tc.id, tc.shard, got, tc.want)
		}
	}
	g := grid.NewUniform(13, 11, 9)
	spec := grid.BrickSpec{NX: 2, NY: 2, NZ: 2, Ghost: 1}
	pinned, err := vtkio.BuildManifest(g, spec, []string{"d"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	unpinned, err := vtkio.BuildManifest(g, spec, []string{"d"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pinned.Entries {
		if p, u := shardOf(pinned.Entries[i], 3), shardOf(unpinned.Entries[i], 3); p != u {
			t.Errorf("brick %d: pinned manifest places it on %d, unpinned on %d", i, p, u)
		}
	}
}

// TestShardManifestRPC round-trips a manifest through the ndp.manifest
// RPC, and checks the server rejects garbage instead of shipping it.
func TestShardManifestRPC(t *testing.T) {
	g, f := sphereField(12)
	ds := grid.NewDataset(g)
	ds.MustAddField(f)
	dir := t.TempDir()
	man := writeBricks(t, dir, "run/ts0", ds, grid.BrickSpec{NX: 2, NY: 1, NZ: 1, Ghost: 1}, 2)
	if err := os.WriteFile(filepath.Join(dir, "bogus.json"), []byte("not a manifest"), 0o644); err != nil {
		t.Fatal(err)
	}

	addrs := startShards(t, dir, 1)
	c, err := Dial(addrs[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	got, err := c.FetchManifest("run/ts0/manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != len(man.Entries) || got.Spec() != man.Spec() {
		t.Errorf("manifest round-trip mismatch: %+v", got)
	}
	if !got.Grid().Equal(g) {
		t.Errorf("manifest grid round-trip mismatch")
	}
	if _, err := c.FetchManifest("bogus.json"); err == nil {
		t.Error("server shipped an invalid manifest")
	}
	if _, err := c.FetchManifest("run/ts0/missing.json"); err == nil {
		t.Error("missing manifest fetched")
	}
}

// TestShardMergeGhostDisagreement desynchronizes one brick object after
// the manifest was built; the merge must fail loudly instead of
// stitching mixed versions.
func TestShardMergeGhostDisagreement(t *testing.T) {
	g, f := sphereField(12)
	ds := grid.NewDataset(g)
	ds.MustAddField(f)
	dir := t.TempDir()
	spec := grid.BrickSpec{NX: 2, NY: 1, NZ: 1, Ghost: 1}
	man := writeBricks(t, dir, "run/ts0", ds, spec, 2)

	// Rewrite brick 1 from a perturbed field: its ghost overlap with
	// brick 0 now carries different values for the same global points.
	for i := range f.Values {
		f.Values[i] += 100
	}
	bricks, err := spec.Bricks(g.Dims)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := grid.ExtractBrick(ds, bricks[1])
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "run", "ts0", vtkio.BrickKey(1))
	if err := vtkio.WriteFile(path, sub, vtkio.WriteOptions{Codec: compress.None}); err != nil {
		t.Fatal(err)
	}

	addrs := startShards(t, dir, 2)
	sc, err := DialSharded(man, addrs, nil, rpc.ReconnectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	_, _, err = sc.FetchArray("run/ts0/", "d", []float64{5, 105}, EncIndexValue)
	if err == nil {
		t.Fatal("desynchronized brick objects merged silently")
	}
}

// TestShardedContourMatchesBaseline is vizpipe's -shards contour path:
// one scatter-gather per array yields the parent grid's payload, its
// stats and one merge, and the post-filter contours that payload to the
// full array's mesh.
func TestShardedContourMatchesBaseline(t *testing.T) {
	g, f := sphereField(16)
	ds := grid.NewDataset(g)
	ds.MustAddField(f)
	dir := t.TempDir()
	man := writeBricks(t, dir, "run/ts0", ds, grid.BrickSpec{NX: 2, NY: 2, NZ: 1, Ghost: 1}, 3)
	addrs := startShards(t, dir, 3)

	sc, err := DialSharded(man, addrs, nil, rpc.ReconnectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	isos := []float64{6}
	merges0 := mShardMerges.Value()
	p, st, err := sc.FetchArrayContext(t.Context(), "run/ts0/", "d", isos, EncAuto)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumPoints != g.NumPoints() {
		t.Fatalf("gathered payload has %d points, grid %d", p.NumPoints, g.NumPoints())
	}
	if st.Bricks != 4 {
		t.Errorf("stats report %d bricks, want 4: %+v", st.Bricks, st)
	}
	if mShardMerges.Value() != merges0+1 {
		t.Errorf("core.shard.merges rose by %d, want 1", mShardMerges.Value()-merges0)
	}
	got, err := (&PostFilter{Isovalues: isos}).Contour(sc.Grid(), "d", p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := contour.MarchingTetrahedra(g, f.Values, isos)
	if err != nil {
		t.Fatal(err)
	}
	if want.NumTriangles() == 0 || !got.Equal(want) {
		t.Errorf("sharded mesh (%d tris) != baseline mesh (%d tris)", got.NumTriangles(), want.NumTriangles())
	}
}
