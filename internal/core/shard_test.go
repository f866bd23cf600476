package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"vizndp/internal/compress"
	"vizndp/internal/contour"
	"vizndp/internal/grid"
	"vizndp/internal/rpc"
	"vizndp/internal/vtkio"
)

// writeBricks bricks ds with spec, writes one .vnd object per brick plus
// the manifest under dir/<prefix>, and returns the manifest.
func writeBricks(t testing.TB, dir, prefix string, ds *grid.Dataset, spec grid.BrickSpec) *vtkio.Manifest {
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
	man, err := vtkio.BuildManifest(ds.Grid, spec, ds.FieldNames())
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
func startShards(t testing.TB, dir string, n int) []string {
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
				man := writeBricks(t, dir, "run/ts0", ds, spec)
				addrs := startShards(t, dir, 3)

				client := DialFaultTolerant(addrs, nil, rpc.ReconnectOptions{})
				defer client.Close()

				for _, enc := range []Encoding{EncIndexValue, EncBlockBitmap, EncAuto} {
					got, st, err := client.FetchBricksContext(t.Context(), man, "run/ts0/", "d", isos, enc)
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

// TestShardedDegradedBrickBitIdentical serves the bricks homed on one
// replica through the degraded fallback alone: the transport refuses
// every ndp.fetch of their paths, so each is read raw and pre-filtered on
// the client. The gather must still be the unsharded payload byte for
// byte, and ShardStats.Degraded and core.shard.degraded must each count
// exactly that replica's bricks.
func TestShardedDegradedBrickBitIdentical(t *testing.T) {
	g, f := sphereField(20)
	ds := grid.NewDataset(g)
	ds.MustAddField(f)
	dir := t.TempDir()
	man := writeBricks(t, dir, "run/ts0", ds, grid.BrickSpec{NX: 4, NY: 2, NZ: 1, Ghost: 1})
	addrs := startShards(t, dir, 3)
	client := DialFaultTolerant(addrs, nil, rpc.ReconnectOptions{})
	defer client.Close()
	const broken = 1
	paths := map[string]bool{}
	for _, e := range man.Entries {
		if e.ID%len(addrs) == broken {
			paths["run/ts0/"+e.Key] = true
		}
	}
	if len(paths) < 2 {
		t.Fatalf("%d bricks homed on the broken replica, want several", len(paths))
	}
	client.rpc = &flakyCaller{
		inner: client.rpc,
		fail:  map[string]error{MethodFetch: errors.New("injected fetch failure")},
		paths: paths,
	}

	isos := []float64{5, 9.5}
	degraded0 := mShardDegraded.Value()
	got, st, err := client.FetchBricksContext(t.Context(), man, "run/ts0/", "d", isos, EncAuto)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := (&PreFilter{Isovalues: isos, Encoding: EncAuto}).Run(g, f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, p.Data) {
		t.Errorf("gather with degraded bricks (%d points) differs from the unsharded payload (%d points)", got.Count, p.Count)
	}
	if st.Degraded != len(paths) {
		t.Errorf("ShardStats.Degraded = %d, want the broken replica's %d bricks", st.Degraded, len(paths))
	}
	if d := mShardDegraded.Value() - degraded0; d != int64(len(paths)) {
		t.Errorf("core.shard.degraded rose by %d, want %d", d, len(paths))
	}
}

// TestShardedGatherHomesEachBrick pins placement: every fetch of a brick
// goes to its home replica, brick ID mod n, first, so three caching
// replicas over one store each hold exactly the bricks homed on them,
// however often and at however many isovalue sets the bricks are
// gathered.
func TestShardedGatherHomesEachBrick(t *testing.T) {
	g, f := sphereField(20)
	ds := grid.NewDataset(g)
	ds.MustAddField(f)
	for _, spec := range []grid.BrickSpec{
		{NX: 3, NY: 1, NZ: 1, Ghost: 1},
		{NX: 2, NY: 2, NZ: 1, Ghost: 1},
	} {
		t.Run(fmt.Sprintf("%dx%dx%d", spec.NX, spec.NY, spec.NZ), func(t *testing.T) {
			dir := t.TempDir()
			man := writeBricks(t, dir, "run/ts0", ds, spec)
			srvs := make([]*Server, 3)
			addrs := make([]string, len(srvs))
			for i := range srvs {
				srvs[i], addrs[i] = startServer(t, dir, WithCacheBytes(16<<20))
			}
			client := DialFaultTolerant(addrs, nil, rpc.ReconnectOptions{})
			defer client.Close()
			for range 3 {
				for _, isos := range [][]float64{{5}, {9.5}, {3, 12}} {
					if _, _, err := client.FetchBricksContext(t.Context(), man, "run/ts0/", "d", isos, EncAuto); err != nil {
						t.Fatal(err)
					}
				}
			}
			for i, srv := range srvs {
				var want, got []string
				for _, e := range man.Entries {
					if e.ID%len(srvs) == i {
						want = append(want, "run/ts0/"+e.Key)
					}
				}
				srv.Cache().Invalidate(func(k arrayKey) bool {
					got = append(got, k.path)
					return false
				})
				slices.Sort(got)
				if n := srv.Cache().Len(); n != len(want) || !slices.Equal(got, want) {
					t.Errorf("replica %d caches %d arrays %v, want its home bricks %v", i, n, got, want)
				}
			}
		})
	}
}

// TestShardedGatherOverOldManifest: a manifest as writers before the
// per-entry "shard" key went wrote it — here pins that disagree with
// the home rule, and one unpinned (-1) entry — decodes, validates and
// gathers the unsharded payload byte for byte.
func TestShardedGatherOverOldManifest(t *testing.T) {
	g, f := sphereField(16)
	ds := grid.NewDataset(g)
	ds.MustAddField(f)
	dir := t.TempDir()
	man := writeBricks(t, dir, "run/ts0", ds, grid.BrickSpec{NX: 2, NY: 2, NZ: 1, Ghost: 1})
	data, err := vtkio.EncodeManifest(man)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	entries := doc["entries"].([]any)
	for i, e := range entries {
		e.(map[string]any)["shard"] = (i + 1) % 3
	}
	entries[len(entries)-1].(map[string]any)["shard"] = -1
	if data, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	old, err := vtkio.DecodeManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	client := DialFaultTolerant(startShards(t, dir, 3), nil, rpc.ReconnectOptions{})
	defer client.Close()
	isos := []float64{6}
	got, _, err := client.FetchBricksContext(t.Context(), old, "run/ts0/", "d", isos, EncAuto)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := (&PreFilter{Isovalues: isos, Encoding: EncAuto}).Run(g, f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, p.Data) {
		t.Errorf("gather over the old manifest (%d points) differs from the unsharded payload (%d points)", got.Count, p.Count)
	}
}

// TestShardManifestRPC round-trips a manifest through the ndp.manifest
// RPC, and checks the server rejects garbage instead of shipping it.
func TestShardManifestRPC(t *testing.T) {
	g, f := sphereField(12)
	ds := grid.NewDataset(g)
	ds.MustAddField(f)
	dir := t.TempDir()
	man := writeBricks(t, dir, "run/ts0", ds, grid.BrickSpec{NX: 2, NY: 1, NZ: 1, Ghost: 1})
	if err := os.WriteFile(filepath.Join(dir, "bogus.json"), []byte("not a manifest"), 0o644); err != nil {
		t.Fatal(err)
	}

	addrs := startShards(t, dir, 1)
	c, err := Dial(addrs[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	got, err := c.FetchManifestContext(context.Background(), "run/ts0/manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != len(man.Entries) || got.Spec() != man.Spec() {
		t.Errorf("manifest round-trip mismatch: %+v", got)
	}
	if !got.Grid().Equal(g) {
		t.Errorf("manifest grid round-trip mismatch")
	}
	if _, err := c.FetchManifestContext(context.Background(), "bogus.json"); err == nil {
		t.Error("server shipped an invalid manifest")
	}
	if _, err := c.FetchManifestContext(context.Background(), "run/ts0/missing.json"); err == nil {
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
	man := writeBricks(t, dir, "run/ts0", ds, spec)

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
	client := DialFaultTolerant(addrs, nil, rpc.ReconnectOptions{})
	defer client.Close()
	_, _, err = client.FetchBricksContext(t.Context(), man, "run/ts0/", "d", []float64{5, 105}, EncIndexValue)
	if err == nil {
		t.Fatal("desynchronized brick objects merged silently")
	}
}

// TestShardedContourMatchesBaseline is vizpipe's -manifest contour path:
// one scatter-gather per array yields the parent grid's payload, its
// stats and one merge, and the post-filter contours that payload to the
// full array's mesh.
func TestShardedContourMatchesBaseline(t *testing.T) {
	g, f := sphereField(16)
	ds := grid.NewDataset(g)
	ds.MustAddField(f)
	dir := t.TempDir()
	man := writeBricks(t, dir, "run/ts0", ds, grid.BrickSpec{NX: 2, NY: 2, NZ: 1, Ghost: 1})
	addrs := startShards(t, dir, 3)

	client := DialFaultTolerant(addrs, nil, rpc.ReconnectOptions{})
	defer client.Close()

	isos := []float64{6}
	merges0 := mShardMerges.Value()
	p, st, err := client.FetchBricksContext(t.Context(), man, "run/ts0/", "d", isos, EncAuto)
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
	got, err := (&PostFilter{Isovalues: isos}).Contour(man.Grid(), "d", p)
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

// BenchmarkShardedGather128 profiles the sharded gather against the
// unsharded fetch it must equal: bench128's v02 at isovalue 0.5, as 3x1x1
// bricks with a ghost layer over three uncached in-process servers, and as
// one object through one, every link unshaped. What the gather costs on
// top — the scatter, the full-grid values and presence, the re-encode of
// the union — is the gap between the two.
func BenchmarkShardedGather128(b *testing.B) {
	ds := bench128(b)
	v02 := grid.NewDataset(ds.Grid)
	v02.MustAddField(ds.Field("v02"))
	dir := b.TempDir()
	man := writeBricks(b, dir, "run/ts0", v02, grid.BrickSpec{NX: 3, NY: 1, NZ: 1, Ghost: 1})
	if err := vtkio.WriteFile(filepath.Join(dir, "whole.vnd"), v02, vtkio.WriteOptions{Codec: compress.None}); err != nil {
		b.Fatal(err)
	}
	addrs := startShards(b, dir, 3)
	isos := []float64{0.5}

	b.Run("sharded", func(b *testing.B) {
		client := DialFaultTolerant(addrs, nil, rpc.ReconnectOptions{})
		defer client.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := client.FetchBricksContext(b.Context(), man, "run/ts0/", "v02", isos, EncAuto); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unsharded", func(b *testing.B) {
		c, err := Dial(addrs[0], nil)
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := c.FetchFilteredContext(context.Background(), "whole.vnd", "v02", isos, EncAuto); err != nil {
				b.Fatal(err)
			}
		}
	})
}
