package contour_test

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
	"vizndp/internal/core"
	"vizndp/internal/grid"
	"vizndp/internal/rpc"
	"vizndp/internal/vtkio"
)

// wavyField is a smooth random field over g with values in about
// [0, 10], so that isovalues in that range cut coherent surfaces.
func wavyField(g *grid.Uniform, rng *rand.Rand) []float32 {
	fx, fy, fz := 0.2+rng.Float64(), 0.2+rng.Float64(), 0.2+rng.Float64()
	px, py := rng.Float64()*6, rng.Float64()*6
	vals := make([]float32, g.NumPoints())
	for idx := range vals {
		i, j, k := idx%g.Dims.X, idx/g.Dims.X%g.Dims.Y, idx/(g.Dims.X*g.Dims.Y)
		v := math.Sin(fx*float64(i)+px) + math.Sin(fy*float64(j)+py) + math.Sin(fz*float64(k)) + rng.Float64()*0.3
		vals[idx] = float32(5 + 1.6*v)
	}
	return vals
}

// shardedMerge stores the field bricked under a temporary directory,
// serves it from three NDP shards and returns the ShardedClient's
// gathered payload.
func shardedMerge(t *testing.T, g *grid.Uniform, vals []float32, spec grid.BrickSpec, isos []float64, enc core.Encoding) *core.Payload {
	t.Helper()
	ds := grid.NewDataset(g)
	ds.MustAddField(&grid.Field{Name: "d", Values: vals})
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "ts0"), 0o755); err != nil {
		t.Fatal(err)
	}
	bricks, err := spec.Bricks(g.Dims)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bricks {
		sub, err := grid.ExtractBrick(ds, b)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "ts0", vtkio.BrickKey(b.ID))
		if err := vtkio.WriteFile(path, sub, vtkio.WriteOptions{Codec: compress.None}); err != nil {
			t.Fatal(err)
		}
	}
	man, err := vtkio.BuildManifest(g, spec, ds.FieldNames(), 3)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, 3)
	for i := range addrs {
		srv := core.NewServer(os.DirFS(dir), core.WithShardName(fmt.Sprintf("shard%d", i)))
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		addrs[i] = ln.Addr().String()
	}
	sc, err := core.DialSharded(man, addrs, nil, rpc.ReconnectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	merged, _, err := sc.FetchArray("ts0/", "d", isos, enc)
	if err != nil {
		t.Fatal(err)
	}
	return merged
}

// TestContourPathsAgree is the kernel's property test. Over random grids
// — row lengths on both sides of the 64-cell word, non-cubic shapes, the
// two-point-layer minimum, uneven spacings — with smooth and NaN-laced
// data, one to five isovalues of which some cut nothing, and every
// payload encoding, every way of contouring the field must give the mesh
// the reference walk gives over the full array, vertex for vertex: the
// dense entry point on the full array, and the post-filter straight from
// the edge payload, from a ShardedClient's gathered payload (which must
// be the unsharded payload, byte for byte), and — on fields without NaN,
// the payload an older server sends — from the cell-corner payload.
func TestContourPathsAgree(t *testing.T) {
	shapes := [][3]int{
		{2, 2, 2}, {2, 9, 5}, {63, 4, 3}, {64, 5, 2}, {65, 3, 4},
		{130, 3, 2}, {130, 2, 3}, {9, 66, 2}, {12, 7, 11},
	}
	encodings := []core.Encoding{core.EncIndexValue, core.EncBlockBitmap, core.EncAuto}
	rng := rand.New(rand.NewSource(16))
	cases, triangles, postFiltered, sharded := 0, 0, 0, 0
	for round := 0; round < 3; round++ {
		for si, shape := range shapes {
			cases++
			g := grid.NewUniform(shape[0], shape[1], shape[2])
			g.Spacing = grid.Vec3{X: 0.5 + rng.Float64(), Y: 0.5 + rng.Float64(), Z: 0.5 + rng.Float64()}
			vals := wavyField(g, rng)
			if (round+si)%2 == 1 {
				vals = contour.NaNLaced(g, rng.Int63())
			}
			isos := make([]float64, 1+rng.Intn(5))
			for q := range isos {
				isos[q] = 1 + 8*rng.Float64()
				if rng.Intn(4) == 0 {
					isos[q] = 100 + float64(q) // no cell straddles it
				}
			}
			enc := encodings[(round+si)%len(encodings)]
			name := fmt.Sprintf("%v/%v/isos%d/round%d", g.Dims, enc, len(isos), round)

			want := contour.MarchReference(g, vals, isos)
			triangles += want.NumTriangles()
			check := func(what string, got *contour.Mesh, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %s: %v", name, what, err)
				}
				if !got.Equal(want) {
					t.Errorf("%s: %s: %d vertices, %d triangles; reference has %d, %d", name, what,
						got.NumVertices(), got.NumTriangles(), want.NumVertices(), want.NumTriangles())
				}
			}

			got, err := contour.MarchingTetrahedra(g, vals, isos)
			check("dense kernel on the full array", got, err)

			field := &grid.Field{Name: "d", Values: vals}
			sent, _, err := (&core.PreFilter{Isovalues: isos, Encoding: enc}).Run(g, field)
			if err != nil {
				t.Fatal(err)
			}
			payload, err := core.DecodePayload(sent.Data)
			if err != nil {
				t.Fatal(err)
			}
			got, err = (&core.PostFilter{Isovalues: isos}).Contour(g, "d", payload)
			check("post-filter from the payload", got, err)
			postFiltered++
			if (round+si)%2 == 0 {
				mask, err := (*contour.RowRanges)(nil).SelectContour(g, vals, isos, contour.RuleCells)
				if err != nil {
					t.Fatal(err)
				}
				cells, err := core.EncodeSelection(mask, vals, enc)
				if err != nil {
					t.Fatal(err)
				}
				got, err = (&core.PostFilter{Isovalues: isos}).Contour(g, "d", cells)
				check("post-filter from the cell-corner payload", got, err)
			}

			// One sharded merge per shape, on the axes that can be split.
			if round == 0 && g.Dims.NumCells() > 1 {
				spec := grid.BrickSpec{NX: min(2, g.Dims.X-1), NY: min(2, g.Dims.Y-1), NZ: min(2, g.Dims.Z-1), Ghost: si % 2}
				merged := shardedMerge(t, g, vals, spec, isos, enc)
				if !bytes.Equal(merged.Data, sent.Data) {
					t.Errorf("%s: gathered payload (%d points) differs from the unsharded one (%d points)",
						name, merged.Count, sent.Count)
				}
				got, err = (&core.PostFilter{Isovalues: isos}).Contour(g, "d", merged)
				check("post-filter from the sharded gather", got, err)
				sharded++
			}
		}
	}
	if triangles == 0 || sharded == 0 || postFiltered != cases {
		t.Fatalf("vacuous: %d reference triangles, %d sharded merges, %d of %d cases post-filtered",
			triangles, sharded, postFiltered, cases)
	}
}

// TestContourPlantedNaNStaysAbsent pins the decode rule the sparse walk
// depends on: NaN is a value, absence a bit. A NaN shipped where the
// selection had a number — as a corrupt payload or a changed array
// could — decodes as present, and the post-filter skips every cell it is
// a corner of, as the dense kernel does over the field holding it: no
// geometry passes through it.
func TestContourPlantedNaNStaysAbsent(t *testing.T) {
	g := grid.NewUniform(21, 14, 9)
	rng := rand.New(rand.NewSource(7))
	vals := wavyField(g, rng)
	isos := []float64{4, 6.5}
	mask, err := contour.SelectCellCorners(g, vals, isos)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := contour.MarchingTetrahedra(g, vals, isos)
	if err != nil {
		t.Fatal(err)
	}
	planted := 0
	mask.ForEach(func(i int) {
		if rng.Intn(9) == 0 {
			vals[i] = float32(math.NaN())
			planted++
		}
	})
	want := contour.MarchReference(g, vals, isos)
	if planted == 0 || want.NumTriangles() == 0 || want.NumTriangles() >= clean.NumTriangles() {
		t.Fatalf("vacuous: %d NaNs planted, %d of %d triangles left", planted,
			want.NumTriangles(), clean.NumTriangles())
	}
	dense, err := contour.MarchingTetrahedra(g, vals, isos)
	if err != nil {
		t.Fatal(err)
	}
	if !dense.Equal(want) {
		t.Errorf("dense kernel over the planted field differs from the reference")
	}
	for _, enc := range []core.Encoding{core.EncIndexValue, core.EncBlockBitmap} {
		sent, err := core.EncodeSelection(mask, vals, enc)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := core.DecodePayload(sent.Data)
		if err != nil {
			t.Fatal(err)
		}
		sparse, err := (&core.PostFilter{Isovalues: isos}).Contour(g, "d", payload)
		if err != nil {
			t.Fatal(err)
		}
		if !sparse.Equal(want) {
			t.Errorf("%v: post-filter marched a planted NaN: %d triangles, reference has %d", enc,
				sparse.NumTriangles(), want.NumTriangles())
		}
	}
}
