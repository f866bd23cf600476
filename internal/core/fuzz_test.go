package core

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"vizndp/internal/bitset"
	"vizndp/internal/compress"
	"vizndp/internal/contour"
	"vizndp/internal/grid"
	"vizndp/internal/msgpack"
	"vizndp/internal/vtkio"
)

// fuzzSeeds returns representative payloads for the decode fuzz targets:
// real encodes of both wire formats (sparse and clustered selections)
// plus the two varint-overflow repros, which are also checked in under
// testdata/fuzz so the regression outlives this function.
func fuzzSeeds(f *testing.F) [][]byte {
	f.Helper()
	seeds := [][]byte{hostileIndexValueFuzz(), hostileBlockBitmapFuzz()}
	n := blockBits + 300
	values := make([]float32, n)
	for i := range values {
		values[i] = float32(i) * 0.125
	}
	sparse := bitset.New(n)
	for i := 0; i < n; i += 211 {
		sparse.Set(i)
	}
	clustered := bitset.New(n)
	for i := 64; i < 256; i++ {
		clustered.Set(i)
	}
	for _, mask := range []*bitset.Bitset{sparse, clustered} {
		for _, enc := range []Encoding{EncIndexValue, EncBlockBitmap} {
			p, err := EncodeSelection(mask, values, enc)
			if err != nil {
				f.Fatal(err)
			}
			seeds = append(seeds, p.Data)
		}
	}
	return seeds
}

// The hostile repros, duplicated from payload_decode_test.go's helpers
// because f.Helper-less fuzz seeds must not depend on *testing.T.
func hostileIndexValueFuzz() []byte {
	return []byte{payloadMagic, byte(EncIndexValue), 0x10, 0x02, 0x01,
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01,
		0, 0, 0, 0, 0, 0, 0, 0}
}

func hostileBlockBitmapFuzz() []byte {
	data := []byte{payloadMagic, byte(EncBlockBitmap), 0x10, 0x01,
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
	bitmap := make([]byte, 512)
	bitmap[0] = 0x01
	data = append(data, bitmap...)
	return append(data, make([]byte, 4)...)
}

// FuzzDecodePayload checks the header parser never panics and that every
// accepted header satisfies its own invariants.
func FuzzDecodePayload(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePayload(data)
		if err != nil {
			if !errors.Is(err, ErrBadPayload) {
				t.Fatalf("non-payload error: %v", err)
			}
			return
		}
		if p.Count < 0 || p.NumPoints < 0 || p.Count > p.NumPoints {
			t.Fatalf("accepted header with count %d of %d points", p.Count, p.NumPoints)
		}
		if p.Encoding != EncIndexValue && p.Encoding != EncBlockBitmap {
			t.Fatalf("accepted unknown encoding %d", p.Encoding)
		}
	})
}

// FuzzReconstructInto drives hostile bytes through the full decode path:
// whatever DecodePayload accepts, Reconstruct must either reject with
// ErrBadPayload or produce a full-length array — never panic, the
// original decodeIndexValue failure mode.
func FuzzReconstructInto(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePayload(data)
		if err != nil {
			return
		}
		// The header guards bound count against the body, but NumPoints is
		// only bounded by MaxInt32; skip absurd reconstruction sizes so the
		// fuzzer probes decode logic, not the allocator.
		if p.NumPoints > 1<<20 {
			return
		}
		vals, err := p.Reconstruct()
		if err != nil {
			if !errors.Is(err, ErrBadPayload) {
				t.Fatalf("non-payload error: %v", err)
			}
			return
		}
		if len(vals) != p.NumPoints {
			t.Fatalf("reconstructed %d values for %d points", len(vals), p.NumPoints)
		}
		nonNaN := 0
		for _, v := range vals {
			if !math.IsNaN(float64(v)) {
				nonNaN++
			}
		}
		if nonNaN > p.Count {
			t.Fatalf("%d non-NaN values exceed declared count %d", nonNaN, p.Count)
		}
	})
}

// fuzzGrid is the grid FuzzPostFilterContour contours an n-point payload
// on: two point layers of two rows, the smallest 3D shape, so any small
// multiple of four fits. It returns nil for other point counts.
func fuzzGrid(n int) *grid.Uniform {
	if n < 8 || n%4 != 0 || n > 1<<16 {
		return nil
	}
	return grid.NewUniform(n/4, 2, 2)
}

// fuzzPalette is what FuzzPostFilterContour builds fields from: small
// integers, so values tie with each other and with the isovalue 3, and
// NaN.
var fuzzPalette = [8]float32{float32(math.NaN()), 0, 1, 2, 3, 4, 5, 250}

// FuzzPostFilterContour drives hostile bytes through the sparse
// post-filters. Whatever DecodePayload accepts, PostFilter.Contour and
// ThresholdFromPayload must each fail exactly when Reconstruct fails,
// never panic, and never size anything from a header the body cannot
// back (DecodePayload bounds Count by the body; the grid the caller
// passes bounds the rest). The mesh must be a function of the payload's
// points alone — the same whatever the unselected slots of the decode
// array hold — and the cell set the one the dense threshold keeps over
// the reconstruction. The same bytes also make a NaN-laced field, whose
// edge payload — and, without NaN, its cell-corner payload — must
// contour to the dense kernel's mesh of the whole field.
func FuzzPostFilterContour(f *testing.F) {
	seeds := fuzzSeeds(f)
	// Real cell-corner payloads on the fuzz grid, clean and with a NaN
	// planted among the shipped values.
	g := fuzzGrid(blockBits + 300)
	values := make([]float32, g.NumPoints())
	for i := range values {
		values[i] = float32(i%g.Dims.X) + 40*float32(i/g.Dims.X%2)
	}
	isos := []float64{3, 200.5}
	mask, err := (*contour.RowRanges)(nil).SelectContour(g, values, isos, contour.RuleCells)
	if err != nil {
		f.Fatal(err)
	}
	// Range payloads of the field laced with NaNs: the range selection
	// ships the NaN corners of kept cells.
	const lo, hi = 20, 60
	laced := append([]float32(nil), values...)
	for i := 0; i < len(laced); i += 7 {
		laced[i] = float32(math.NaN())
	}
	rmask, err := contour.SelectRangeCorners(g, laced, lo, hi)
	if err != nil {
		f.Fatal(err)
	}
	// Edge payloads of the laced field: they ship the NaN corners of the
	// cells the post-filter must skip.
	emask, err := contour.SelectCellCorners(g, laced, isos)
	if err != nil {
		f.Fatal(err)
	}
	for _, enc := range []Encoding{EncIndexValue, EncBlockBitmap} {
		for _, plant := range []bool{false, true} {
			shipped := append([]float32(nil), values...)
			if plant {
				shipped[201] = float32(math.NaN())
			}
			p, err := EncodeSelection(mask, shipped, enc)
			if err != nil {
				f.Fatal(err)
			}
			seeds = append(seeds, p.Data)
		}
		p, err := EncodeSelection(rmask, laced, enc)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, p.Data)
	}
	for _, enc := range []Encoding{EncIndexValue, EncBlockBitmap} {
		p, err := EncodeSelection(emask, laced, enc)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, p.Data)
	}
	for _, s := range seeds {
		f.Add(s)
	}
	post := &PostFilter{Isovalues: isos}
	f.Fuzz(func(t *testing.T, data []byte) {
		prefilteredContoursAsDense(t, data, post)
		p, err := DecodePayload(data)
		if err != nil {
			return
		}
		g := fuzzGrid(p.NumPoints)
		if g == nil {
			// No grid of that size: the point-count check must refuse
			// it before anything is sized from the header.
			g8 := grid.NewUniform(2, 2, 2)
			if _, err := post.Contour(g8, "d", p); err == nil {
				t.Fatalf("payload of %d points contoured on an 8-point grid", p.NumPoints)
			}
			if _, err := ThresholdFromPayload(g8, p, lo, hi); err == nil {
				t.Fatalf("payload of %d points thresholded on an 8-point grid", p.NumPoints)
			}
			return
		}
		sparse, serr := post.Contour(g, "d", p)
		cells, terr := ThresholdFromPayload(g, p, lo, hi)
		padded, rerr := p.Reconstruct()
		if (serr == nil) != (rerr == nil) || (terr == nil) != (rerr == nil) {
			t.Fatalf("Contour error %v, Threshold error %v, Reconstruct error %v", serr, terr, rerr)
		}
		if rerr != nil {
			if !errors.Is(serr, ErrBadPayload) || !errors.Is(terr, ErrBadPayload) {
				t.Fatalf("non-payload error: %v, %v", serr, terr)
			}
			return
		}
		for _, fill := range []float32{float32(math.NaN()), 0, 3} {
			scratch := make([]float32, p.NumPoints)
			for i := range scratch {
				scratch[i] = fill
			}
			present := bitset.New(p.NumPoints)
			if err := p.decodeInto(scratch, present.Words()); err != nil {
				t.Fatal(err)
			}
			again, err := contour.MarchingCubesSparse(g, scratch, present, isos)
			if err != nil {
				t.Fatal(err)
			}
			if !sparse.Equal(again) {
				t.Fatalf("unselected slots holding %v change the mesh: %d vertices, %d triangles; post-filter has %d, %d",
					fill, again.NumVertices(), again.NumTriangles(), sparse.NumVertices(), sparse.NumTriangles())
			}
		}
		want, err := contour.ThresholdCells(g, padded, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if !cells.Equal(want) {
			t.Fatalf("sparse threshold kept %d cells; dense kept %d", cells.Count(), want.Count())
		}
	})
}

// prefilteredContoursAsDense builds a NaN-laced 11x5x4 field from data,
// pre-filters it, and holds the post-filter's mesh of the payload to the
// dense kernel's mesh of the whole field: for the edge payload always,
// for the cell-corner payload when the field holds no NaN.
func prefilteredContoursAsDense(t *testing.T, data []byte, post *PostFilter) {
	t.Helper()
	if len(data) == 0 {
		return
	}
	g := grid.NewUniform(11, 5, 4)
	field := &grid.Field{Name: "d", Values: make([]float32, g.NumPoints())}
	nan := false
	for i := range field.Values {
		v := fuzzPalette[data[i%len(data)]%8]
		field.Values[i] = v
		nan = nan || math.IsNaN(float64(v))
	}
	want, err := contour.MarchingTetrahedra(g, field.Values, post.Isovalues)
	if err != nil {
		t.Fatal(err)
	}
	rules := []contour.Rule{contour.RuleEdges}
	if !nan {
		rules = append(rules, contour.RuleCells)
	}
	for _, rule := range rules {
		sent, _, err := (&PreFilter{Isovalues: post.Isovalues, rule: rule}).Run(g, field)
		if err != nil {
			t.Fatal(err)
		}
		got, err := post.Contour(g, "d", sent)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("rule %d: post-filter mesh has %d vertices, %d triangles; dense has %d, %d",
				rule, got.NumVertices(), got.NumTriangles(), want.NumVertices(), want.NumTriangles())
		}
	}
}

// FuzzDecodeReply drives arbitrary msgpack through the client's one
// reply decoder under every data key: it must never panic, never report
// a negative cost, and hand back exactly the bytes the reply carried.
// Seeded with the real replies of all four fetch kinds.
func FuzzDecodeReply(f *testing.F) {
	g, field := sphereField(8)
	ds := grid.NewDataset(g)
	ds.MustAddField(field)
	dir := f.TempDir()
	if err := vtkio.WriteFile(filepath.Join(dir, "ts0.vnd"), ds, vtkio.WriteOptions{Codec: compress.None}); err != nil {
		f.Fatal(err)
	}
	srv := NewServer(os.DirFS(dir))
	defer srv.Close()
	for _, fetch := range []struct {
		sel   *selector
		extra []any
	}{
		{contourSelector, []any{[]any{3.0}, "auto"}},
		{rangeSelector, []any{2.0, 3.0, "auto"}},
		{sliceSelector, []any{"z", int64(4)}},
		{rawSelector, nil},
	} {
		reply, err := srv.serveFetch(context.Background(), append([]any{"ts0.vnd", field.Name}, fetch.extra...), fetch.sel)
		if err != nil {
			f.Fatalf("%s: %v", fetch.sel.method, err)
		}
		seed, err := msgpack.Marshal(reply)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, wire []byte) {
		res, err := msgpack.Unmarshal(wire)
		if err != nil {
			return
		}
		for _, key := range replyDataKeys {
			data, m, st, err := decodeReply(res, key, time.Millisecond)
			if err != nil {
				continue
			}
			if want, _ := m[key].([]byte); string(data) != string(want) {
				t.Fatalf("%s: decoder handed back %d bytes, reply carried %d", key, len(data), len(want))
			}
			if st.ReadTime < 0 || st.FilterTime < 0 || st.TransferTime < 0 || st.TotalTime < 0 {
				t.Fatalf("%s: negative duration in %+v", key, *st)
			}
			if st.RawBytes < 0 || st.SelectedPoints < 0 || st.PayloadBytes != int64(len(data)) {
				t.Fatalf("%s: bad sizes in %+v for %d data bytes", key, *st, len(data))
			}
		}
	})
}
