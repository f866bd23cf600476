package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"vizndp/internal/compress"
	"vizndp/internal/contour"
	"vizndp/internal/grid"
	"vizndp/internal/rpc"
	"vizndp/internal/telemetry"
	"vizndp/internal/vtkio"
)

// writeChunked writes ds as ts0.vnd under dir, checksummed (so with its
// chunk range table), in chunks of chunkVals values and pages of
// pageSize bytes, and returns the file's path.
func writeChunked(t *testing.T, dir string, ds *grid.Dataset, kind compress.Kind, chunkVals, pageSize int) string {
	t.Helper()
	path := filepath.Join(dir, "ts0.vnd")
	opts := vtkio.WriteOptions{Codec: kind, ChunkSize: 4 * chunkVals, Checksum: true, ChecksumPageSize: pageSize}
	if err := vtkio.WriteFile(path, ds, opts); err != nil {
		t.Fatal(err)
	}
	return path
}

// fetchPlanned serves one request of sel on srv as the pipeline does and
// returns its payload bytes with how many of the array's chunks the
// request read and how many it has, from its wide event.
func fetchPlanned(t *testing.T, srv *Server, sel *selector, args ...any) (data []byte, read, chunks int, err error) {
	t.Helper()
	return fetchPlannedAt(t, srv, sel, "ts0.vnd", "d", args...)
}

// fetchPlannedAt is fetchPlanned of array in the file at path.
func fetchPlannedAt(t *testing.T, srv *Server, sel *selector, path, array string, args ...any) (data []byte, read, chunks int, err error) {
	t.Helper()
	const method = "test.planned"
	flight := telemetry.DefaultFlightRecorder()
	seq0 := flight.Seq()
	ev := flight.Begin(telemetry.KindServer, method)
	res, err := srv.serveFetch(telemetry.ContextWithEvent(context.Background(), ev), append([]any{path, array}, args...), sel)
	ev.Finish(err)
	if err != nil {
		return nil, 0, 0, err
	}
	evs := flight.Events(telemetry.EventFilter{Method: method, SinceSeq: seq0})
	if len(evs) != 1 {
		t.Fatalf("%d events for one request", len(evs))
	}
	read, _ = evs[0].Attrs["chunksRead"].(int)
	chunks, _ = evs[0].Attrs["chunks"].(int)
	return res.(map[string]any)[sel.dataKey].([]byte), read, chunks, nil
}

// isoArgs are ndp.fetch's arguments after path and array: the isovalues,
// the encoding, and the edge rule unless cells is set.
func isoArgs(isos []float64, cells bool) []any {
	raw := make([]any, len(isos))
	for i, v := range isos {
		raw[i] = v
	}
	if cells {
		return []any{raw, EncAuto.String()}
	}
	return []any{raw, EncAuto.String(), edgesKey}
}

// TestUncachedPlannedReadBitIdentity: an uncached server, which reads
// only the chunks its plan wants, serves exactly PreFilter.Run's and
// RangePreFilter.Run's bytes over hostileSlabs — NaN-laced, constant,
// all-NaN and ±Inf slabs — stored raw and LZ4 in 97-value chunks, whose
// boundaries fall mid-row and mid-layer: for both selection rules, one
// and two isovalues, and ranges, at slab bounds and at every chunk's
// recorded min and max. Some requests must read fewer chunks than the
// array has, or the plan was never exercised.
func TestUncachedPlannedReadBitIdentity(t *testing.T) {
	ds, bounds := hostileSlabs()
	field := ds.Field("d")
	for _, kind := range []compress.Kind{compress.None, compress.LZ4} {
		dir := t.TempDir()
		path := writeChunked(t, dir, ds, kind, 97, 256)
		r, closer, err := vtkio.OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		chunks, err := r.ChunkRanges("d", nil)
		closer.Close()
		if err != nil || len(chunks) < 30 {
			t.Fatalf("%v: %d chunk ranges, %v", kind, len(chunks), err)
		}
		values := append([]float64(nil), bounds...)
		for _, c := range chunks {
			for _, v := range []float32{c.Lo, c.Hi} {
				if f := float64(v); !math.IsInf(f, 0) {
					values = append(values, f)
				}
			}
		}
		srv := NewServer(os.DirFS(dir))
		skipped := 0
		check := func(what string, want *Payload, args []any, sel *selector) {
			t.Helper()
			got, read, total, err := fetchPlanned(t, srv, sel, args...)
			if err != nil {
				t.Fatalf("%v %s: %v", kind, what, err)
			}
			if !bytes.Equal(got, want.Data) {
				t.Fatalf("%v %s: served %d bytes, reference %d (%d points)", kind, what, len(got), len(want.Data), want.Count)
			}
			if total != len(chunks) || read > total {
				t.Fatalf("%v %s: read %d of %d chunks, array has %d", kind, what, read, total, len(chunks))
			}
			if read < total {
				skipped++
			}
		}
		for i, iso := range values {
			for _, isos := range [][]float64{{iso}, {iso, values[(i*7+3)%len(values)]}} {
				for _, rule := range []contour.Rule{contour.RuleEdges, contour.RuleCells} {
					want, _, err := (&PreFilter{Isovalues: isos, Encoding: EncAuto, rule: rule}).Run(ds.Grid, field)
					if err != nil {
						t.Fatal(err)
					}
					check("contour", want, isoArgs(isos, rule == contour.RuleCells), contourSelector)
				}
			}
			for _, hi := range []float64{iso, values[(i*5+1)%len(values)], math.Inf(1)} {
				lo := iso
				if lo > hi {
					lo, hi = hi, lo
				}
				want, _, err := (&RangePreFilter{Lo: lo, Hi: hi, Encoding: EncAuto}).Run(ds.Grid, field)
				if err != nil {
					t.Fatal(err)
				}
				check("range", want, []any{lo, hi, EncAuto.String()}, rangeSelector)
			}
		}
		if skipped == 0 {
			t.Errorf("%v: every request read every chunk", kind)
		}
	}
}

// twoRamps is a 64×32×512 grid — 4 MiB an array, so 4 chunks at 1 MiB
// and 16 at the default — with two arrays that disagree everywhere: "up"
// climbs from 0 to 1 along z with NaN speckle, "down" falls from 1 to 0
// with ±Inf speckle in its top eighth. A load of one leaves the other's
// values in a recycled destination.
func twoRamps() *grid.Dataset {
	g := grid.NewUniform(64, 32, 512)
	up, down := grid.NewField("up", g.NumPoints()), grid.NewField("down", g.NumPoints())
	rng := rand.New(rand.NewSource(40))
	layer := g.Dims.X * g.Dims.Y
	for i := range up.Values {
		k := i / layer
		z := float32(k) / float32(g.Dims.Z-1)
		up.Values[i], down.Values[i] = z+rng.Float32()/1024, 1-z-rng.Float32()/1024
		switch rng.Intn(64) {
		case 0:
			up.Values[i] = float32(math.NaN())
		case 1:
			if k >= 7*g.Dims.Z/8 {
				down.Values[i] = float32(math.Inf(1 - 2*rng.Intn(2)))
			}
		}
	}
	ds := grid.NewDataset(g)
	ds.MustAddField(up)
	ds.MustAddField(down)
	return ds
}

// plannedCase is one request of the reuse tests and its reference bytes.
type plannedCase struct {
	path, array string
	sel         *selector
	args        []any
	want        []byte
}

// plannedCases writes twoRamps raw and LZ4, at 1 MiB chunks and at the
// default, under dir, and returns contour, range and raw requests over
// every file and array, interleaved so consecutive requests read another
// file or array, each with PreFilter.Run's or RangePreFilter.Run's bytes
// (the array's own, for raw).
func plannedCases(t *testing.T, dir string) []plannedCase {
	t.Helper()
	ds := twoRamps()
	var paths []string
	for _, kind := range []compress.Kind{compress.None, compress.LZ4} {
		for _, size := range []int{1 << 20, 0} {
			path := fmt.Sprintf("%v-%d.vnd", kind, size)
			if err := vtkio.WriteFile(filepath.Join(dir, path), ds, vtkio.WriteOptions{Codec: kind, ChunkSize: size, Checksum: true}); err != nil {
				t.Fatal(err)
			}
			paths = append(paths, path)
		}
	}
	type request struct {
		sel  *selector
		args []any
		want func(*grid.Field) (*Payload, *PreFilterStats, error)
	}
	var requests []request
	for _, isos := range [][]float64{{0.1}, {0.5}, {0.93}, {0.3, 0.7}} {
		requests = append(requests, request{contourSelector, isoArgs(isos, false), func(f *grid.Field) (*Payload, *PreFilterStats, error) {
			return (&PreFilter{Isovalues: isos, Encoding: EncAuto, rule: contour.RuleEdges}).Run(ds.Grid, f)
		}})
	}
	for _, r := range [][2]float64{{0.2, 0.25}, {0.95, math.Inf(1)}} {
		requests = append(requests, request{rangeSelector, []any{r[0], r[1], EncAuto.String()}, func(f *grid.Field) (*Payload, *PreFilterStats, error) {
			return (&RangePreFilter{Lo: r[0], Hi: r[1], Encoding: EncAuto}).Run(ds.Grid, f)
		}})
	}
	requests = append(requests, request{sel: rawSelector})

	var cases []plannedCase
	for qi, q := range requests {
		for i := range 2 * len(paths) {
			// Alternate the arrays and walk the files, so no two
			// consecutive requests load the same array of the same file.
			c := plannedCase{path: paths[(i+qi)%len(paths)], array: ds.FieldNames()[i%2], sel: q.sel, args: q.args}
			field := ds.Field(c.array)
			if q.want == nil {
				c.want = vtkio.FloatsToBytes(field.Values)
			} else {
				p, _, err := q.want(field)
				if err != nil {
					t.Fatal(err)
				}
				c.want = p.Data
			}
			cases = append(cases, c)
		}
	}
	return cases
}

// TestUncachedPlannedReadReusesDestinations: one uncached server serves
// requests over files chunked at 1 MiB and at the default, raw and LZ4,
// alternating between two arrays, so each planned read lands in a
// destination the previous load filled from another array or file — or,
// every third request, one poisoned with NaN, ±Inf and values at the
// queries' isovalues. Every payload is the reference's byte for byte, and
// both chunkings must skip chunks.
func TestUncachedPlannedReadReusesDestinations(t *testing.T) {
	dir := t.TempDir()
	cases := plannedCases(t, dir)
	srv := NewServer(os.DirFS(dir))
	skipped := map[string]int{}
	reused := 0
	for i, c := range cases {
		if p, _ := planPool.Get().(*readPlan); p != nil {
			if len(p.values) > 0 {
				reused++
				if i%3 == 0 {
					for j := range p.values {
						p.values[j] = plannedPalette[j%len(plannedPalette)]
					}
				}
			}
			planPool.Put(p)
		}
		data, read, total, err := fetchPlannedAt(t, srv, c.sel, c.path, c.array, c.args...)
		if err != nil {
			t.Fatalf("%s %s %s %v: %v", c.sel.method, c.path, c.array, c.args, err)
		}
		if !bytes.Equal(data, c.want) {
			t.Fatalf("%s %s %s %v: served %d bytes, reference %d", c.sel.method, c.path, c.array, c.args, len(data), len(c.want))
		}
		if read < total {
			skipped[c.path]++
		}
	}
	if len(skipped) != 4 {
		t.Errorf("files whose requests skipped chunks: %v, want all 4", skipped)
	}
	if reused == 0 {
		t.Error("no load found a used destination in the pool")
	}
}

// TestConcurrentUncachedFetchesOwnTheirDestinations: requests served at
// once by one uncached server each load into a destination of their own.
// Four callers walk the reuse cases from different starting points, each
// checking every payload against the reference; a destination shared by
// two loads would be written by one while the other selects over it,
// which -race reports and the bytes show.
func TestConcurrentUncachedFetchesOwnTheirDestinations(t *testing.T) {
	dir := t.TempDir()
	cases := plannedCases(t, dir)
	srv := NewServer(os.DirFS(dir))
	const callers, rounds = 4, 12
	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				c := cases[(w*len(cases)/callers+5*i)%len(cases)]
				args := append([]any{c.path, c.array}, c.args...)
				res, err := srv.serveFetch(context.Background(), args, c.sel)
				if err != nil {
					t.Errorf("caller %d: %s %s %s: %v", w, c.sel.method, c.path, c.array, err)
					return
				}
				if got := res.(map[string]any)[c.sel.dataKey].([]byte); !bytes.Equal(got, c.want) {
					t.Errorf("caller %d: %s %s %s %v: served %d bytes, reference %d", w, c.sel.method, c.path, c.array, c.args, len(got), len(c.want))
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// rampDataset is a 32³ field that rises one step per z layer, 0 to 1:
// in 4-layer chunks, an isovalue between two layers is held by one or
// two chunks.
func rampDataset() *grid.Dataset {
	g := grid.NewUniform(32, 32, 32)
	f := grid.NewField("d", g.NumPoints())
	for i := range f.Values {
		f.Values[i] = float32(i/(32*32)) / 31
	}
	ds := grid.NewDataset(g)
	ds.MustAddField(f)
	return ds
}

// TestPartialReadCorruptPages: a flipped bit in a page of a chunk the
// plan reads fails the fetch with rpc.ErrCorrupt; one in a chunk it skips
// is never read, the payload is the reference's, and VerifyChecksums —
// the scrubber's read — still finds the page.
func TestPartialReadCorruptPages(t *testing.T) {
	ds := rampDataset()
	// Between layers 1 and 2; the plan, which bounds a row by its chunk's
	// range, reads chunks 0 and 1 (the pair of layers 3 and 4 spans both).
	const iso = 0.05
	want, _, err := (&PreFilter{Isovalues: []float64{iso}, Encoding: EncAuto}).Run(ds.Grid, ds.Field("d"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		chunk int
	}{{"wanted", 0}, {"skipped", 5}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := writeChunked(t, dir, ds, compress.None, 4*32*32, 4096)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			r, err := vtkio.OpenReader(newSliceReaderAt(data))
			if err != nil {
				t.Fatal(err)
			}
			info := r.Header().Array("d")
			data[info.Offset+int64(tc.chunk*4*4*32*32)+100] ^= 0x08
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}

			srv := NewServer(os.DirFS(dir))
			got, read, _, err := fetchPlanned(t, srv, contourSelector, isoArgs([]float64{iso}, false)...)
			if tc.chunk == 0 {
				if !errors.Is(err, rpc.ErrCorrupt) {
					t.Fatalf("fetch through a corrupt wanted chunk: %v, want rpc.ErrCorrupt", err)
				}
				return
			}
			if err != nil || read != 2 || !bytes.Equal(got, want.Data) {
				t.Fatalf("fetch past a corrupt skipped chunk: %d chunks read, same bytes %v, %v", read, bytes.Equal(got, want.Data), err)
			}
			r, err = vtkio.OpenReader(newSliceReaderAt(data))
			if err != nil {
				t.Fatal(err)
			}
			if err := r.VerifyChecksums(); !errors.Is(err, vtkio.ErrChecksum) {
				t.Errorf("VerifyChecksums missed the skipped chunk's page: %v", err)
			}
		})
	}
}

// TestUncachedFetchOutsideEveryChunkReadsNoArray: an isovalue no chunk's
// range can straddle plans no chunk, so once the file's metadata is
// resident a repeat fetch costs the store one HEAD and no GET, and still
// serves the reference's (empty) payload.
func TestUncachedFetchOutsideEveryChunkReadsNoArray(t *testing.T) {
	mount, store, heads, gets := countingStore(t)
	ds := rampDataset()
	path := writeChunked(t, t.TempDir(), ds, compress.LZ4, 4*32*32, 4096)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put("sim", "ts0.vnd", data); err != nil {
		t.Fatal(err)
	}
	want, _, err := (&PreFilter{Isovalues: []float64{2}, Encoding: EncAuto}).Run(ds.Grid, ds.Field("d"))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(mount)
	for i := 0; i < 3; i++ {
		h0, g0 := heads.Load(), gets.Load()
		got, read, _, err := fetchPlanned(t, srv, contourSelector, isoArgs([]float64{2}, false)...)
		if err != nil || read != 0 || !bytes.Equal(got, want.Data) {
			t.Fatalf("fetch %d: %d chunks read, same bytes %v, %v", i, read, bytes.Equal(got, want.Data), err)
		}
		if h, g := heads.Load()-h0, gets.Load()-g0; i > 0 && (h != 1 || g != 0) {
			t.Errorf("repeat fetch %d: %d HEADs and %d GETs, want 1 and 0", i, h, g)
		}
	}
}

// FuzzPlannedReadContour is the planned read's property test, without
// the I/O: over a fuzzed field cut into fuzzed chunks, it takes each
// chunk's NaN-aware range as the table records it, plans the read of a
// contour (either rule, one or two isovalues) or range query with
// readPlan.plan, poisons every value of every row the plan does not read, and
// selects with the plan's bounds over the poisoned field. The payload
// must be the full sweep's over the true field, byte for byte, and every
// planned row must lie in a wanted chunk.
func FuzzPlannedReadContour(f *testing.F) {
	f.Add(uint8(69), uint8(8), uint8(5), uint16(96), uint8(2), uint8(4+8), uint8(1), uint8(6), false, []byte{3, 4, 5, 6, 7, 3, 0, 4, 7, 1, 5, 2, 6})
	f.Add(uint8(5), uint8(3), uint8(3), uint16(0), uint8(0), uint8(0), uint8(3), uint8(3), true, []byte{4, 4, 4, 4, 0, 7})
	f.Add(uint8(64), uint8(2), uint8(2), uint16(63), uint8(5), uint8(1+8), uint8(0), uint8(2), false, []byte{1, 2, 3, 5, 6, 7})
	f.Fuzz(func(t *testing.T, nxb, nyb, nzb uint8, chunkB uint16, isoA, isoB, loB, hiB uint8, cells bool, data []byte) {
		if len(data) == 0 {
			return
		}
		nx, ny, nz := 2+int(nxb)%80, 2+int(nyb)%6, 2+int(nzb)%5
		g := grid.NewUniform(nx, ny, nz)
		field := &grid.Field{Name: "d", Values: make([]float32, g.NumPoints())}
		for i := range field.Values {
			field.Values[i] = plannedPalette[data[i%len(data)]%8]
		}
		// The chunks a writer of chunkVals values per chunk records.
		chunkVals := 1 + int(chunkB)%(2*nx*ny)
		var chunks []vtkio.ChunkRange
		for start := 0; start < len(field.Values); start += chunkVals {
			c := vtkio.ChunkRange{Start: start, End: min(start+chunkVals, len(field.Values)),
				Lo: float32(math.Inf(1)), Hi: float32(math.Inf(-1))}
			for _, v := range field.Values[c.Start:c.End] {
				c.Lo, c.Hi = min32(c.Lo, v), max32(c.Hi, v)
			}
			chunks = append(chunks, c)
		}

		isoPalette := [8]float64{0, 0.25, 0.5, 0.75, 1, 0.3, -1, 2}
		isos := []float64{isoPalette[isoA%8]}
		if isoB&8 != 0 {
			isos = append(isos, isoPalette[isoB%8])
		}
		lo, hi := fuzzBoundsCore[loB%8], fuzzBoundsCore[hiB%8]
		if lo > hi {
			lo, hi = hi, lo
		}
		rule := contour.RuleEdges
		if cells {
			rule = contour.RuleCells
		}
		for _, q := range []struct {
			sel *selector
			q   query
			run func(rows *contour.RowRanges, values []float32) (*Payload, *PreFilterStats, error)
		}{
			{contourSelector, contourQuery{isovalues: isos, rule: rule}, func(rows *contour.RowRanges, values []float32) (*Payload, *PreFilterStats, error) {
				return (&PreFilter{Isovalues: isos, rows: rows, rule: rule}).Run(g, &grid.Field{Name: "d", Values: values})
			}},
			{rangeSelector, rangeQuery{lo: lo, hi: hi}, func(rows *contour.RowRanges, values []float32) (*Payload, *PreFilterStats, error) {
				return (&RangePreFilter{Lo: lo, Hi: hi, rows: rows}).Run(g, &grid.Field{Name: "d", Values: values})
			}},
		} {
			want, _, err := q.run(nil, field.Values)
			if err != nil {
				t.Fatal(err)
			}
			p := &readPlan{chunks: chunks}
			bounds, err := p.plan(g, q.sel, q.q)
			if err != nil {
				t.Fatal(err)
			}
			wanted := p.want
			poisoned := append([]float32(nil), field.Values...)
			for r := 0; r < ny*nz; r++ {
				if p.need[r>>6]&(1<<(r&63)) != 0 {
					for i := r * nx; i < (r+1)*nx; i++ {
						c := i / chunkVals
						if !wanted[c] {
							t.Fatalf("%s: planned row %d has value %d in unwanted chunk %d", q.sel.method, r, i, c)
						}
					}
					continue
				}
				for i := r * nx; i < (r+1)*nx; i++ {
					poisoned[i] = plannedPalette[(3*i+r)%8] // anything, NaN and ±Inf included
				}
			}
			got, _, err := q.run(bounds, poisoned)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Data, want.Data) {
				t.Fatalf("%s %v: planned select over the poisoned field shipped %d points, full sweep %d", q.sel.method, q.q.id(), got.Count, want.Count)
			}
		}
	})
}

// FuzzPlannedReadContour's fields come from a small palette with NaN and
// ±Inf, and its isovalues and range ends are palette values often, so a
// chunk's bound and a query's value coincide.
var (
	plannedPalette = [8]float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0, 0.25, 0.5, 0.75, 1}
	fuzzBoundsCore = [8]float64{math.Inf(-1), 0, 0.25, 0.5, 0.75, 1, 0.6, math.Inf(1)}
)

// min32 and max32 are the NaN-aware min and max the range table records:
// a NaN never widens the range.
func min32(a, b float32) float32 {
	if b < a {
		return b
	}
	return a
}

func max32(a, b float32) float32 {
	if b > a {
		return b
	}
	return a
}
