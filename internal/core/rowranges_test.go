package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"testing"

	"vizndp/internal/compress"
	"vizndp/internal/grid"
	"vizndp/internal/telemetry"
	"vizndp/internal/vtkio"
)

// hostileSlabs is a 70x9x6 field (rows cross a word boundary) whose z
// slabs are NaN-laced, constant, all NaN, ±Inf-laced, constant again and
// a plain ramp, with the finite bounds of every slab: the isovalues and
// range ends at which a row pair's combined range is tightest.
func hostileSlabs() (*grid.Dataset, []float64) {
	g := grid.NewUniform(70, 9, 6)
	f := grid.NewField("d", g.NumPoints())
	rng := rand.New(rand.NewSource(5))
	slab := g.Dims.X * g.Dims.Y
	for i := range f.Values {
		var v float32
		switch i / slab {
		case 0:
			v = rng.Float32()
			if rng.Intn(8) == 0 {
				v = float32(math.NaN())
			}
		case 1:
			v = 0.5
		case 2:
			v = float32(math.NaN())
		case 3:
			v = rng.Float32()
			switch rng.Intn(10) {
			case 0:
				v = float32(math.Inf(1))
			case 1:
				v = float32(math.Inf(-1))
			}
		case 4:
			v = 1
		default:
			v = float32(i%slab) / float32(slab)
		}
		f.Values[i] = v
	}
	ds := grid.NewDataset(g)
	ds.MustAddField(f)

	var bounds []float64
	for k := 0; k < g.Dims.Z; k++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range f.Values[k*slab : (k+1)*slab] {
			if fv := float64(v); !math.IsNaN(fv) && !math.IsInf(fv, 0) {
				lo, hi = math.Min(lo, fv), math.Max(hi, fv)
			}
		}
		if !math.IsInf(lo, 0) {
			bounds = append(bounds, lo, hi)
		}
	}
	return ds, bounds
}

// serveDataset writes ds as ts0.vnd under a fresh directory and serves it
// with opts.
func serveDataset(t *testing.T, ds *grid.Dataset, opts ...ServerOption) (*Client, *Server) {
	t.Helper()
	dir := t.TempDir()
	if err := vtkio.WriteFile(filepath.Join(dir, "ts0.vnd"), ds, vtkio.WriteOptions{Codec: compress.LZ4}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(os.DirFS(dir), opts...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	client, err := Dial(ln.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		client.Close()
		srv.Close()
	})
	return client, srv
}

// TestCacheServesReferenceBytesOnHostileData: a cached server, whose
// selects skip the row pairs its summary rules out, serves exactly
// PreFilter.Run's and RangePreFilter.Run's bytes — on the fetch that
// loads the array and on every repeat served from the cache — for
// isovalues and range ends at slab bounds over NaN-laced, constant,
// all-NaN and ±Inf slabs.
func TestCacheServesReferenceBytesOnHostileData(t *testing.T) {
	ds, bounds := hostileSlabs()
	client, srv := serveDataset(t, ds, WithCacheBytes(64<<20))
	field := ds.Field("d")

	for pass := 0; pass < 2; pass++ {
		for _, iso := range bounds {
			for _, isos := range [][]float64{{iso}, {iso, 0.5}} {
				want, _, err := (&PreFilter{Isovalues: isos, Encoding: EncAuto}).Run(ds.Grid, field)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := client.FetchFiltered("ts0.vnd", "d", isos, EncAuto)
				if err != nil {
					t.Fatal(err)
				}
				if string(got.Data) != string(want.Data) {
					t.Fatalf("pass %d isos %v: served %d points, reference %d", pass, isos, got.Count, want.Count)
				}
			}
		}
		for i, lo := range bounds {
			for _, hi := range append([]float64{lo}, bounds[i:]...) {
				if lo > hi {
					continue
				}
				want, _, err := (&RangePreFilter{Lo: lo, Hi: hi, Encoding: EncAuto}).Run(ds.Grid, field)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := client.FetchRange("ts0.vnd", "d", lo, hi, EncAuto)
				if err != nil {
					t.Fatal(err)
				}
				if string(got.Data) != string(want.Data) {
					t.Fatalf("pass %d [%v, %v]: served %d points, reference %d", pass, lo, hi, got.Count, want.Count)
				}
			}
		}
	}
	if srv.Cache().Len() != 1 {
		t.Errorf("cache entries = %d, want 1", srv.Cache().Len())
	}
}

// TestCacheEntryCarriesRowSummary: the array cache's entries carry the
// row summary the selects use; an uncached server's, which serve one
// request, do not pay for one.
func TestCacheEntryCarriesRowSummary(t *testing.T) {
	ds, _ := hostileSlabs()
	for _, tc := range []struct {
		name string
		opts []ServerOption
		want bool
	}{
		{"cached", []ServerOption{WithCacheBytes(64 << 20)}, true},
		{"uncached", nil, false},
	} {
		_, srv := serveDataset(t, ds, tc.opts...)
		version, err := srv.fileVersion("ts0.vnd")
		if err != nil {
			t.Fatal(err)
		}
		e, _, err := srv.loadArray(context.Background(), arrayKey{"ts0.vnd", "d", version})
		if err != nil {
			t.Fatal(err)
		}
		if got := e.rows != nil; got != tc.want {
			t.Errorf("%s: entry has a row summary = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestCacheHoldsFiveArraysInFiveArraysBytes pins the accounting: the row
// summary is not charged to the bound, so a cache of exactly five arrays'
// bytes holds five arrays (the benchmark's crowd cache is sized so).
func TestCacheHoldsFiveArraysInFiveArraysBytes(t *testing.T) {
	g := grid.NewUniform(32, 16, 8)
	ds := grid.NewDataset(g)
	for a := 0; a < 5; a++ {
		f := grid.NewField(fmt.Sprintf("a%d", a), g.NumPoints())
		for i := range f.Values {
			f.Values[i] = float32((i*(a+3))%97) / 97
		}
		ds.MustAddField(f)
	}
	arrayBytes := int64(4 * g.NumPoints())
	client, srv := serveDataset(t, ds, WithCacheBytes(5*arrayBytes))
	for a := 0; a < 5; a++ {
		if _, _, err := client.FetchFiltered("ts0.vnd", fmt.Sprintf("a%d", a), []float64{0.5}, EncAuto); err != nil {
			t.Fatal(err)
		}
	}
	if got := telemetry.Default().Gauge("arraycache.entries").Value(); got != 5 {
		t.Errorf("arraycache.entries = %d, want 5", got)
	}
	if got := srv.Cache().Resident(); got != 5*arrayBytes {
		t.Errorf("resident = %d bytes, want %d", got, 5*arrayBytes)
	}
}
