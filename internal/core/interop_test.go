package core

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"vizndp/internal/compress"
	"vizndp/internal/contour"
	"vizndp/internal/grid"
	"vizndp/internal/sim"
	"vizndp/internal/vtkio"
)

// The contour fetch's two rules on one wire. A client sends edgesKey as
// the fifth ndp.fetch argument and gets the interesting-edge selection;
// a client that predates the key gets the cell-corner payload servers
// sent before it, byte for byte; and the post-filter contours both to
// the full-array mesh.

// keylessCRCs are the CRC32C of the cell-corner payloads a server sent
// before the edge rule existed, for the 32³ asteroid at seed 1,
// isovalues 0.1, 0.5 and 0.9. nan marks v02 with every 13th point NaN.
var keylessCRCs = []struct {
	step  int
	array string
	nan   bool
	enc   Encoding
	count int
	crc   uint32
}{
	{0, "v02", false, EncIndexValue, 4096, 0x56a0b28d},
	{0, "v02", false, EncBlockBitmap, 4096, 0xde52a2df},
	{0, "v03", false, EncIndexValue, 616, 0x3ec1baf8},
	{0, "v03", false, EncBlockBitmap, 616, 0x831d8500},
	{48013, "v02", false, EncIndexValue, 7459, 0x855bef00},
	{48013, "v02", false, EncBlockBitmap, 7459, 0x7eb97874},
	{48013, "v03", false, EncIndexValue, 4209, 0x54424c16},
	{48013, "v03", false, EncBlockBitmap, 4209, 0x66c783a4},
	{48013, "v02", true, EncIndexValue, 6085, 0x33d6ef7c},
	{48013, "v02", true, EncBlockBitmap, 6085, 0xb1ffe372},
}

var interopIsos = []any{0.1, 0.5, 0.9}

// writeInteropRuns writes the 32³ asteroid steps the CRCs were taken
// at, plus v02 of the last one laced with NaN, and serves them from one
// server with a payload cache.
func writeInteropRuns(t *testing.T) (*Server, map[string]*grid.Dataset) {
	t.Helper()
	dir := t.TempDir()
	sets := make(map[string]*grid.Dataset)
	for _, step := range []int{0, 48013} {
		ds, err := sim.AsteroidConfig{N: 32, Seed: 1}.Generate(step)
		if err != nil {
			t.Fatal(err)
		}
		laced := append([]float32(nil), ds.Field("v02").Values...)
		for i := 0; i < len(laced); i += 13 {
			laced[i] = float32(math.NaN())
		}
		ds.MustAddField(&grid.Field{Name: "v02nan", Values: laced})
		name := runName(step)
		if err := os.MkdirAll(filepath.Join(dir, "run"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := vtkio.WriteFile(filepath.Join(dir, name), ds, vtkio.WriteOptions{Codec: compress.None}); err != nil {
			t.Fatal(err)
		}
		sets[name] = ds
	}
	srv := NewServer(os.DirFS(dir), WithPayloadCacheBytes(64<<20))
	t.Cleanup(srv.Close)
	return srv, sets
}

// runName is the object name of one step's file.
func runName(step int) string { return fmt.Sprintf("run/ts%d.vnd", step) }

// fetchContour serves one ndp.fetch with the given trailing arguments.
func fetchContour(t *testing.T, srv *Server, args ...any) []byte {
	t.Helper()
	resp, err := srv.serveFetch(context.Background(), args, contourSelector)
	if err != nil {
		t.Fatal(err)
	}
	return resp.(map[string]any)["payload"].([]byte)
}

// TestContourKeylessRequestShipsCellCorners pins the bytes an older
// client gets: a request without the edges key returns the cell-corner
// payload, identical to what servers sent before the edge rule, in both
// encodings; and the post-filter contours it, on fields without NaN, to
// the full-array mesh.
func TestContourKeylessRequestShipsCellCorners(t *testing.T) {
	srv, sets := writeInteropRuns(t)
	tab := crc32.MakeTable(crc32.Castagnoli)
	isos := []float64{0.1, 0.5, 0.9}
	for _, tc := range keylessCRCs {
		name := runName(tc.step)
		array := tc.array
		if tc.nan {
			array += "nan"
		}
		data := fetchContour(t, srv, name, array, interopIsos, tc.enc.String())
		if got := crc32.Checksum(data, tab); got != tc.crc {
			t.Errorf("%s %s %v: keyless payload CRC32C %#08x, want %#08x", name, array, tc.enc, got, tc.crc)
		}
		p, err := DecodePayload(data)
		if err != nil {
			t.Fatal(err)
		}
		if p.Count != tc.count {
			t.Errorf("%s %s %v: %d points, want %d", name, array, tc.enc, p.Count, tc.count)
		}
		if tc.nan {
			continue
		}
		ds := sets[name]
		want, err := contour.MarchingTetrahedra(ds.Grid, ds.Field(array).Values, isos)
		if err != nil {
			t.Fatal(err)
		}
		got, err := (&PostFilter{Isovalues: isos}).Contour(ds.Grid, array, p)
		if err != nil {
			t.Fatal(err)
		}
		if want.NumTriangles() == 0 || !got.Equal(want) {
			t.Errorf("%s %s %v: post-filter of the cell-corner payload has %d triangles, dense %d",
				name, array, tc.enc, got.NumTriangles(), want.NumTriangles())
		}
	}
}

// TestContourRuleKeysThePayloadCache: one server with a payload cache
// answers a keyed and a keyless request for the same array, isovalues
// and encoding, in either order, each with its own rule's bytes — so a
// cached payload of one rule is never served for the other. The keyed
// bytes are a local PreFilter.Run's and smaller.
func TestContourRuleKeysThePayloadCache(t *testing.T) {
	srv, sets := writeInteropRuns(t)
	name := runName(48013)
	ds := sets[name]
	local, _, err := (&PreFilter{Isovalues: []float64{0.1, 0.5, 0.9}, Encoding: EncIndexValue}).Run(ds.Grid, ds.Field("v03"))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		var keyed, keyless []byte
		if round == 0 {
			keyed = fetchContour(t, srv, name, "v03", interopIsos, "indexvalue", edgesKey)
			keyless = fetchContour(t, srv, name, "v03", interopIsos, "indexvalue")
		} else {
			keyless = fetchContour(t, srv, name, "v03", interopIsos, "indexvalue")
			keyed = fetchContour(t, srv, name, "v03", interopIsos, "indexvalue", edgesKey)
		}
		if !bytes.Equal(keyed, local.Data) {
			t.Errorf("round %d: keyed payload (%d bytes) differs from a local PreFilter.Run (%d)", round, len(keyed), len(local.Data))
		}
		if bytes.Equal(keyed, keyless) || len(keyed) >= len(keyless) {
			t.Errorf("round %d: keyed payload of %d bytes, keyless %d; want the smaller edge selection", round, len(keyed), len(keyless))
		}
	}
	if srv.payloads.Len() != 2 {
		t.Errorf("%d cached payloads, want one per rule", srv.payloads.Len())
	}
	if _, err := srv.serveFetch(context.Background(), []any{name, "v03", interopIsos, "indexvalue", "faces"}, contourSelector); err == nil {
		t.Error("unknown selection rule accepted")
	}
}
