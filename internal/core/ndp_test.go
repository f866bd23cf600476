package core

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"vizndp/internal/compress"
	"vizndp/internal/contour"
	"vizndp/internal/grid"
	"vizndp/internal/netsim"
	"vizndp/internal/vtkio"
)

// startNDP writes a dataset file into a temp dir, serves it with an NDP
// server, and returns a connected client.
func startNDP(t *testing.T, codec compress.Kind) (*Client, *grid.Dataset) {
	t.Helper()
	g, f := sphereField(24)
	ds := grid.NewDataset(g)
	ds.MustAddField(f)
	extra := grid.NewField("extra", g.NumPoints())
	ds.MustAddField(extra)

	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "run"), 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "run", "ts0.vnd")
	if err := vtkio.WriteFile(path, ds, vtkio.WriteOptions{Codec: codec}); err != nil {
		t.Fatal(err)
	}

	srv := NewServer(os.DirFS(dir))
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
	return client, ds
}

func TestNDPDescribe(t *testing.T) {
	client, ds := startNDP(t, compress.LZ4)
	desc, err := client.Describe("run/ts0.vnd")
	if err != nil {
		t.Fatal(err)
	}
	if !desc.Grid.Equal(ds.Grid) {
		t.Errorf("grid = %+v, want %+v", desc.Grid, ds.Grid)
	}
	// The reply carries the grid and nothing else: no caller reads a
	// per-array list, so the server no longer ships one.
	res, err := client.rpc.CallContext(context.Background(), MethodDescribe, "run/ts0.vnd")
	if err != nil {
		t.Fatal(err)
	}
	m, _ := res.(map[string]any)
	if len(m) != 3 || m["dims"] == nil || m["origin"] == nil || m["spacing"] == nil {
		t.Errorf("describe reply = %v, want dims, origin and spacing only", m)
	}
	// The described grid sizes every array: a raw fetch of "d" is one
	// float32 per described point, and an array the file lacks fails.
	raw, _, err := client.FetchRawContext(context.Background(), "run/ts0.vnd", "d")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 4*desc.Grid.NumPoints() {
		t.Errorf("raw array d = %d bytes, described grid has %d points", len(raw), desc.Grid.NumPoints())
	}
	if _, _, err := client.FetchRawContext(context.Background(), "run/ts0.vnd", "nope"); err == nil {
		t.Error("phantom array fetched")
	}
}

// replyCaller answers every call with one fixed reply.
type replyCaller struct{ reply any }

func (r replyCaller) CallContext(context.Context, string, ...any) (any, error) { return r.reply, nil }
func (replyCaller) Close() error                                               { return nil }

// TestNDPDescribeIgnoresCoords pins how a describe reply from an older
// server that still ships rectilinear coordinates (keys "coords" + X/Y/Z)
// and a per-array list (key "arrays") reads now: those keys are ignored,
// even unsorted coordinates, and the grid is the uniform one the reply's
// dims, origin and spacing describe.
func TestNDPDescribeIgnoresCoords(t *testing.T) {
	reply := map[string]any{
		"dims":    []any{int64(2), int64(3), int64(4)},
		"origin":  []any{0.5, 0.0, -1.0},
		"spacing": []any{1.0, 2.0, 0.25},
		"arrays":  []any{map[string]any{"name": "d", "codec": "raw", "comp": int64(96), "raw": int64(96)}},
	}
	for _, axis := range []string{"X", "Y", "Z"} {
		reply["coords"+axis] = []any{2.0, 1.0}
	}
	desc, err := (&Client{rpc: replyCaller{reply}}).Describe("run/ts0.vnd")
	if err != nil {
		t.Fatalf("a reply carrying coordinates was rejected: %v", err)
	}
	want := &grid.Uniform{Dims: grid.Dims{X: 2, Y: 3, Z: 4},
		Origin: grid.Vec3{X: 0.5, Z: -1}, Spacing: grid.Vec3{X: 1, Y: 2, Z: 0.25}}
	if !desc.Grid.Equal(want) {
		t.Errorf("grid = %+v, want %+v", desc.Grid, want)
	}
}

func TestNDPDescribeMissing(t *testing.T) {
	client, _ := startNDP(t, compress.None)
	if _, err := client.Describe("run/missing.vnd"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestNDPFetchFilteredMatchesLocal(t *testing.T) {
	for _, codec := range []compress.Kind{compress.None, compress.Gzip, compress.LZ4} {
		client, ds := startNDP(t, codec)
		isos := []float64{7}
		payload, stats, err := client.FetchFilteredContext(context.Background(), "run/ts0.vnd", "d", isos, EncAuto)
		if err != nil {
			t.Fatalf("%v: %v", codec, err)
		}
		// The remote payload must match a locally computed one bit for bit.
		pre := &PreFilter{Isovalues: isos, Encoding: EncAuto}
		localPayload, _, err := pre.Run(ds.Grid, ds.Field("d"))
		if err != nil {
			t.Fatal(err)
		}
		if string(payload.Data) != string(localPayload.Data) {
			t.Errorf("%v: remote payload differs from local", codec)
		}
		if stats.RawBytes != int64(4*ds.Grid.NumPoints()) {
			t.Errorf("%v: RawBytes = %d", codec, stats.RawBytes)
		}
		if stats.SelectedPoints != payload.Count {
			t.Errorf("%v: SelectedPoints = %d, payload count %d",
				codec, stats.SelectedPoints, payload.Count)
		}
		if stats.ReadTime <= 0 || stats.TotalTime <= 0 {
			t.Errorf("%v: missing timings %+v", codec, stats)
		}
	}
}

func TestNDPFetchErrors(t *testing.T) {
	client, _ := startNDP(t, compress.None)
	if _, _, err := client.FetchFilteredContext(context.Background(), "run/ts0.vnd", "ghost", []float64{1}, EncAuto); err == nil {
		t.Error("unknown array accepted")
	}
	if _, _, err := client.FetchFilteredContext(context.Background(), "nope", "d", []float64{1}, EncAuto); err == nil {
		t.Error("unknown path accepted")
	}
	if _, _, err := client.FetchFilteredContext(context.Background(), "run/ts0.vnd", "d", nil, EncAuto); err == nil {
		t.Error("empty isovalues accepted")
	}
}

func TestNDPFetchRaw(t *testing.T) {
	client, ds := startNDP(t, compress.Gzip)
	raw, readTime, err := client.FetchRawContext(context.Background(), "run/ts0.vnd", "d")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 4*ds.Grid.NumPoints() {
		t.Fatalf("raw = %d bytes", len(raw))
	}
	if readTime <= 0 {
		t.Error("no read time reported")
	}
	vals, err := vtkio.BytesToFloats(raw)
	if err != nil {
		t.Fatal(err)
	}
	want := ds.Field("d").Values
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("raw value %d mismatch", i)
		}
	}
}

// TestNDPPostFilterMatchesBaseline is the headline correctness claim
// over the real RPC path: the remote pre-filter's payload, contoured by
// the local post-filter, is the mesh the full array contours to.
func TestNDPPostFilterMatchesBaseline(t *testing.T) {
	client, ds := startNDP(t, compress.LZ4)
	isos := []float64{7}
	want, err := contour.MarchingTetrahedra(ds.Grid, ds.Field("d").Values, isos)
	if err != nil {
		t.Fatal(err)
	}
	for _, enc := range []Encoding{EncIndexValue, EncBlockBitmap} {
		payload, st, err := client.FetchFilteredContext(context.Background(), "run/ts0.vnd", "d", isos, enc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := (&PostFilter{Isovalues: isos}).Contour(ds.Grid, "d", payload)
		if err != nil {
			t.Fatal(err)
		}
		if want.NumTriangles() == 0 || !got.Equal(want) {
			t.Fatalf("%v: NDP mesh (%d tris) != baseline mesh (%d tris)",
				enc, got.NumTriangles(), want.NumTriangles())
		}
		if st.PayloadBytes == 0 || st.PayloadBytes >= st.RawBytes {
			t.Errorf("%v: moved %d of %d bytes", enc, st.PayloadBytes, st.RawBytes)
		}
	}
}

func TestNDPFetchRangeMatchesLocal(t *testing.T) {
	client, ds := startNDP(t, compress.LZ4)
	lo, hi := 6.0, 8.0

	payload, stats, err := client.FetchRangeContext(context.Background(), "run/ts0.vnd", "d", lo, hi, EncAuto)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SelectedPoints == 0 {
		t.Fatal("nothing selected")
	}
	got, err := ThresholdFromPayload(ds.Grid, payload, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	want, err := contour.ThresholdCells(ds.Grid, ds.Field("d").Values, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("remote threshold differs: %d vs %d cells", got.Count(), want.Count())
	}
}

func TestNDPFetchRangeErrors(t *testing.T) {
	client, _ := startNDP(t, compress.None)
	if _, _, err := client.FetchRangeContext(context.Background(), "run/ts0.vnd", "d", 5, 2, EncAuto); err == nil {
		t.Error("inverted range accepted")
	}
	if _, _, err := client.FetchRangeContext(context.Background(), "run/ts0.vnd", "ghost", 1, 2, EncAuto); err == nil {
		t.Error("unknown array accepted")
	}
}

// TestThresholdPipelineOverNDP is the second filter type split the same
// way, in both explicit encodings over uncompressed storage: the range
// payload's threshold is the full array's.
func TestThresholdPipelineOverNDP(t *testing.T) {
	client, ds := startNDP(t, compress.None)
	lo, hi := 6.0, 8.0
	want, err := contour.ThresholdCells(ds.Grid, ds.Field("d").Values, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	for _, enc := range []Encoding{EncIndexValue, EncBlockBitmap} {
		payload, _, err := client.FetchRangeContext(context.Background(), "run/ts0.vnd", "d", lo, hi, enc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ThresholdFromPayload(ds.Grid, payload, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if want.Count() == 0 || !got.Equal(want) {
			t.Errorf("%v: threshold over NDP kept %d cells, full array %d", enc, got.Count(), want.Count())
		}
	}
}

func TestNDPOverShapedLinkMovesFewBytes(t *testing.T) {
	// The paper's central mechanism: NDP sends orders of magnitude fewer
	// bytes over the wire than the raw array size.
	g, f := sphereField(32)
	ds := grid.NewDataset(g)
	ds.MustAddField(f)
	dir := t.TempDir()
	if err := vtkio.WriteFile(filepath.Join(dir, "ts0.vnd"), ds,
		vtkio.WriteOptions{Codec: compress.None}); err != nil {
		t.Fatal(err)
	}

	link := netsim.NewLink(0, 0) // unlimited but counted
	srv := NewServer(os.DirFS(dir))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(link.Listener(ln))
	defer srv.Close()
	client, err := Dial(ln.Addr().String(), link.Dial)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	link.ResetCounters()
	payload, _, err := client.FetchFilteredContext(context.Background(), "ts0.vnd", "d", []float64{10}, EncAuto)
	if err != nil {
		t.Fatal(err)
	}
	raw := int64(4 * g.NumPoints())
	// The link counts a chunk after the write that delivers it returns, so
	// the reply can be in hand before the server's goroutine has counted it.
	moved := link.BytesSent()
	for wait := time.Now().Add(2 * time.Second); moved < int64(payload.WireSize()) && time.Now().Before(wait); moved = link.BytesSent() {
		time.Sleep(time.Millisecond)
	}
	if moved >= raw/4 {
		t.Errorf("NDP moved %d bytes; raw array is %d", moved, raw)
	}
	if moved < int64(payload.WireSize()) {
		t.Errorf("link counted %d bytes, payload alone is %d", moved, payload.WireSize())
	}
}

func TestNDPFetchSlice(t *testing.T) {
	client, ds := startNDP(t, compress.LZ4)
	g2, vals, stats, err := client.FetchSliceContext(context.Background(), "run/ts0.vnd", "d", contour.AxisZ, 5)
	if err != nil {
		t.Fatal(err)
	}
	wantGrid, want, err := contour.ExtractSlice(ds.Grid, ds.Field("d").Values, contour.AxisZ, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !g2.Equal(wantGrid) {
		t.Errorf("slice grid = %+v, want %+v", g2, wantGrid)
	}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("slice value %d mismatch", i)
		}
	}
	// The slice payload is one plane out of 24: a ~24x reduction.
	if stats.PayloadBytes*8 > stats.RawBytes {
		t.Errorf("slice moved %d of %d bytes", stats.PayloadBytes, stats.RawBytes)
	}
}

func TestNDPFetchSliceErrors(t *testing.T) {
	client, _ := startNDP(t, compress.None)
	if _, _, _, err := client.FetchSliceContext(context.Background(), "run/ts0.vnd", "d", contour.AxisZ, 99); err == nil {
		t.Error("out-of-range slice accepted")
	}
	if _, _, _, err := client.FetchSliceContext(context.Background(), "run/ts0.vnd", "ghost", contour.AxisX, 0); err == nil {
		t.Error("unknown array accepted")
	}
}

// TestNDPFetchMultiConcurrentArrays fetches two arrays as one
// concurrent request set: the results come back in request order, each
// carrying its own array's selected values.
func TestNDPFetchMultiConcurrentArrays(t *testing.T) {
	client, ds := startNDP(t, compress.None)
	isos := []float64{7}
	reqs := []MultiRequest{
		{Path: "run/ts0.vnd", Array: "d", Isovalues: isos},
		{Path: "run/ts0.vnd", Array: "extra", Isovalues: isos},
	}
	results := client.FetchFilteredMultiContext(t.Context(), reqs)
	if len(results) != 2 {
		t.Fatalf("%d results for 2 requests", len(results))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", reqs[i].Array, r.Err)
		}
		if r.Stats == nil || r.Stats.RawBytes != int64(4*ds.Grid.NumPoints()) {
			t.Errorf("%s: stats %+v", reqs[i].Array, r.Stats)
		}
	}
	// "extra" is all zeros, so isovalue 7 crosses none of its cells.
	if n := results[1].Payload.Count; n != 0 {
		t.Errorf("extra: %d points selected, want 0 (results out of order?)", n)
	}
	mask, err := contour.SelectCellCorners(ds.Grid, ds.Field("d").Values, isos)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Payload.Count != mask.Count() {
		t.Fatalf("d: %d points selected, want %d", results[0].Payload.Count, mask.Count())
	}
	vals, err := results[0].Payload.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	want := ds.Field("d").Values
	mask.ForEach(func(i int) {
		if vals[i] != want[i] {
			t.Fatalf("selected value %d: got %v, want %v", i, vals[i], want[i])
		}
	})
}
