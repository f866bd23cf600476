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
	"vizndp/internal/pipeline"
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
	raw, _, err := client.FetchRaw("run/ts0.vnd", "d")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 4*desc.Grid.NumPoints() {
		t.Errorf("raw array d = %d bytes, described grid has %d points", len(raw), desc.Grid.NumPoints())
	}
	if _, _, err := client.FetchRaw("run/ts0.vnd", "nope"); err == nil {
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
		payload, stats, err := client.FetchFiltered("run/ts0.vnd", "d", isos, EncAuto)
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
	if _, _, err := client.FetchFiltered("run/ts0.vnd", "ghost", []float64{1}, EncAuto); err == nil {
		t.Error("unknown array accepted")
	}
	if _, _, err := client.FetchFiltered("nope", "d", []float64{1}, EncAuto); err == nil {
		t.Error("unknown path accepted")
	}
	if _, _, err := client.FetchFiltered("run/ts0.vnd", "d", nil, EncAuto); err == nil {
		t.Error("empty isovalues accepted")
	}
}

func TestNDPFetchRaw(t *testing.T) {
	client, ds := startNDP(t, compress.Gzip)
	raw, readTime, err := client.FetchRaw("run/ts0.vnd", "d")
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

func TestNDPSourcePipelineMatchesBaseline(t *testing.T) {
	// The headline correctness claim: an NDP pipeline (remote pre-filter,
	// local post-filter) renders the same contour as the baseline
	// pipeline that reads full arrays.
	client, ds := startNDP(t, compress.LZ4)
	isos := []float64{7}

	baseline := pipeline.New(
		&pipeline.DatasetSource{Dataset: ds},
		&pipeline.ContourFilter{Array: "d", Isovalues: isos},
	)
	wantAny, err := baseline.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := wantAny.(*contour.Mesh)

	src := &NDPSource{
		Client:    client,
		Path:      "run/ts0.vnd",
		Arrays:    []string{"d"},
		Isovalues: isos,
	}
	ndp := pipeline.New(src, &pipeline.ContourFilter{Array: "d", Isovalues: isos})
	gotAny, err := ndp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := gotAny.(*contour.Mesh)

	if !got.Equal(want) {
		t.Fatalf("NDP mesh (%d tris) != baseline mesh (%d tris)",
			got.NumTriangles(), want.NumTriangles())
	}
	if src.Stats["d"] == nil || src.Stats["d"].PayloadBytes == 0 {
		t.Error("NDPSource recorded no stats")
	}
	if ndp.StageTime(pipeline.SourceStageName) <= 0 {
		t.Error("no source stage time")
	}
}

func TestNDPSourceValidation(t *testing.T) {
	src := &NDPSource{}
	if _, err := src.Execute(context.Background(), nil); err == nil {
		t.Error("nil client accepted")
	}
	client, _ := startNDP(t, compress.None)
	src = &NDPSource{Client: client, Path: "run/ts0.vnd"}
	if _, err := src.Execute(context.Background(), nil); err == nil {
		t.Error("no arrays accepted")
	}
}

func TestNDPFetchRangeMatchesLocal(t *testing.T) {
	client, ds := startNDP(t, compress.LZ4)
	lo, hi := 6.0, 8.0

	payload, stats, err := client.FetchRange("run/ts0.vnd", "d", lo, hi, EncAuto)
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
	if _, _, err := client.FetchRange("run/ts0.vnd", "d", 5, 2, EncAuto); err == nil {
		t.Error("inverted range accepted")
	}
	if _, _, err := client.FetchRange("run/ts0.vnd", "ghost", 1, 2, EncAuto); err == nil {
		t.Error("unknown array accepted")
	}
}

func TestThresholdPipelineOverNDP(t *testing.T) {
	// Full pipeline composition with the second filter type: NDP range
	// source feeding the ordinary threshold stage.
	client, ds := startNDP(t, compress.None)
	lo, hi := 6.0, 8.0

	payload, _, err := client.FetchRange("run/ts0.vnd", "d", lo, hi, EncAuto)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := payload.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	sparseDS := grid.NewDataset(ds.Grid)
	sparseDS.MustAddField(&grid.Field{Name: "d", Values: vals})

	p := pipeline.New(
		&pipeline.DatasetSource{Dataset: sparseDS},
		&pipeline.ThresholdFilter{Array: "d", Lo: lo, Hi: hi},
	)
	out, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := contour.ThresholdCells(ds.Grid, ds.Field("d").Values, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if !out.(*contour.CellSet).Equal(want) {
		t.Error("pipeline threshold over NDP differs from full-array result")
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
	payload, _, err := client.FetchFiltered("ts0.vnd", "d", []float64{10}, EncAuto)
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
	g2, vals, stats, err := client.FetchSlice("run/ts0.vnd", "d", contour.AxisZ, 5)
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
	// A slice near the sphere centre contours to a circle.
	ls, err := contour.MarchingSquares(g2, vals, []float64{7})
	if err != nil {
		t.Fatal(err)
	}
	if ls.NumSegments() == 0 {
		t.Error("no contour on fetched slice")
	}
}

func TestNDPFetchSliceErrors(t *testing.T) {
	client, _ := startNDP(t, compress.None)
	if _, _, _, err := client.FetchSlice("run/ts0.vnd", "d", contour.AxisZ, 99); err == nil {
		t.Error("out-of-range slice accepted")
	}
	if _, _, _, err := client.FetchSlice("run/ts0.vnd", "ghost", contour.AxisX, 0); err == nil {
		t.Error("unknown array accepted")
	}
}

func TestNDPSourceConcurrentArrays(t *testing.T) {
	// Both arrays fetched concurrently must land intact and in order.
	client, ds := startNDP(t, compress.None)
	src := &NDPSource{
		Client:    client,
		Path:      "run/ts0.vnd",
		Arrays:    []string{"d", "extra"},
		Isovalues: []float64{7},
	}
	out, err := src.Execute(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	got := out.(*grid.Dataset)
	names := got.FieldNames()
	if len(names) != 2 || names[0] != "d" || names[1] != "extra" {
		t.Fatalf("field order = %v", names)
	}
	if src.Stats["d"] == nil || src.Stats["extra"] == nil {
		t.Error("missing per-array stats")
	}
	// Selected values of "d" match the source data.
	mask, err := contour.SelectCellCorners(ds.Grid, ds.Field("d").Values, []float64{7})
	if err != nil {
		t.Fatal(err)
	}
	vals := got.Field("d").Values
	mask.ForEach(func(i int) {
		if vals[i] != ds.Field("d").Values[i] {
			t.Fatalf("selected value %d mismatch", i)
		}
	})
}
