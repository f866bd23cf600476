package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"vizndp/internal/compress"
	"vizndp/internal/grid"
	"vizndp/internal/rpc"
	"vizndp/internal/telemetry"
	"vizndp/internal/vtkio"
)

// writeChecksummedFile writes ds as a checksum-bearing .vnd under dir
// and returns its absolute path and store-relative path.
func writeChecksummedFile(t *testing.T, dir string, ds *grid.Dataset) (abs, rel string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Join(dir, "run"), 0o755); err != nil {
		t.Fatal(err)
	}
	abs = filepath.Join(dir, "run", "ts0.vnd")
	if err := vtkio.WriteFile(abs, ds, vtkio.WriteOptions{Codec: compress.None, Checksum: true}); err != nil {
		t.Fatal(err)
	}
	return abs, "run/ts0.vnd"
}

// flipByteInArray flips one bit inside the named array's stored extent
// of the .vnd file at path.
func flipByteInArray(t *testing.T, path, array string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := vtkio.OpenReader(newSliceReaderAt(data))
	if err != nil {
		t.Fatal(err)
	}
	info := r.Header().Array(array)
	if info == nil {
		t.Fatalf("no array %q", array)
	}
	data[info.Offset+info.CompressedSize()/2] ^= 0x04
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

type sliceReaderAt []byte

func newSliceReaderAt(b []byte) sliceReaderAt { return sliceReaderAt(b) }

func (s sliceReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || off >= int64(len(s)) {
		return 0, errors.New("out of range")
	}
	n := copy(p, s[off:])
	if n < len(p) {
		return n, errors.New("short")
	}
	return n, nil
}

// startServer serves dir over loopback with the given options.
func startServer(t *testing.T, dir string, opts ...ServerOption) (*Server, string) {
	t.Helper()
	srv := NewServer(os.DirFS(dir), opts...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	return srv, ln.Addr().String()
}

func TestFetchCorruptBrickReturnsErrCorrupt(t *testing.T) {
	g, f := sphereField(16)
	ds := grid.NewDataset(g)
	ds.MustAddField(f)
	dir := t.TempDir()
	abs, rel := writeChecksummedFile(t, dir, ds)
	flipByteInArray(t, abs, f.Name)

	_, addr := startServer(t, dir)
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	corrupt0 := mFetchCorrupt.Value()
	_, _, err = c.FetchFilteredContext(context.Background(), rel, f.Name, []float64{5}, EncIndexValue)
	if !errors.Is(err, rpc.ErrCorrupt) {
		t.Fatalf("fetch of corrupt file err = %v, want ErrCorrupt", err)
	}
	if _, _, err := c.FetchRawContext(context.Background(), rel, f.Name); !errors.Is(err, rpc.ErrCorrupt) {
		t.Fatalf("raw fetch of corrupt file err = %v, want ErrCorrupt", err)
	}
	if mFetchCorrupt.Value() == corrupt0 {
		t.Error("ndp.fetch.corrupt did not advance")
	}
}

// TestFetchCorruptHeaderReturnsErrCorrupt: a header the store damaged is
// as corrupt as a damaged array. Its JSON no longer parses, and the
// fetch and the describe say ErrCorrupt, so a fault-tolerant client
// re-reads from a sibling instead of surfacing a parse error.
func TestFetchCorruptHeaderReturnsErrCorrupt(t *testing.T) {
	g, f := sphereField(16)
	ds := grid.NewDataset(g)
	ds.MustAddField(f)
	dir := t.TempDir()
	abs, rel := writeChecksummedFile(t, dir, ds)
	data, err := os.ReadFile(abs)
	if err != nil {
		t.Fatal(err)
	}
	data[len(vtkio.Magic)+4] ^= 0x01 // the header's opening brace
	if err := os.WriteFile(abs, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, addr := startServer(t, dir)
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.FetchFilteredContext(context.Background(), rel, f.Name, []float64{5}, EncIndexValue); !errors.Is(err, rpc.ErrCorrupt) {
		t.Fatalf("fetch of a file with a damaged header err = %v, want ErrCorrupt", err)
	}
	if _, err := c.Describe(rel); !errors.Is(err, rpc.ErrCorrupt) {
		t.Fatalf("describe of a file with a damaged header err = %v, want ErrCorrupt", err)
	}
}

func TestCorruptLoadNeverCached(t *testing.T) {
	g, f := sphereField(16)
	ds := grid.NewDataset(g)
	ds.MustAddField(f)
	dir := t.TempDir()
	abs, rel := writeChecksummedFile(t, dir, ds)
	clean, err := os.ReadFile(abs)
	if err != nil {
		t.Fatal(err)
	}
	flipByteInArray(t, abs, f.Name)

	srv, addr := startServer(t, dir, WithCacheBytes(16<<20))
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 3; i++ {
		if _, _, err := c.FetchFilteredContext(context.Background(), rel, f.Name, []float64{5}, EncIndexValue); !errors.Is(err, rpc.ErrCorrupt) {
			t.Fatalf("fetch %d err = %v, want ErrCorrupt", i, err)
		}
	}
	if n := srv.Cache().Len(); n != 0 {
		t.Fatalf("cache holds %d entries after corrupt loads, want 0", n)
	}
	// Restoring the clean bytes heals the path immediately: nothing
	// stale or poisoned survives in the cache.
	if err := os.WriteFile(abs, clean, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.FetchFilteredContext(context.Background(), rel, f.Name, []float64{5}, EncIndexValue); err != nil {
		t.Fatalf("fetch after restore: %v", err)
	}
	if n := srv.Cache().Len(); n != 1 {
		t.Fatalf("cache holds %d entries after clean load, want 1", n)
	}
}

func TestInvalidatePathEvictsResidentEntries(t *testing.T) {
	g, f := sphereField(16)
	ds := grid.NewDataset(g)
	ds.MustAddField(f)
	dir := t.TempDir()
	abs, rel := writeChecksummedFile(t, dir, ds)

	srv, addr := startServer(t, dir, WithCacheBytes(16<<20))
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Warm the cache from the clean file, then corrupt the file on disk:
	// the next MISS (forced by the changed version) detects corruption
	// and must also evict the stale resident entry for the path.
	if _, _, err := c.FetchFilteredContext(context.Background(), rel, f.Name, []float64{5}, EncIndexValue); err != nil {
		t.Fatal(err)
	}
	if n := srv.Cache().Len(); n != 1 {
		t.Fatalf("cache holds %d entries, want 1", n)
	}
	flipByteInArray(t, abs, f.Name)
	if _, _, err := c.FetchFilteredContext(context.Background(), rel, f.Name, []float64{5}, EncIndexValue); !errors.Is(err, rpc.ErrCorrupt) {
		t.Fatalf("fetch after corruption err = %v, want ErrCorrupt", err)
	}
	if n := srv.Cache().Len(); n != 0 {
		t.Fatalf("cache holds %d entries after corruption detected, want 0", n)
	}
}

// scrubDataset writes a single-step bricked layout (bricks beside the
// manifest) with page checksums, and returns the manifest path and the
// brick object paths.
func scrubDataset(t *testing.T, dir string) (manifestPath string, brickPaths []string) {
	t.Helper()
	g, f := sphereField(12)
	ds := grid.NewDataset(g)
	ds.MustAddField(f)
	spec := grid.BrickSpec{NX: 2, NY: 2, NZ: 1, Ghost: 1}
	sub := filepath.Join(dir, "integrity")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	bricks, err := spec.Bricks(g.Dims)
	if err != nil {
		t.Fatal(err)
	}
	man, err := vtkio.BuildManifest(g, spec, ds.FieldNames())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bricks {
		bds, err := grid.ExtractBrick(ds, b)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(sub, vtkio.BrickKey(b.ID))
		if err := vtkio.WriteFile(p, bds, vtkio.WriteOptions{Codec: compress.LZ4, Checksum: true}); err != nil {
			t.Fatal(err)
		}
		brickPaths = append(brickPaths, p)
	}
	data, err := vtkio.EncodeManifest(man)
	if err != nil {
		t.Fatal(err)
	}
	manifestPath = filepath.Join(sub, "manifest.json")
	if err := os.WriteFile(manifestPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return manifestPath, brickPaths
}

func TestScrubberQuarantinesCorruptBricks(t *testing.T) {
	dir := t.TempDir()
	_, brickPaths := scrubDataset(t, dir)

	sc := NewScrubber(os.DirFS(dir), "integrity/manifest.json")
	rep, err := sc.RunOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != 0 || rep.Scanned != len(brickPaths) {
		t.Fatalf("clean pass = %+v, want %d scanned and 0 corrupt", rep, len(brickPaths))
	}

	// Plant damage: flip a byte inside two bricks' array extents.
	for _, p := range brickPaths[:2] {
		flipByteInArray(t, p, "d")
	}
	scanned0 := mScrubScanned.Value()
	rep, err = sc.RunOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != 2 || rep.Quarantined != 2 {
		t.Fatalf("corrupt pass = %+v, want 2 corrupt, 2 quarantined", rep)
	}
	if mScrubScanned.Value()-scanned0 != int64(rep.Scanned) {
		t.Error("core.scrub.scanned does not reconcile with the report")
	}
	for _, p := range brickPaths[:2] {
		rel, _ := filepath.Rel(dir, p)
		if sc.Quarantined(filepath.ToSlash(rel)) == "" {
			t.Errorf("%s not quarantined", rel)
		}
	}
	if sc.Quarantined("integrity/"+filepath.Base(brickPaths[2])) != "" {
		t.Error("intact brick was quarantined")
	}

	// A third pass skips the quarantined objects instead of re-reading
	// known-bad bytes.
	rep, err = sc.RunOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != 0 || rep.Quarantined != 0 || rep.Skipped < 2 {
		t.Fatalf("post-quarantine pass = %+v, want 0 corrupt and >= 2 skipped", rep)
	}

	st := sc.Status()
	if st.Passes != 3 || len(st.Quarantined) != 2 {
		t.Fatalf("status = %+v, want 3 passes and 2 quarantined", st)
	}
}

// TestScrubberRecordsFlightEvents holds the scrub.pass wide event to the
// pass's report: an operator reading the flight ring must see the same
// corrupt and quarantined counts the scrubber acted on.
func TestScrubberRecordsFlightEvents(t *testing.T) {
	dir := t.TempDir()
	_, brickPaths := scrubDataset(t, dir)
	for _, p := range brickPaths[:2] {
		flipByteInArray(t, p, "d")
	}
	sc := NewScrubber(os.DirFS(dir), "integrity/manifest.json")
	rec := telemetry.DefaultFlightRecorder()
	seq0 := rec.Seq()
	rep, err := sc.RunOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != 2 || rep.Quarantined != 2 {
		t.Fatalf("pass = %+v, want 2 corrupt, 2 quarantined", rep)
	}
	evs := rec.Events(telemetry.EventFilter{Method: "scrub.pass", SinceSeq: seq0})
	if len(evs) != 1 {
		t.Fatalf("flight recorder holds %d scrub.pass events for one pass, want 1", len(evs))
	}
	for attr, want := range map[string]int{"scanned": rep.Scanned, "corrupt": rep.Corrupt, "quarantined": rep.Quarantined} {
		if got := evs[0].Attrs[attr]; got != want {
			t.Errorf("scrub.pass %s = %v, report says %d", attr, got, want)
		}
	}
}

func TestQuarantinedPathRejectedAtFetch(t *testing.T) {
	dir := t.TempDir()
	_, brickPaths := scrubDataset(t, dir)
	flipByteInArray(t, brickPaths[0], "d")

	sc := NewScrubber(os.DirFS(dir), "integrity/manifest.json")
	if _, err := sc.RunOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, dir, WithScrubber(sc))
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	bad := "integrity/" + filepath.Base(brickPaths[0])
	if _, _, err := c.FetchFilteredContext(context.Background(), bad, "d", []float64{5}, EncIndexValue); !errors.Is(err, rpc.ErrCorrupt) {
		t.Fatalf("quarantined fetch err = %v, want ErrCorrupt", err)
	}
	if _, err := c.Describe(bad); !errors.Is(err, rpc.ErrCorrupt) {
		t.Fatalf("quarantined describe err = %v, want ErrCorrupt", err)
	}
	// Clean siblings stay servable.
	good := "integrity/" + filepath.Base(brickPaths[1])
	if _, _, err := c.FetchFilteredContext(context.Background(), good, "d", []float64{5}, EncIndexValue); err != nil {
		t.Fatalf("clean sibling fetch: %v", err)
	}
}

// TestScrubberBackgroundLoop drives the loop ndpserver -scrub-interval
// starts: a brick damaged after the server came up is quarantined by a
// later pass, with no RunOnce call, and from then on its fetches fail
// rpc.ErrCorrupt while a clean sibling still serves. Stop returns, and
// Start(0) starts nothing.
func TestScrubberBackgroundLoop(t *testing.T) {
	dir := t.TempDir()
	_, brickPaths := scrubDataset(t, dir)
	flipByteInArray(t, brickPaths[0], "d")
	sc := NewScrubber(os.DirFS(dir), "integrity/manifest.json")
	_, addr := startServer(t, dir, WithScrubber(sc))

	bad := "integrity/" + filepath.Base(brickPaths[0])
	quarantined0 := mScrubQuarantined.Value()
	sc.Start(5 * time.Millisecond)
	deadline := time.After(30 * time.Second)
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for mScrubQuarantined.Value() == quarantined0 {
		select {
		case <-deadline:
			sc.Stop()
			t.Fatalf("core.scrub.quarantined still %d after 30s of a 5ms loop", quarantined0)
		case <-tick.C:
		}
	}
	if sc.Quarantined(bad) == "" {
		t.Errorf("the loop quarantined something, but not %s: %v", bad, sc.Status().Quarantined)
	}

	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.FetchFilteredContext(context.Background(), bad, "d", []float64{5}, EncIndexValue); !errors.Is(err, rpc.ErrCorrupt) {
		t.Errorf("fetch of the brick the loop quarantined: err = %v, want ErrCorrupt", err)
	}
	good := "integrity/" + filepath.Base(brickPaths[1])
	if _, _, err := c.FetchFilteredContext(context.Background(), good, "d", []float64{5}, EncIndexValue); err != nil {
		t.Errorf("clean sibling fetch: %v", err)
	}

	stopped := make(chan struct{})
	go func() {
		sc.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(30 * time.Second):
		t.Fatal("Stop did not return")
	}
	passes := sc.Status().Passes
	if passes == 0 {
		t.Error("the loop ran no pass")
	}

	idle := NewScrubber(os.DirFS(dir), "integrity/manifest.json")
	idle.Start(0)
	if idle.stop != nil {
		t.Error("Start(0) started a loop")
	}
	idle.Stop() // no loop: returns at once
	if got := sc.Status().Passes; got != passes {
		t.Errorf("%d passes after Stop returned, want the %d before", got, passes)
	}
}

func TestPoolCountsCorruptionWithoutTrippingBreaker(t *testing.T) {
	g, f := sphereField(16)
	ds := grid.NewDataset(g)
	ds.MustAddField(f)
	dir := t.TempDir()
	abs, rel := writeChecksummedFile(t, dir, ds)
	flipByteInArray(t, abs, f.Name)

	_, addr := startServer(t, dir)
	pc := DialFaultTolerant([]string{addr}, nil, rpc.ReconnectOptions{
		MaxAttempts:      3,
		BreakerThreshold: 2,
	})
	defer pc.Close()

	// The counters live with the retrying caller in internal/rpc; the
	// registry hands back the same ones by name.
	mPoolBreakerOpen := telemetry.Default().Counter("core.pool.breaker.open")
	mPoolCorruptions := telemetry.Default().Counter("core.pool.corruptions")
	open0 := mPoolBreakerOpen.Value()
	corr0 := mPoolCorruptions.Value()
	if _, _, err := pc.FetchFilteredContext(context.Background(), rel, f.Name, []float64{5}, EncIndexValue); !errors.Is(err, rpc.ErrCorrupt) {
		t.Fatalf("pool fetch err = %v, want ErrCorrupt", err)
	}
	if d := mPoolCorruptions.Value() - corr0; d < 3 {
		t.Errorf("core.pool.corruptions advanced by %d, want >= 3 (one per attempt)", d)
	}
	if d := mPoolBreakerOpen.Value() - open0; d != 0 {
		t.Errorf("breaker opened %d times on corrupt data, want 0 (node is healthy)", d)
	}
}

// corruptShardSetup builds a 2-shard deployment over two separate store
// copies of the same bricked dataset — shard 0's copy carries a
// corrupted brick, shard 1's is clean — so repair MUST cross shards.
func corruptShardSetup(t *testing.T) (man *vtkio.Manifest, addrs []string, g *grid.Uniform, f *grid.Field) {
	t.Helper()
	gg, ff := sphereField(16)
	ds := grid.NewDataset(gg)
	ds.MustAddField(ff)
	spec := grid.BrickSpec{NX: 2, NY: 1, NZ: 1, Ghost: 1}

	dirs := []string{t.TempDir(), t.TempDir()}
	for _, dir := range dirs {
		if err := os.MkdirAll(filepath.Join(dir, "run", "ts0"), 0o755); err != nil {
			t.Fatal(err)
		}
		bricks, err := spec.Bricks(gg.Dims)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range bricks {
			sub, err := grid.ExtractBrick(ds, b)
			if err != nil {
				t.Fatal(err)
			}
			p := filepath.Join(dir, "run", "ts0", vtkio.BrickKey(b.ID))
			if err := vtkio.WriteFile(p, sub, vtkio.WriteOptions{Codec: compress.None, Checksum: true}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Damage brick 0 only in shard 0's copy.
	flipByteInArray(t, filepath.Join(dirs[0], "run", "ts0", vtkio.BrickKey(0)), "d")

	// Brick 0 homes on shard 0, the damaged copy.
	man, err := vtkio.BuildManifest(gg, spec, ds.FieldNames())
	if err != nil {
		t.Fatal(err)
	}
	addrs = make([]string, 2)
	for i, dir := range dirs {
		_, addrs[i] = startServer(t, dir, WithShardName(fmt.Sprintf("shard%d", i)))
	}
	return man, addrs, gg, ff
}

// TestShardedReadRepairFromSibling: a brick whose home returns corrupt
// data is re-read from a sibling shard by the one client's retry loop,
// which walks on from the home, with the corruption counted and the
// breaker left alone.
func TestShardedReadRepairFromSibling(t *testing.T) {
	man, addrs, g, f := corruptShardSetup(t)
	client := DialFaultTolerant(addrs, nil, rpc.ReconnectOptions{})
	defer client.Close()

	reg := telemetry.Default()
	corrupt, failovers := reg.Counter("core.pool.corruptions"), reg.Counter("core.pool.failovers")
	trips, fallbacks := reg.Counter("core.pool.breaker.open"), reg.Counter("core.client.fallbacks")
	corr0, fail0, trips0, fb0 := corrupt.Value(), failovers.Value(), trips.Value(), fallbacks.Value()
	isos := []float64{5, 9.5}
	got, _, err := client.FetchBricksContext(t.Context(), man, "run/ts0/", "d", isos, EncIndexValue)
	if err != nil {
		t.Fatalf("gather with corrupt owner: %v", err)
	}
	if d := corrupt.Value() - corr0; d == 0 {
		t.Error("core.pool.corruptions did not advance")
	}
	if d := failovers.Value() - fail0; d == 0 {
		t.Error("core.pool.failovers did not advance: the corrupt brick was not re-read from the sibling")
	}
	if d := trips.Value() - trips0; d != 0 {
		t.Errorf("corrupt data tripped %d breakers, want 0", d)
	}
	if d := fallbacks.Value() - fb0; d != 0 {
		t.Errorf("%d bricks fell back to a raw transfer, want 0 (the sibling's copy is clean)", d)
	}
	// The repaired gather is still the unsharded payload, byte for byte.
	pre := &PreFilter{Isovalues: isos, Encoding: EncIndexValue}
	p, _, err := pre.Run(g, f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, p.Data) {
		t.Fatal("repaired gather differs from the unsharded payload")
	}
}

func TestShardedGatherRejectsWrongPointCount(t *testing.T) {
	// A brick object replaced by one with the wrong extent decodes
	// cleanly but yields the wrong point count; the gather must fail
	// loudly instead of stitching a malformed field.
	g, f := sphereField(16)
	ds := grid.NewDataset(g)
	ds.MustAddField(f)
	spec := grid.BrickSpec{NX: 2, NY: 1, NZ: 1, Ghost: 1}
	dir := t.TempDir()
	man := writeBricks(t, dir, "run/ts0", ds, spec)

	// Overwrite brick 1 with a brick extracted under a FINER bricking:
	// same key, valid file, fewer points than the manifest extent.
	fine := grid.BrickSpec{NX: 4, NY: 1, NZ: 1, Ghost: 0}
	fineBricks, err := fine.Bricks(g.Dims)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := grid.ExtractBrick(ds, fineBricks[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := vtkio.WriteFile(filepath.Join(dir, "run", "ts0", vtkio.BrickKey(1)), sub,
		vtkio.WriteOptions{Codec: compress.None}); err != nil {
		t.Fatal(err)
	}

	addrs := startShards(t, dir, 2)
	client := DialFaultTolerant(addrs, nil, rpc.ReconnectOptions{})
	defer client.Close()
	_, _, err = client.FetchBricksContext(t.Context(), man, "run/ts0/", "d", []float64{5}, EncIndexValue)
	if err == nil {
		t.Fatal("wrong-point-count brick merged silently")
	}
}

func TestClientVerifiesResponseCRC(t *testing.T) {
	// A response whose recorded CRC disagrees with the bytes must decode
	// to ErrCorrupt before the payload decoder ever runs.
	g, f := sphereField(12)
	pre := &PreFilter{Isovalues: []float64{5}, Encoding: EncIndexValue}
	payload, st, err := pre.Run(g, f)
	if err != nil {
		t.Fatal(err)
	}
	m := map[string]any{
		"payload":  payload.Data,
		"readns":   int64(0),
		"filterns": int64(st.FilterTime),
		"rawbytes": st.RawBytes,
		"selected": int64(st.SelectedPoints),
		"crc":      int64(vtkio.Checksum(payload.Data) ^ 1),
	}
	if _, _, err := decodeFetchResult(m, 0); !errors.Is(err, rpc.ErrCorrupt) {
		t.Fatalf("mismatched crc err = %v, want ErrCorrupt", err)
	}
	// A crc field a flipped type byte turned into another type is damage
	// in flight too.
	m["crc"] = []any{int64(1)}
	if _, _, err := decodeFetchResult(m, 0); !errors.Is(err, rpc.ErrCorrupt) {
		t.Fatalf("non-integer crc err = %v, want ErrCorrupt", err)
	}
	// Matching CRC and absent CRC (old server) both pass.
	m["crc"] = int64(vtkio.Checksum(payload.Data))
	if _, _, err := decodeFetchResult(m, 0); err != nil {
		t.Fatalf("matching crc err = %v", err)
	}
	delete(m, "crc")
	if _, _, err := decodeFetchResult(m, 0); err != nil {
		t.Fatalf("absent crc err = %v", err)
	}
}
