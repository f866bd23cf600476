package core

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"vizndp/internal/compress"
	"vizndp/internal/grid"
	"vizndp/internal/telemetry"
	"vizndp/internal/vtkio"
)

// startCachedNDP serves a sphere dataset with an array cache enabled and
// returns the client, the server, and the dataset file path on disk.
func startCachedNDP(t *testing.T, codec compress.Kind, cacheBytes int64) (*Client, *Server, string) {
	t.Helper()
	g, f := sphereField(24)
	ds := grid.NewDataset(g)
	ds.MustAddField(f)

	dir := t.TempDir()
	path := filepath.Join(dir, "ts0.vnd")
	if err := vtkio.WriteFile(path, ds, vtkio.WriteOptions{Codec: codec}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(os.DirFS(dir), WithCacheBytes(cacheBytes))
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
	return client, srv, path
}

// TestCacheHitReportsZeroRead checks the FetchStats honesty contract:
// a warm fetch reports (near-)zero server read time, and hit counters
// move in the default registry.
func TestCacheHitReportsZeroRead(t *testing.T) {
	client, srv, _ := startCachedNDP(t, compress.Gzip, 64<<20)
	hits := telemetry.Default().Counter("arraycache.hits")
	misses := telemetry.Default().Counter("arraycache.misses")
	hits0, misses0 := hits.Value(), misses.Value()

	_, cold, err := client.FetchFiltered("ts0.vnd", "d", []float64{7}, EncAuto)
	if err != nil {
		t.Fatal(err)
	}
	if cold.ReadTime <= 0 {
		t.Errorf("cold fetch read time = %v, want > 0", cold.ReadTime)
	}
	_, warm, err := client.FetchFiltered("ts0.vnd", "d", []float64{5}, EncAuto)
	if err != nil {
		t.Fatal(err)
	}
	// A hit's "read" is an in-memory map lookup; allow a loose bound to
	// stay robust on slow CI machines while still distinguishing it from
	// an actual storage read + gzip decompression.
	if warm.ReadTime > cold.ReadTime/2+time.Millisecond {
		t.Errorf("warm read time %v not ≈0 (cold was %v)", warm.ReadTime, cold.ReadTime)
	}
	if misses.Value() <= misses0 {
		t.Error("no cache miss counted")
	}
	if hits.Value() <= hits0 {
		t.Error("no cache hit counted")
	}
	if srv.Cache().Len() != 1 {
		t.Errorf("cache entries = %d, want 1", srv.Cache().Len())
	}
	if srv.Cache().Resident() != int64(4*24*24*24) {
		t.Errorf("resident = %d, want %d", srv.Cache().Resident(), 4*24*24*24)
	}
}

// TestCacheInvalidatesOnRewrite verifies the (path, array, version) key:
// rewriting the dataset file changes mtime/size, so the next fetch reads
// the new contents instead of serving the stale entry.
func TestCacheInvalidatesOnRewrite(t *testing.T) {
	client, _, path := startCachedNDP(t, compress.None, 64<<20)
	raw1, _, err := client.FetchRaw("ts0.vnd", "d")
	if err != nil {
		t.Fatal(err)
	}

	// Rewrite the file with different values (and nudge mtime well past
	// filesystem timestamp granularity).
	g, f := sphereField(24)
	for i := range f.Values {
		f.Values[i] *= 2
	}
	ds := grid.NewDataset(g)
	ds.MustAddField(f)
	if err := vtkio.WriteFile(path, ds, vtkio.WriteOptions{Codec: compress.None}); err != nil {
		t.Fatal(err)
	}
	later := time.Now().Add(2 * time.Second)
	if err := os.Chtimes(path, later, later); err != nil {
		t.Fatal(err)
	}

	raw2, _, err := client.FetchRaw("ts0.vnd", "d")
	if err != nil {
		t.Fatal(err)
	}
	if string(raw1) == string(raw2) {
		t.Error("rewritten file served from stale cache entry")
	}
	want := vtkio.FloatsToBytes(f.Values)
	if string(raw2) != string(want) {
		t.Error("post-rewrite fetch returned wrong contents")
	}
}

// TestCacheSingleFlightOverRPC drives many concurrent cold fetches of
// one array and checks the server performed exactly one storage load.
func TestCacheSingleFlightOverRPC(t *testing.T) {
	client, srv, _ := startCachedNDP(t, compress.LZ4, 64<<20)
	misses := telemetry.Default().Counter("arraycache.misses")
	misses0 := misses.Value()

	const n = 12
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = client.FetchFiltered("ts0.vnd", "d",
				[]float64{float64(i%3) + 5}, EncAuto)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
	}
	if got := misses.Value() - misses0; got != 1 {
		t.Errorf("storage loads = %d, want exactly 1 (single-flight)", got)
	}
	if srv.Cache().Len() != 1 {
		t.Errorf("cache entries = %d, want 1", srv.Cache().Len())
	}
}

// TestCacheMultiFanOut drives FetchFilteredMultiContext against a cached
// server: results come back in request order, per-request errors don't
// poison the batch, and the shared array still loads from storage once.
func TestCacheMultiFanOut(t *testing.T) {
	client, srv, _ := startCachedNDP(t, compress.Gzip, 64<<20)
	misses := telemetry.Default().Counter("arraycache.misses")
	misses0 := misses.Value()

	reqs := make([]MultiRequest, 0, 9)
	for i := 0; i < 8; i++ {
		reqs = append(reqs, MultiRequest{
			Path: "ts0.vnd", Array: "d",
			Isovalues: []float64{float64(i%4) + 4}, Encoding: EncAuto,
		})
	}
	reqs = append(reqs, MultiRequest{Path: "ts0.vnd", Array: "missing", Isovalues: []float64{5}})

	results := client.FetchFilteredMultiContext(context.Background(), reqs)
	if len(results) != len(reqs) {
		t.Fatalf("results = %d, want %d", len(results), len(reqs))
	}
	for i := 0; i < 8; i++ {
		if results[i].Err != nil {
			t.Fatalf("request %d: %v", i, results[i].Err)
		}
		// Order check: each result matches a sequential fetch of the same
		// isovalue.
		want, _, err := client.FetchFiltered("ts0.vnd", "d", reqs[i].Isovalues, EncAuto)
		if err != nil {
			t.Fatal(err)
		}
		if string(results[i].Payload.Data) != string(want.Data) {
			t.Errorf("request %d payload out of order or corrupt", i)
		}
	}
	if results[8].Err == nil {
		t.Error("fetch of missing array did not report an error")
	}
	// Two misses: one real load of "d" (the other seven coalesced or
	// hit) plus the failed "missing" load, which is a miss that caches
	// nothing.
	if got := misses.Value() - misses0; got != 2 {
		t.Errorf("storage loads = %d, want 2 (fan-out coalesced)", got)
	}
	if srv.Cache().Len() != 1 {
		t.Errorf("cache entries = %d, want 1", srv.Cache().Len())
	}
}

// TestCacheDisabledByDefault: a server built without the option keeps
// no cache object, so every fetch reads storage.
func TestCacheDisabledByDefault(t *testing.T) {
	srv := NewServer(os.DirFS(t.TempDir()))
	if srv.Cache() != nil {
		t.Error("cache enabled without WithCacheBytes")
	}
	srv2 := NewServer(os.DirFS(t.TempDir()), WithCacheBytes(0))
	if srv2.Cache() != nil {
		t.Error("WithCacheBytes(0) enabled a cache")
	}
}

// TestRecorderAddsNoAllocations is the deterministic stand-in for the
// harness's BenchmarkRecorderOverhead, whose 5% timing gate runs alone:
// a warm cached fetch allocates no more with the flight recorder on
// than with it off.
func TestRecorderAddsNoAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool discards items at random under the race detector")
	}
	// A collection empties sync.Pool, and when one happens is up to
	// whatever else the test binary is doing.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	client, _, _ := startCachedNDP(t, compress.None, 64<<20)
	rec := telemetry.DefaultFlightRecorder()
	defer rec.SetEnabled(rec.Enabled())
	fetch := func() {
		if _, _, err := client.FetchFiltered("ts0.vnd", "d", []float64{7}, EncAuto); err != nil {
			t.Fatal(err)
		}
	}
	fetch() // warm the array cache
	allocs := func(on bool) float64 {
		rec.SetEnabled(on)
		return testing.AllocsPerRun(100, fetch)
	}
	off, on := allocs(false), allocs(true)
	t.Logf("allocations per warm fetch: %.1f recorder on, %.1f off", on, off)
	if on > off {
		t.Errorf("a warm fetch allocates %.1f times with the recorder on, %.1f with it off", on, off)
	}
}
