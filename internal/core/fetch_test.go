package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vizndp/internal/compress"
	"vizndp/internal/contour"
	"vizndp/internal/grid"
	"vizndp/internal/rpc"
	"vizndp/internal/telemetry"
	"vizndp/internal/vtkio"
)

// fetchKind is one row of the tables below: one of the four fetch
// methods (contour twice, with one and with three isovalues), driven
// through the public client, next to the independent reference its
// served bytes must equal.
type fetchKind struct {
	name   string
	method string
	// fetch returns the served bytes, the server's readns and filterns
	// (filterns is -1 for raw, whose reply carries none).
	fetch func(c *Client, path, array string) (data []byte, read, filter time.Duration, err error)
	// want computes the reference bytes from the source data.
	want func(t *testing.T, g *grid.Uniform, f *grid.Field) []byte
	// passes is how many scan passes one request that scans costs.
	passes int64
}

func contourKind(isos ...float64) fetchKind {
	return fetchKind{
		name: fmt.Sprintf("contour%d", len(isos)), method: MethodFetch, passes: int64(len(isos)),
		fetch: func(c *Client, path, array string) ([]byte, time.Duration, time.Duration, error) {
			p, st, err := c.FetchFilteredContext(context.Background(), path, array, isos, EncAuto)
			if err != nil {
				return nil, 0, 0, err
			}
			return p.Data, st.ReadTime, st.FilterTime, nil
		},
		want: func(t *testing.T, g *grid.Uniform, f *grid.Field) []byte {
			p, _, err := (&PreFilter{Isovalues: isos, Encoding: EncAuto}).Run(g, f)
			if err != nil {
				t.Fatal(err)
			}
			return p.Data
		},
	}
}

var fetchKinds = []fetchKind{
	contourKind(7),
	contourKind(6, 7, 9),
	{
		name: "range", method: MethodFetchRange, passes: 1,
		fetch: func(c *Client, path, array string) ([]byte, time.Duration, time.Duration, error) {
			p, st, err := c.FetchRangeContext(context.Background(), path, array, 4, 8, EncAuto)
			if err != nil {
				return nil, 0, 0, err
			}
			return p.Data, st.ReadTime, st.FilterTime, nil
		},
		want: func(t *testing.T, g *grid.Uniform, f *grid.Field) []byte {
			p, _, err := (&RangePreFilter{Lo: 4, Hi: 8, Encoding: EncAuto}).Run(g, f)
			if err != nil {
				t.Fatal(err)
			}
			return p.Data
		},
	},
	{
		name: "slice", method: MethodFetchSlice,
		fetch: func(c *Client, path, array string) ([]byte, time.Duration, time.Duration, error) {
			_, vals, st, err := c.FetchSliceContext(context.Background(), path, array, contour.AxisZ, 5)
			if err != nil {
				return nil, 0, 0, err
			}
			return vtkio.FloatsToBytes(vals), st.ReadTime, st.FilterTime, nil
		},
		want: func(t *testing.T, g *grid.Uniform, f *grid.Field) []byte {
			_, vals, err := contour.ExtractSlice(g, f.Values, contour.AxisZ, 5)
			if err != nil {
				t.Fatal(err)
			}
			return vtkio.FloatsToBytes(vals)
		},
	},
	{
		name: "raw", method: MethodFetchRaw,
		fetch: func(c *Client, path, array string) ([]byte, time.Duration, time.Duration, error) {
			data, read, err := c.FetchRawContext(context.Background(), path, array)
			return data, read, -1, err
		},
		want: func(_ *testing.T, _ *grid.Uniform, f *grid.Field) []byte {
			return vtkio.FloatsToBytes(f.Values)
		},
	},
}

// TestFetchPipelineBitIdentity is the one bit-identity matrix: every
// fetch kind, under every caching configuration, first fetch and repeat,
// serves exactly the bytes the independent reference computes from the
// source data, and reports a read time and a filter time that are zero
// exactly when no read and no scan ran. The WithCoalesce rows pin that
// the shim changes nothing — alone it is "plain" — and go when it does.
func TestFetchPipelineBitIdentity(t *testing.T) {
	configs := []struct {
		name string
		opts []ServerOption
		// On the repeat fetch: does the array come from memory, and is
		// the whole result served from the payload cache?
		warmArray, warmPayload bool
	}{
		{"plain", nil, false, false},
		{"arraycache", []ServerOption{WithCacheBytes(16 << 20)}, true, false},
		{"payloadcache", []ServerOption{WithPayloadCacheBytes(16 << 20)}, false, true},
		{"coalesce", []ServerOption{WithCoalesce(time.Millisecond)}, false, false},
		{"all", []ServerOption{WithCacheBytes(16 << 20), WithPayloadCacheBytes(16 << 20), WithCoalesce(time.Millisecond)}, true, true},
	}
	for _, cfg := range configs {
		for _, k := range fetchKinds {
			t.Run(cfg.name+"/"+k.name, func(t *testing.T) {
				client, ds := startNDPOpts(t, cfg.opts...)
				want := k.want(t, ds.Grid, ds.Field("d"))
				for pass, name := range []string{"first", "repeat"} {
					filtered0 := mFetchFiltSecs.Snapshot().Count
					got, read, filter, err := k.fetch(client, "run/ts0.vnd", "d")
					if err != nil {
						t.Fatalf("%s fetch: %v", name, err)
					}
					if !bytes.Equal(got, want) {
						t.Errorf("%s fetch: served bytes differ from the reference", name)
					}
					scanned := !(pass == 1 && cfg.warmPayload)
					readRan := scanned && !(pass == 1 && cfg.warmArray)
					if (read > 0) != readRan {
						t.Errorf("%s fetch: readns = %v, storage read ran = %v", name, read, readRan)
					}
					if filter >= 0 && (filter > 0) != scanned {
						t.Errorf("%s fetch: filterns = %v, scan ran = %v", name, filter, scanned)
					}
					// A payload-cache hit must not drag the filter-time
					// histogram toward zero.
					if d := mFetchFiltSecs.Snapshot().Count - filtered0; (d == 1) != scanned {
						t.Errorf("%s fetch: ndp.fetch.filter.seconds observed %d times, scan ran = %v", name, d, scanned)
					}
				}
			})
		}
	}
}

// serverEvent waits for the server-side wide event of the one request of
// method recorded after seq0 (the server finishes its event just after
// writing the response).
func serverEvent(t *testing.T, method string, seq0 uint64) telemetry.WideEvent {
	t.Helper()
	var found []telemetry.WideEvent
	waitFor(t, func() bool {
		found = found[:0]
		for _, ev := range telemetry.DefaultFlightRecorder().Events(telemetry.EventFilter{Method: method, SinceSeq: seq0}) {
			if ev.Kind == telemetry.KindServer {
				found = append(found, ev)
			}
		}
		return len(found) == 1
	})
	return found[0]
}

func attrNames(ev telemetry.WideEvent) []string {
	names := make([]string, 0, len(ev.Attrs))
	for k := range ev.Attrs {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// TestFetchPipelineEventsAndCounters pins that the four methods share
// every stage: each stamps the same wide-event attributes and moves the
// same counters, on success and on failure. Before the single pipeline
// the handlers had drifted: fetchslice never stamped the shard,
// fetchrange counted no scan requests or passes and set no selected /
// payloadBytes, fetchraw set no path / array and counted neither
// errors nor fetches. A fetch is counted by its event's outcome and an
// error by the rpc layer's per-method counter.
func TestFetchPipelineEventsAndCounters(t *testing.T) {
	client, _ := startNDPOpts(t, WithShardName("s0"))
	for _, k := range fetchKinds {
		t.Run(k.name, func(t *testing.T) {
			counters := []*telemetry.Counter{mScanRequests, mScanPasses,
				telemetry.Default().Counter("rpc.server.call." + k.method + ".errors")}
			deltas := func(run func()) []int64 {
				before := make([]int64, len(counters))
				for i, c := range counters {
					before[i] = c.Value()
				}
				run()
				out := make([]int64, len(counters))
				for i, c := range counters {
					out[i] = c.Value() - before[i]
				}
				return out
			}
			seq0 := telemetry.DefaultFlightRecorder().Seq()
			got := deltas(func() {
				if _, _, _, err := k.fetch(client, "run/ts0.vnd", "d"); err != nil {
					t.Fatal(err)
				}
			})
			if want := []int64{1, k.passes, 0}; fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("ok fetch: requests/passes/errors moved by %v, want %v", got, want)
			}
			ev := serverEvent(t, k.method, seq0)
			// An uncached load also says how many of the array's chunks it read.
			if got, want := fmt.Sprint(attrNames(ev)), "[array chunks chunksRead path payloadBytes selected shard]"; got != want {
				t.Errorf("ok fetch: event attrs %s, want %s", got, want)
			}
			if ev.Outcome != telemetry.OutcomeOK || ev.Cache != "miss" || ev.Attrs["shard"] != "s0" || ev.Attrs["path"] != "run/ts0.vnd" || ev.Attrs["array"] != "d" {
				t.Errorf("ok fetch: event outcome=%q cache=%q attrs=%v", ev.Outcome, ev.Cache, ev.Attrs)
			}

			seq0 = telemetry.DefaultFlightRecorder().Seq()
			got = deltas(func() {
				if _, _, _, err := k.fetch(client, "run/ts0.vnd", "missing"); err == nil {
					t.Fatal("fetch of a missing array succeeded")
				}
			})
			if want := []int64{1, 0, 1}; fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("failed fetch: requests/passes/errors moved by %v, want %v", got, want)
			}
			ev = serverEvent(t, k.method, seq0)
			if got, want := fmt.Sprint(attrNames(ev)), "[array path shard]"; got != want {
				t.Errorf("failed fetch: event attrs %s, want %s", got, want)
			}
			if ev.Outcome != telemetry.OutcomeError {
				t.Errorf("failed fetch: event outcome %q, want %q", ev.Outcome, telemetry.OutcomeError)
			}
		})
	}
}

// TestFetchPipelineTracedSpans pins what `vizpipe -v` prints: a fetch
// made under a client span imports the server's `serve <method>` span,
// parented under the client's call span in the caller's trace, with a
// child per stage the request ran, and the trace holds it once. A cold
// fetch read and pre-filtered; a payload-cache hit did neither.
func TestFetchPipelineTracedSpans(t *testing.T) {
	client, _ := startNDPOpts(t, WithPayloadCacheBytes(16<<20))
	for _, tc := range []struct {
		name     string
		children bool // serve has read and prefilter children
	}{{"cold", true}, {"hit", false}} {
		ctx, root := telemetry.StartSpan(context.Background(), "test")
		if _, _, err := client.FetchFilteredContext(ctx, "run/ts0.vnd", "d", []float64{7}, EncAuto); err != nil {
			t.Fatal(err)
		}
		root.End()
		var call telemetry.SpanData
		remote := map[string]telemetry.SpanData{}
		serves := 0
		for _, d := range telemetry.DefaultTracer().TraceSpans(root.Trace()) {
			if d.Remote {
				remote[d.Name] = d
			} else if d.Name == "call "+MethodFetch {
				call = d
			}
			if d.Name == "serve "+MethodFetch {
				serves++
			}
		}
		// The server runs in this process, so its spans sit in the ring
		// both where they ran and as the client's imported copies.
		if serves != 1 {
			t.Errorf("%s: trace holds %d serve spans, want one", tc.name, serves)
		}
		serve, ok := remote["serve "+MethodFetch]
		if !ok || call.ID == 0 || serve.Parent != call.ID {
			t.Fatalf("%s: remote serve span %v (parent %x) under call span %x, want one under the call", tc.name, ok, serve.Parent, call.ID)
		}
		for _, name := range []string{"read", "prefilter"} {
			d, ok := remote[name]
			if ok != tc.children || (ok && d.Parent != serve.ID) {
				t.Errorf("%s: %s child present %v (parent %x), want %v under serve %x", tc.name, name, ok, d.Parent, tc.children, serve.ID)
			}
		}
	}
}

// stageNames lists an event's stages in the order they were recorded,
// failing the test unless each began after the one before it ended.
func stageNames(t *testing.T, ev telemetry.WideEvent) []string {
	t.Helper()
	var names []string
	for i, st := range ev.Stages {
		if i > 0 {
			if prev := ev.Stages[i-1]; st.At < prev.At+prev.Dur {
				t.Errorf("stage %s begins before %s ends: %v", st.Name, prev.Name, ev.Stages)
			}
		}
		names = append(names, st.Name)
	}
	return names
}

// TestFetchPipelineStageRecord pins the server's stage record, the one
// measurement of where a fetch's time went. A cold fetch is queued, read,
// pre-filtered, checksummed and written, and those stages account for
// nearly all of the request; a payload-cache hit only probes the version
// and writes; a request that waits on another's flight records the wait
// and none of the flight's stages; and a flight that outlives the request
// that started it records nothing on that request's finished event.
func TestFetchPipelineStageRecord(t *testing.T) {
	t.Run("cold", func(t *testing.T) {
		g, f := sphereField(64)
		ds := grid.NewDataset(g)
		ds.MustAddField(f)
		dir := t.TempDir()
		if err := vtkio.WriteFile(filepath.Join(dir, "ts0.vnd"), ds, vtkio.WriteOptions{Codec: compress.LZ4}); err != nil {
			t.Fatal(err)
		}
		_, addr := startServer(t, dir)
		client, err := Dial(addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		seq0 := telemetry.DefaultFlightRecorder().Seq()
		if _, _, err := client.FetchFilteredContext(context.Background(), "ts0.vnd", f.Name, []float64{7}, EncAuto); err != nil {
			t.Fatal(err)
		}
		ev := serverEvent(t, MethodFetch, seq0)
		if got := fmt.Sprint(stageNames(t, ev)); got != "[queue read prefilter crc write]" {
			t.Errorf("cold fetch stages %s, want [queue read prefilter crc write]", got)
		}
		var sum time.Duration
		for _, st := range ev.Stages {
			sum += st.Dur
		}
		if ms := float64(sum) / float64(time.Millisecond); ms < 0.9*ev.DurMS {
			t.Errorf("stages sum to %.3f ms of the request's %.3f ms, want at least 0.9: %v", ms, ev.DurMS, ev.Stages)
		}
	})

	t.Run("hit", func(t *testing.T) {
		client, _ := startNDPOpts(t, WithPayloadCacheBytes(16<<20))
		for _, want := range []string{"[queue probe read prefilter crc write]", "[queue probe write]"} {
			seq0 := telemetry.DefaultFlightRecorder().Seq()
			if _, _, err := client.FetchFilteredContext(context.Background(), "run/ts0.vnd", "d", []float64{7}, EncAuto); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprint(stageNames(t, serverEvent(t, MethodFetch, seq0))); got != want {
				t.Errorf("stages %s, want %s", got, want)
			}
		}
	})

	// The leader and the follower call serveFetch directly, each under an
	// event of its own, as the rpc layer would give them.
	rec := telemetry.DefaultFlightRecorder()
	seq0 := rec.Seq()
	stagesOf := func(t *testing.T, method string) string {
		t.Helper()
		evs := rec.Events(telemetry.EventFilter{Method: method, SinceSeq: seq0})
		if len(evs) != 1 {
			t.Fatalf("%d %s events, want 1", len(evs), method)
		}
		return fmt.Sprint(stageNames(t, evs[0]))
	}
	t.Run("follower", func(t *testing.T) {
		dir, _ := writeSphereRun(t)
		hold := newHoldFS(dir)
		srv := NewServer(hold, WithPayloadCacheBytes(16<<20))
		t.Cleanup(srv.Close)
		lev, fev := rec.Begin(telemetry.KindServer, "test.stages.leader"), rec.Begin(telemetry.KindServer, "test.stages.follower")
		leader := lead(telemetry.ContextWithEvent(context.Background(), lev), srv, hold, iso7)
		spy := &joinSpy{Context: telemetry.ContextWithEvent(context.Background(), fev), waiting: make(chan struct{})}
		follower := startFetch(spy, srv, iso7)
		<-spy.waiting
		close(hold.release)
		for _, ch := range []chan fetched{leader, follower} {
			if r := <-ch; r.err != nil {
				t.Fatal(r.err)
			}
		}
		lev.Finish(nil)
		fev.Finish(nil)
		if got := stagesOf(t, "test.stages.leader"); got != "[probe read prefilter crc]" {
			t.Errorf("leader stages %s, want [probe read prefilter crc]", got)
		}
		if got := stagesOf(t, "test.stages.follower"); got != "[probe wait]" {
			t.Errorf("follower stages %s, want [probe wait]", got)
		}
	})

	t.Run("orphaned flight", func(t *testing.T) {
		dir, _ := writeSphereRun(t)
		hold := newHoldFS(dir)
		srv := NewServer(hold, WithPayloadCacheBytes(16<<20))
		t.Cleanup(srv.Close)
		ev := rec.Begin(telemetry.KindServer, "test.stages.orphan")
		ctx, cancel := context.WithCancel(telemetry.ContextWithEvent(context.Background(), ev))
		leader := lead(ctx, srv, hold, iso7)
		// The caller gives up and its event is finished while its flight,
		// which others could be waiting on, is still reading.
		cancel()
		ev.Finish(ctx.Err())
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // reads the recorded event while the flight runs on
			defer wg.Done()
			for range 100 {
				rec.Events(telemetry.EventFilter{Method: "test.stages.orphan"})
			}
		}()
		close(hold.release)
		if r := <-leader; r.err != nil {
			t.Fatalf("the orphaned flight ended with %v, want it finished", r.err)
		}
		wg.Wait()
		if got := stagesOf(t, "test.stages.orphan"); got != "[probe]" {
			t.Errorf("orphaned request's stages %s, want only the probe it made before it gave up", got)
		}
	})
}

// statCountFS counts FS-level Stat calls, Opens — the file-version
// probe is one — and the reads made through the files it opened, which a
// fetch served from a cache must not make.
type statCountFS struct {
	fs.FS
	stats, opens, reads atomic.Int64
}

func (c *statCountFS) Stat(name string) (fs.FileInfo, error) {
	c.stats.Add(1)
	return fs.Stat(c.FS, name)
}

func (c *statCountFS) Open(name string) (fs.File, error) {
	c.opens.Add(1)
	f, err := c.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &readCountFile{File: f, ra: f.(io.ReaderAt), reads: &c.reads}, nil
}

// readCountFile counts the ReadAt calls made through an open file.
type readCountFile struct {
	fs.File
	ra    io.ReaderAt
	reads *atomic.Int64
}

func (f *readCountFile) ReadAt(p []byte, off int64) (int, error) {
	f.reads.Add(1)
	return f.ra.ReadAt(p, off)
}

// TestFetchPipelineOneVersionProbe: every request opens the file exactly
// once and never stats it apart, whichever method and however many
// caches consult the version: a server with no cache opens it to load
// (WithCoalesce, which does nothing, included); every other
// configuration opens it to probe the version, and a miss loads through
// that same open. On the storage node's own filesystem — the s3fs rows,
// an s3fs mount of a real object store — that open is one HEAD, the only
// one a fetch makes, and it is all a fetch served from a cache costs the
// store: no GET, and no read through the open file.
func TestFetchPipelineOneVersionProbe(t *testing.T) {
	dir := t.TempDir()
	g, f := sphereField(16)
	ds := grid.NewDataset(g)
	ds.MustAddField(f)
	abs, rel := writeChecksummedFile(t, dir, ds)
	mount, store, heads, gets := countingStore(t)
	if data, err := os.ReadFile(abs); err != nil {
		t.Fatal(err)
	} else if err := store.Put("sim", rel, data); err != nil {
		t.Fatal(err)
	}

	options := []struct {
		name   string
		opt    ServerOption
		caches bool // keys on the file version; serves a repeat fetch without reading
	}{
		{"arraycache", WithCacheBytes(16 << 20), true},
		{"payloadcache", WithPayloadCacheBytes(16 << 20), true},
		{"coalesce", WithCoalesce(time.Millisecond), false},
	}
	backends := []struct {
		name string
		fsys fs.FS
	}{{"plain", os.DirFS(dir)}, {"s3fs", mount}}
	for _, backend := range backends {
		for mask := 0; mask < 1<<len(options); mask++ {
			name, cached := backend.name, false
			var opts []ServerOption
			for i, o := range options {
				if mask&(1<<i) != 0 {
					name += "+" + o.name
					opts = append(opts, o.opt)
					cached = cached || o.caches
				}
			}
			t.Run(name, func(t *testing.T) {
				fsys := &statCountFS{FS: backend.fsys}
				srv := NewServer(fsys, opts...)
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				go srv.Serve(ln)
				t.Cleanup(srv.Close)
				client, err := Dial(ln.Addr().String(), nil)
				if err != nil {
					t.Fatal(err)
				}
				defer client.Close()
				for _, k := range fetchKinds {
					for _, pass := range []string{"first", "repeat"} {
						stats, opens, reads := fsys.stats.Load(), fsys.opens.Load(), fsys.reads.Load()
						heads0, gets0 := heads.Load(), gets.Load()
						if _, _, _, err := k.fetch(client, rel, f.Name); err != nil {
							t.Fatalf("%s %s: %v", k.name, pass, err)
						}
						if s, o := fsys.stats.Load()-stats, fsys.opens.Load()-opens; s != 0 || o != 1 {
							t.Errorf("%s %s fetch: %d Stat calls and %d Opens, want 0 and 1", k.name, pass, s, o)
						}
						h, g := heads.Load()-heads0, gets.Load()-gets0
						if backend.name == "s3fs" && h != 1 {
							t.Errorf("%s %s fetch cost the store %d HEADs, want 1", k.name, pass, h)
						}
						if !cached || pass != "repeat" {
							continue
						}
						if got := fsys.reads.Load() - reads; got != 0 {
							t.Errorf("%s cached fetch: %d reads through the open file, want 0", k.name, got)
						}
						if backend.name == "s3fs" && g != 0 {
							t.Errorf("%s cached fetch cost the store %d GETs, want 0", k.name, g)
						}
					}
				}
			})
		}
	}
}

// TestFetchPipelineQuarantineAheadOfCaches is the regression test for
// the quarantine bypass: bitrot leaves a file's mtime and size alone, so
// the version key of a brick the scrubber has since quarantined still
// matches its resident cache entries. A payload-cache hit used to be
// served without ever reaching the quarantine check, which only the load
// path made. Quarantine now runs ahead of every cache, for every method.
func TestFetchPipelineQuarantineAheadOfCaches(t *testing.T) {
	dir := t.TempDir()
	_, brickPaths := scrubDataset(t, dir)
	sc := NewScrubber(os.DirFS(dir), "integrity/manifest.json")
	_, addr := startServer(t, dir, WithScrubber(sc), WithPayloadCacheBytes(16<<20), WithCacheBytes(16<<20))
	client, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	brick := "integrity/" + filepath.Base(brickPaths[0])
	for _, k := range fetchKinds {
		if _, _, _, err := k.fetch(client, brick, "d"); err != nil {
			t.Fatalf("%s warm-up fetch: %v", k.name, err)
		}
	}
	info, err := os.Stat(brickPaths[0])
	if err != nil {
		t.Fatal(err)
	}
	flipByteInArray(t, brickPaths[0], "d")
	if err := os.Chtimes(brickPaths[0], info.ModTime(), info.ModTime()); err != nil {
		t.Fatal(err)
	}
	if rep, err := sc.RunOnce(context.Background()); err != nil || rep.Quarantined != 1 {
		t.Fatalf("scrub pass = %+v, %v; want 1 quarantined", rep, err)
	}
	for _, k := range fetchKinds {
		if _, _, _, err := k.fetch(client, brick, "d"); !errors.Is(err, rpc.ErrCorrupt) {
			t.Errorf("%s fetch of a quarantined brick: err = %v, want ErrCorrupt", k.name, err)
		}
	}
}
