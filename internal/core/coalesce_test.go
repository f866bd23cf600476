package core

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vizndp/internal/compress"
	"vizndp/internal/grid"
	"vizndp/internal/telemetry"
	"vizndp/internal/vtkio"
)

// writeSphereRun writes the 24-cubed sphere dataset, uncompressed, as
// run/ts0.vnd under a fresh directory.
func writeSphereRun(t *testing.T) (dir string, ds *grid.Dataset) {
	t.Helper()
	g, f := sphereField(24)
	ds = grid.NewDataset(g)
	ds.MustAddField(f)
	dir = t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "run"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := vtkio.WriteFile(filepath.Join(dir, "run", "ts0.vnd"), ds, vtkio.WriteOptions{Codec: compress.None}); err != nil {
		t.Fatal(err)
	}
	return dir, ds
}

// startNDPOpts is startNDP with server options.
func startNDPOpts(t *testing.T, opts ...ServerOption) (*Client, *grid.Dataset) {
	t.Helper()
	dir, ds := writeSphereRun(t)
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
	return client, ds
}

// localPayload computes the ground-truth payload bytes: a dedicated
// PreFilter.Run over the source data.
func localPayload(t *testing.T, ds *grid.Dataset, isos []float64, enc Encoding) []byte {
	t.Helper()
	pre := &PreFilter{Isovalues: isos, Encoding: enc}
	p, _, err := pre.Run(ds.Grid, ds.Field("d"))
	if err != nil {
		t.Fatal(err)
	}
	return p.Data
}

// holdFS holds the first Open until release is closed, so a test can line
// requests up behind a storage read that is in progress. Stat passes
// through: the version probe is not the read.
type holdFS struct {
	fs.FS
	opens            atomic.Int64
	entered, release chan struct{}
}

func newHoldFS(dir string) *holdFS {
	return &holdFS{FS: os.DirFS(dir), entered: make(chan struct{}), release: make(chan struct{})}
}

func (h *holdFS) Stat(name string) (fs.FileInfo, error) { return fs.Stat(h.FS, name) }

func (h *holdFS) Open(name string) (fs.File, error) {
	if h.opens.Add(1) == 1 {
		close(h.entered)
		<-h.release
	}
	return h.FS.Open(name)
}

// joinSpy is a request context that tells when its request begins to wait
// on another's flight: that wait is the only place the pipeline asks a
// context for its Done channel.
type joinSpy struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (j *joinSpy) Done() <-chan struct{} {
	j.once.Do(func() { close(j.waiting) })
	return j.Context.Done()
}

// fetched is one serveFetch call's outcome.
type fetched struct {
	resp map[string]any
	err  error
}

func (f fetched) ns(key string) int64 { return f.resp[key].(int64) }

var iso7 = []any{"run/ts0.vnd", "d", []any{7.0}, "indexvalue"}

// startFetch runs one contour fetch in the background.
func startFetch(ctx context.Context, srv *Server, args []any) chan fetched {
	done := make(chan fetched, 1)
	go func() {
		resp, err := srv.serveFetch(ctx, args, contourSelector)
		r, _ := resp.(map[string]any)
		done <- fetched{r, err}
	}()
	return done
}

// lead starts a fetch and comes back once it is held inside its storage
// read.
func lead(ctx context.Context, srv *Server, hold *holdFS, args []any) chan fetched {
	done := startFetch(ctx, srv, args)
	<-hold.entered
	return done
}

// follow starts a fetch and comes back once it is waiting on a flight
// already in progress.
func follow(srv *Server, args []any) chan fetched {
	spy := &joinSpy{Context: context.Background(), waiting: make(chan struct{})}
	done := startFetch(spy, srv, args)
	<-spy.waiting
	return done
}

// TestCoalesceFlightSharesScan pins the sharing itself, with no timing in
// it: while one request is inside its storage read, every identical
// request that arrives waits on it, and the whole crowd costs one read and
// one scan pass. Each gets the bytes a dedicated PreFilter.Run produces
// and an honest account of what was done for it.
func TestCoalesceFlightSharesScan(t *testing.T) {
	const n = 6
	dir, ds := writeSphereRun(t)
	hold := newHoldFS(dir)
	srv := NewServer(hold, WithCacheBytes(16<<20), WithPayloadCacheBytes(16<<20))
	t.Cleanup(srv.Close)

	// By the names bench/measure.go reads them under.
	counters := []struct {
		name string
		want int64
	}{
		{"core.scan.requests", n}, {"core.scan.passes", 1}, {"core.scan.coalesced", n - 1},
		{"core.payloadcache.hits", 0}, {"core.payloadcache.misses", 1},
	}
	moved := func(name string, since int64) int64 { return telemetry.Default().Counter(name).Value() - since }
	before := make([]int64, len(counters))
	for i, c := range counters {
		before[i] = moved(c.name, 0)
	}

	leader := lead(context.Background(), srv, hold, iso7)
	followers := make([]chan fetched, n-1)
	for i := range followers {
		followers[i] = follow(srv, iso7)
	}
	close(hold.release)

	want := localPayload(t, ds, []float64{7}, EncIndexValue)
	l := <-leader
	if l.err != nil {
		t.Fatal(l.err)
	}
	if !bytes.Equal(l.resp["payload"].([]byte), want) {
		t.Error("leader's payload differs from a dedicated PreFilter.Run")
	}
	if l.ns("readns") <= 0 || l.ns("filterns") <= 0 {
		t.Errorf("leader reports readns %d, filterns %d; it read and scanned", l.ns("readns"), l.ns("filterns"))
	}
	for i, ch := range followers {
		f := <-ch
		if f.err != nil {
			t.Fatalf("follower %d: %v", i, f.err)
		}
		if !bytes.Equal(f.resp["payload"].([]byte), want) {
			t.Errorf("follower %d: payload differs from a dedicated PreFilter.Run", i)
		}
		// It read nothing; it waited on the one select + encode.
		if f.ns("readns") != 0 || f.ns("filterns") != l.ns("filterns") {
			t.Errorf("follower %d reports readns %d, filterns %d; want 0 and the flight's %d",
				i, f.ns("readns"), f.ns("filterns"), l.ns("filterns"))
		}
	}
	if got := hold.opens.Load(); got != 1 {
		t.Errorf("%d storage reads for %d identical requests, want 1", got, n)
	}
	for i, c := range counters {
		if got := moved(c.name, before[i]); got != c.want {
			t.Errorf("%s moved by %d, want %d", c.name, got, c.want)
		}
	}

	// One that arrives after the flight has landed is a hit: no read, no
	// scan, and it says so.
	late := <-startFetch(context.Background(), srv, iso7)
	if late.err != nil {
		t.Fatal(late.err)
	}
	if !bytes.Equal(late.resp["payload"].([]byte), want) || late.ns("readns") != 0 || late.ns("filterns") != 0 {
		t.Errorf("repeat reports readns %d, filterns %d, identical bytes %v; want 0, 0, true",
			late.ns("readns"), late.ns("filterns"), bytes.Equal(late.resp["payload"].([]byte), want))
	}
	if hits, passes := moved("core.payloadcache.hits", before[3]), moved("core.scan.passes", before[1]); hits != 1 || passes != 1 {
		t.Errorf("after the repeat: %d payload-cache hits, %d scan passes; want 1, 1", hits, passes)
	}
}

func TestCoalesceConcurrentBitIdentical(t *testing.T) {
	// The -race bit-identity gate: many concurrent callers, same array,
	// overlapping queries, both caches — so leaders, followers and hits of
	// both flights all occur.
	client, ds := startNDPOpts(t, WithCacheBytes(16<<20), WithPayloadCacheBytes(16<<20))

	isos := [][]float64{{6}, {7}, {8}, {9}, {7, 9}}
	want := make([][]byte, len(isos))
	for i := range isos {
		want[i] = localPayload(t, ds, isos[i], EncAuto)
	}

	const workers = 8
	const rounds = 5
	errs := make(chan error, workers*rounds)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (w + r) % len(isos)
				p, _, err := client.FetchFiltered("run/ts0.vnd", "d", isos[i], EncAuto)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(p.Data, want[i]) {
					t.Errorf("worker %d round %d: payload differs from dedicated run", w, r)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestCoalesceEmptyIsovaluesRejected(t *testing.T) {
	client, _ := startNDPOpts(t, WithPayloadCacheBytes(1<<20))
	if _, _, err := client.FetchFiltered("run/ts0.vnd", "d", nil, EncAuto); err == nil {
		t.Error("empty isovalues accepted on the shared path")
	}
}

// TestCoalesceMissingPathRejected: a flight that fails caches nothing, so
// the next request tries again for itself.
func TestCoalesceMissingPathRejected(t *testing.T) {
	dir, _ := writeSphereRun(t)
	srv := NewServer(os.DirFS(dir), WithCacheBytes(1<<20), WithPayloadCacheBytes(1<<20))
	t.Cleanup(srv.Close)
	misses0 := payloadMetrics.Misses.Value()
	for range 2 {
		_, err := srv.serveFetch(context.Background(), []any{"run/ts0.vnd", "ghost", []any{1.0}}, contourSelector)
		if err == nil {
			t.Fatal("missing array accepted on the shared path")
		}
	}
	if srv.payloads.Len() != 0 || srv.cache.Len() != 0 {
		t.Errorf("failed flights left %d payloads and %d arrays resident", srv.payloads.Len(), srv.cache.Len())
	}
	if got := payloadMetrics.Misses.Value() - misses0; got != 2 {
		t.Errorf("%d flights for 2 failing requests, want 2", got)
	}
	if _, err := srv.serveFetch(context.Background(), []any{"run/ghost.vnd", "d", []any{1.0}}, contourSelector); err == nil {
		t.Error("missing path accepted on the shared path")
	}
}

// TestCoalesceLeaderCancelledMidLoad: a flight never hands a waiter
// someone else's cancellation. The caller that happens to lead gives up
// while its storage read is in progress; a live request waiting on it is
// still served the reference bytes and a nil error — through the payload
// cache's flight, which runs to completion and keeps its result, and
// through the array cache's alone, where the leader's read lands in the
// cache but the leader itself, with nobody able to be waiting on its scan,
// skips it.
func TestCoalesceLeaderCancelledMidLoad(t *testing.T) {
	for _, tc := range []struct {
		name       string
		opts       []ServerOption
		leaderDone bool // the leader's own flight ran to completion
	}{
		{"payloadcache", []ServerOption{WithPayloadCacheBytes(16 << 20)}, true},
		{"both", []ServerOption{WithCacheBytes(16 << 20), WithPayloadCacheBytes(16 << 20)}, true},
		{"arraycache", []ServerOption{WithCacheBytes(16 << 20)}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, ds := writeSphereRun(t)
			hold := newHoldFS(dir)
			srv := NewServer(hold, tc.opts...)
			t.Cleanup(srv.Close)
			passes0 := mScanPasses.Value()

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			leader := lead(ctx, srv, hold, iso7)
			follower := follow(srv, iso7)
			cancel()
			close(hold.release)

			f := <-follower
			if f.err != nil {
				t.Fatalf("live follower was handed %v", f.err)
			}
			if !bytes.Equal(f.resp["payload"].([]byte), localPayload(t, ds, []float64{7}, EncIndexValue)) {
				t.Error("live follower's payload differs from a dedicated PreFilter.Run")
			}
			l := <-leader
			if tc.leaderDone {
				if l.err != nil || srv.payloads.Len() != 1 {
					t.Errorf("the leader's flight ended with %v and %d cached results; want it finished and kept", l.err, srv.payloads.Len())
				}
			} else if !errors.Is(l.err, context.Canceled) {
				t.Errorf("cancelled leader got %v, want its own cancellation", l.err)
			}
			if got := mScanPasses.Value() - passes0; got != 1 {
				t.Errorf("core.scan.passes rose by %d, want 1", got)
			}
			if got := hold.opens.Load(); got != 1 {
				t.Errorf("%d storage reads, want 1", got)
			}
		})
	}
}

// TestCoalesceAbortAllCancelled: on a server with no payload cache nobody
// can be waiting on a request's scan, so a caller that gives up during
// the storage read is not scanned for. (With a payload cache the scan
// runs and its result is kept: TestCoalesceLeaderCancelledMidLoad.)
func TestCoalesceAbortAllCancelled(t *testing.T) {
	dir, _ := writeSphereRun(t)
	hold := newHoldFS(dir)
	srv := NewServer(hold)
	t.Cleanup(srv.Close)
	passes0 := mScanPasses.Value()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	caller := lead(ctx, srv, hold, iso7)
	cancel()
	close(hold.release)
	if r := <-caller; !errors.Is(r.err, context.Canceled) {
		t.Fatalf("cancelled caller got %v, want its cancellation", r.err)
	}
	if got := mScanPasses.Value() - passes0; got != 0 {
		t.Errorf("core.scan.passes rose by %d, want 0 (no scan for an empty room)", got)
	}
}

// waitFor polls cond for up to ~2s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}
