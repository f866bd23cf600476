package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"vizndp/internal/compress"
	"vizndp/internal/telemetry"
)

// flakyCaller fails the configured methods and delegates the rest —
// a transport that can reach the server for everything but those calls.
type flakyCaller struct {
	inner Caller
	fail  map[string]error
	calls map[string]int
	mu    sync.Mutex
}

func (f *flakyCaller) CallContext(ctx context.Context, method string, args ...any) (any, error) {
	f.mu.Lock()
	if f.calls == nil {
		f.calls = make(map[string]int)
	}
	f.calls[method]++
	err := f.fail[method]
	f.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return f.inner.CallContext(ctx, method, args...)
}

func (f *flakyCaller) Close() error { return f.inner.Close() }

func (f *flakyCaller) count(method string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[method]
}

func TestDegradedFallbackBitIdentical(t *testing.T) {
	isos := []float64{7}
	// Both payload fetches share one client body, so both degrade: the
	// contour fetch to a local PreFilter, the range fetch to a local
	// RangePreFilter.
	fetches := []struct {
		method string
		fetch  func(c *Client) (*Payload, *FetchStats, error)
	}{
		{MethodFetch, func(c *Client) (*Payload, *FetchStats, error) {
			return c.FetchFiltered("run/ts0.vnd", "d", isos, EncAuto)
		}},
		{MethodFetchRange, func(c *Client) (*Payload, *FetchStats, error) {
			return c.FetchRange("run/ts0.vnd", "d", 5, 8, EncAuto)
		}},
	}
	for _, codec := range []compress.Kind{compress.None, compress.LZ4} {
		client, ds := startNDP(t, codec)
		for _, fc := range fetches {
			name := codec.String() + " " + fc.method
			want, wantStats, err := fc.fetch(client)
			if err != nil {
				t.Fatalf("%s: healthy fetch: %v", name, err)
			}

			fallbacks := telemetry.Default().Counter("core.client.fallbacks")
			before := fallbacks.Value()
			broken := &Client{
				rpc: &flakyCaller{
					inner: client.rpc,
					fail:  map[string]error{fc.method: errors.New("injected transport failure")},
				},
				fallback: true,
			}
			got, st, err := fc.fetch(broken)
			if err != nil {
				t.Fatalf("%s: degraded fetch: %v", name, err)
			}
			if string(got.Data) != string(want.Data) {
				t.Fatalf("%s: degraded payload differs from the remote pre-filter's", name)
			}
			if got.Encoding != want.Encoding || got.Count != want.Count {
				t.Errorf("%s: payload shape differs: %v/%d vs %v/%d",
					name, got.Encoding, got.Count, want.Encoding, want.Count)
			}
			if !st.Degraded {
				t.Errorf("%s: stats not marked Degraded", name)
			}
			if wantStats.Degraded {
				t.Errorf("%s: healthy fetch marked Degraded", name)
			}
			// The degraded transfer moved the whole raw array.
			if wantRaw := int64(4 * ds.Grid.NumPoints()); st.PayloadBytes != wantRaw {
				t.Errorf("%s: degraded PayloadBytes = %d, want raw size %d",
					name, st.PayloadBytes, wantRaw)
			}
			if st.RawBytes != wantStats.RawBytes || st.SelectedPoints != wantStats.SelectedPoints {
				t.Errorf("%s: degraded stats report %d raw bytes / %d points, healthy %d / %d",
					name, st.RawBytes, st.SelectedPoints, wantStats.RawBytes, wantStats.SelectedPoints)
			}
			if d := fallbacks.Value() - before; d != 1 {
				t.Errorf("%s: fallbacks counter moved by %d, want 1", name, d)
			}
			if fc.method != MethodFetch {
				continue
			}

			// And the meshes are therefore identical too.
			post := &PostFilter{Isovalues: isos}
			wantMesh, err := post.Contour(ds.Grid, "d", want)
			if err != nil {
				t.Fatal(err)
			}
			gotMesh, err := post.Contour(ds.Grid, "d", got)
			if err != nil {
				t.Fatal(err)
			}
			if !wantMesh.Equal(gotMesh) {
				t.Errorf("%s: degraded mesh differs", name)
			}
		}
	}
}

func TestDegradedFallbackReportsBothErrors(t *testing.T) {
	client, _ := startNDP(t, compress.None)
	fetchErr := errors.New("injected fetch failure")
	descErr := errors.New("injected describe failure")
	broken := &Client{
		rpc: &flakyCaller{
			inner: client.rpc,
			fail:  map[string]error{MethodFetch: fetchErr, MethodDescribe: descErr},
		},
		fallback: true,
	}
	_, _, err := broken.FetchFiltered("run/ts0.vnd", "d", []float64{7}, EncAuto)
	if err == nil {
		t.Fatal("fetch with a dead fallback path should fail")
	}
	if !errors.Is(err, fetchErr) {
		t.Errorf("err = %v, want the original fetch failure in the chain", err)
	}
	if !errors.Is(err, descErr) {
		t.Errorf("err = %v, want the fallback's failure in the chain", err)
	}
}

func TestDegradedFallbackDisabledOnPlainClient(t *testing.T) {
	client, _ := startNDP(t, compress.None)
	fetchErr := errors.New("injected fetch failure")
	fc := &flakyCaller{inner: client.rpc, fail: map[string]error{MethodFetch: fetchErr}}
	plain := &Client{rpc: fc} // fallback disabled, like core.Dial
	_, _, err := plain.FetchFiltered("run/ts0.vnd", "d", []float64{7}, EncAuto)
	if !errors.Is(err, fetchErr) {
		t.Fatalf("err = %v, want the fetch failure passed through", err)
	}
	if n := fc.count(MethodFetchRaw); n != 0 {
		t.Errorf("plain client attempted %d raw fetches, want 0", n)
	}
}

func TestDegradedFallbackSkippedWhenCancelled(t *testing.T) {
	client, _ := startNDP(t, compress.None)
	fc := &flakyCaller{
		inner: client.rpc,
		fail:  map[string]error{MethodFetch: errors.New("injected")},
	}
	broken := &Client{rpc: fc, fallback: true}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := broken.FetchFilteredContext(ctx, "run/ts0.vnd", "d", []float64{7}, EncAuto)
	if err == nil {
		t.Fatal("cancelled fetch should fail")
	}
	if n := fc.count(MethodDescribe) + fc.count(MethodFetchRaw); n != 0 {
		t.Errorf("fallback issued %d calls under a cancelled context, want 0", n)
	}
}

// gateCaller blocks every call until released, recording the peak number
// of concurrent calls.
type gateCaller struct {
	release chan struct{}

	mu        sync.Mutex
	active    int
	maxActive int
}

func (g *gateCaller) CallContext(_ context.Context, _ string, _ ...any) (any, error) {
	g.mu.Lock()
	g.active++
	if g.active > g.maxActive {
		g.maxActive = g.active
	}
	g.mu.Unlock()
	<-g.release
	g.mu.Lock()
	g.active--
	g.mu.Unlock()
	return nil, errors.New("gated")
}

func (g *gateCaller) Close() error { return nil }

func (g *gateCaller) peak() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.maxActive
}

func TestFetchFilteredMultiFaultBoundedGoroutines(t *testing.T) {
	// The submitting loop must acquire the parallelism slot before
	// spawning, so a large batch never stands up more than
	// multiParallelism goroutines at once.
	g := &gateCaller{release: make(chan struct{})}
	c := &Client{rpc: g}
	reqs := make([]MultiRequest, 32)
	for i := range reqs {
		reqs[i] = MultiRequest{Path: "p", Array: "a", Isovalues: []float64{1}}
	}
	done := make(chan []MultiResult, 1)
	go func() { done <- c.FetchFilteredMultiContext(context.Background(), reqs) }()

	deadline := time.Now().Add(2 * time.Second)
	for g.peak() < multiParallelism && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// Give any over-spawned goroutines a moment to show up in the peak.
	time.Sleep(20 * time.Millisecond)
	close(g.release)
	results := <-done
	if p := g.peak(); p != multiParallelism {
		t.Errorf("peak concurrent calls = %d, want exactly %d", p, multiParallelism)
	}
	for i, r := range results {
		if r.Err == nil {
			t.Fatalf("result %d unexpectedly succeeded", i)
		}
	}
}

func TestFetchFilteredMultiFaultCancelDuringSubmit(t *testing.T) {
	g := &gateCaller{release: make(chan struct{})}
	c := &Client{rpc: g}
	reqs := make([]MultiRequest, 16)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan []MultiResult, 1)
	go func() { done <- c.FetchFilteredMultiContext(ctx, reqs) }()

	deadline := time.Now().Add(2 * time.Second)
	for g.peak() < multiParallelism && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	// The submit loop drains the remaining requests without blocking on
	// the full semaphore; only then do the in-flight calls finish.
	time.Sleep(20 * time.Millisecond)
	close(g.release)
	results := <-done
	cancelled := 0
	for _, r := range results {
		if errors.Is(r.Err, context.Canceled) {
			cancelled++
		}
	}
	if want := len(reqs) - multiParallelism; cancelled != want {
		t.Errorf("%d results cancelled, want %d", cancelled, want)
	}
}
