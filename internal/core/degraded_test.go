package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"vizndp/internal/compress"
	"vizndp/internal/telemetry"
)

// flakyCaller fails the configured methods and delegates the rest —
// a transport that can reach the server for everything but those calls.
// With paths set, only calls whose path argument is in it fail.
type flakyCaller struct {
	inner Caller
	fail  map[string]error
	paths map[string]bool
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
	if f.paths != nil && !f.paths[args[0].(string)] {
		err = nil
	}
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
			return c.FetchFilteredContext(context.Background(), "run/ts0.vnd", "d", isos, EncAuto)
		}},
		{MethodFetchRange, func(c *Client) (*Payload, *FetchStats, error) {
			return c.FetchRangeContext(context.Background(), "run/ts0.vnd", "d", 5, 8, EncAuto)
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
	_, _, err := broken.FetchFilteredContext(context.Background(), "run/ts0.vnd", "d", []float64{7}, EncAuto)
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
	_, _, err := plain.FetchFilteredContext(context.Background(), "run/ts0.vnd", "d", []float64{7}, EncAuto)
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

// gateCaller blocks every call until released — one call per value
// sent on release, or every call once it is closed — recording the calls
// that entered, the peak number in flight, and the calls that entered
// under an already-cancelled context.
type gateCaller struct {
	release chan struct{}

	mu        sync.Mutex
	entered   int
	active    int
	maxActive int
	refused   int
}

func (g *gateCaller) CallContext(ctx context.Context, _ string, _ ...any) (any, error) {
	g.mu.Lock()
	if ctx.Err() != nil {
		g.refused++
		g.mu.Unlock()
		return nil, ctx.Err()
	}
	g.entered++
	g.active++
	g.maxActive = max(g.maxActive, g.active)
	g.mu.Unlock()
	<-g.release
	g.mu.Lock()
	g.active--
	g.mu.Unlock()
	return nil, errors.New("gated")
}

func (g *gateCaller) Close() error { return nil }

// counts returns the calls that entered, the peak in flight, and the
// calls refused for a cancelled context.
func (g *gateCaller) counts() (entered, peak, refused int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.entered, g.maxActive, g.refused
}

func TestFetchFilteredMultiFaultBoundedGoroutines(t *testing.T) {
	// The submitting loop must acquire the parallelism slot before
	// spawning, so a large batch never stands up more than
	// multiParallelism goroutines at once, and a freed slot goes to the
	// next request. Slots are freed one at a time, each only once the
	// one before it has been refilled: every call enters while the
	// others are held, so any call over the bound would be in the peak.
	g := &gateCaller{release: make(chan struct{})}
	c := &Client{rpc: g}
	reqs := make([]MultiRequest, 32)
	for i := range reqs {
		reqs[i] = MultiRequest{Path: "p", Array: "a", Isovalues: []float64{1}}
	}
	done := make(chan []MultiResult, 1)
	go func() { done <- c.FetchFilteredMultiContext(context.Background(), reqs) }()

	for freed := range len(reqs) {
		want := min(multiParallelism+freed, len(reqs))
		waitFor(t, func() bool { entered, _, _ := g.counts(); return entered >= want })
		g.release <- struct{}{}
	}
	results := <-done
	if entered, peak, _ := g.counts(); entered != len(reqs) || peak != multiParallelism {
		t.Errorf("%d calls entered at a peak of %d in flight, want %d at exactly %d", entered, peak, len(reqs), multiParallelism)
	}
	for i, r := range results {
		if r.Err == nil {
			t.Fatalf("result %d unexpectedly succeeded", i)
		}
	}
}

// errCountCtx counts Err calls. fanOut reads ctx.Err() once for each
// request it skips, after its select has chosen the cancellation.
type errCountCtx struct {
	context.Context
	errs atomic.Int64
}

func (c *errCountCtx) Err() error {
	c.errs.Add(1)
	return c.Context.Err()
}

func TestFetchFilteredMultiFaultCancelDuringSubmit(t *testing.T) {
	g := &gateCaller{release: make(chan struct{})}
	c := &Client{rpc: g}
	reqs := make([]MultiRequest, 16)
	base, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := &errCountCtx{Context: base}
	done := make(chan []MultiResult, 1)
	go func() { done <- c.FetchFilteredMultiContext(ctx, reqs) }()

	waitFor(t, func() bool { entered, _, _ := g.counts(); return entered >= multiParallelism })
	// The in-flight calls hold every slot and return only when released,
	// so after the cancel the submit loop's only way on is the
	// cancellation: it drains each remaining request without blocking on
	// the full semaphore. Only once it has skipped all of them do the
	// in-flight calls finish, so no slot frees while one is left.
	skipped := ctx.errs.Load()
	cancel()
	waitFor(t, func() bool { return ctx.errs.Load()-skipped >= int64(len(reqs)-multiParallelism) })
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
	if entered, _, refused := g.counts(); entered != multiParallelism || refused != 0 {
		t.Errorf("%d calls entered and %d were issued after the cancel, want %d and 0", entered, refused, multiParallelism)
	}
}
