package core

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vizndp/internal/compress"
	"vizndp/internal/grid"
	"vizndp/internal/rpc"
	"vizndp/internal/telemetry"
	"vizndp/internal/vtkio"
)

// startEchoServer runs a plain rpc server with an "echo" method.
func startEchoServer(t *testing.T) (*rpc.Server, string) {
	t.Helper()
	srv := rpc.NewServer()
	srv.Register("echo", func(_ context.Context, args []any) (any, error) {
		return args[0], nil
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	return srv, ln.Addr().String()
}

func TestPoolFailoverOnReplicaDeath(t *testing.T) {
	_, addrA := startEchoServer(t)
	srvB, addrB := startEchoServer(t)

	failovers := telemetry.Default().Counter("core.pool.failovers")
	trips := telemetry.Default().Counter("core.pool.breaker.open")
	f0, t0 := failovers.Value(), trips.Value()

	pool := rpc.NewReconnectClient("tcp", []string{addrA, addrB}, nil, rpc.ReconnectOptions{
		Retryable:        map[string]bool{"echo": true},
		MaxAttempts:      16,
		InitialBackoff:   time.Millisecond,
		MaxBackoff:       5 * time.Millisecond,
		CallTimeout:      2 * time.Second,
		Seed:             3,
		BreakerThreshold: 2,
		BreakerCooldown:  10 * time.Minute, // stays open for the test's duration
	})
	defer pool.Close()

	// Warm both replicas.
	for i := 0; i < 4; i++ {
		if _, err := pool.CallContext(context.Background(), "echo", int64(i)); err != nil {
			t.Fatalf("warm call %d: %v", i, err)
		}
	}

	// Kill one replica mid-run: every call must still succeed, the pool
	// must fail over, and the dead replica's breaker must trip.
	srvB.Close()
	for i := 0; i < 12; i++ {
		got, err := pool.CallContext(context.Background(), "echo", int64(i))
		if err != nil {
			t.Fatalf("call %d after replica death: %v", i, err)
		}
		if got != int64(i) {
			t.Fatalf("call %d = %v, want %d", i, got, i)
		}
	}
	if failovers.Value() == f0 {
		t.Error("core.pool.failovers did not count any failover")
	}
	// Exactly one breaker tripped — the dead replica's; the live one
	// never failed.
	if d := trips.Value() - t0; d != 1 {
		t.Errorf("core.pool.breaker.open advanced by %d, want exactly 1", d)
	}
	// With B's breaker open, round-robin skips it: every further call
	// lands on A first try, so none fails over.
	f1 := failovers.Value()
	for i := 0; i < 6; i++ {
		if _, err := pool.CallContext(context.Background(), "echo", int64(i)); err != nil {
			t.Fatalf("call %d with B tripped: %v", i, err)
		}
	}
	if d := failovers.Value() - f1; d != 0 {
		t.Errorf("%d failovers with the dead replica's breaker open, want 0", d)
	}
}

func TestPoolRetriesBusyShed(t *testing.T) {
	// A single undersized replica: busy sheds must be retried even for a
	// method with no retry allowance, because the shed happened before
	// any handler ran.
	srv := rpc.NewServer(rpc.WithMaxInFlight(1))
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	srv.Register("block", func(ctx context.Context, _ []any) (any, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		select {
		case <-release:
		case <-ctx.Done():
		}
		return "done", nil
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Close)

	pool := rpc.NewReconnectClient("tcp", []string{ln.Addr().String()}, nil, rpc.ReconnectOptions{
		// "block" deliberately absent from Retryable.
		MaxAttempts:      200,
		InitialBackoff:   time.Millisecond,
		MaxBackoff:       5 * time.Millisecond,
		Seed:             5,
		BreakerThreshold: 2,
		BreakerCooldown:  5 * time.Millisecond,
	})
	defer pool.Close()

	first := make(chan error, 1)
	go func() {
		_, err := pool.CallContext(context.Background(), "block")
		first <- err
	}()
	<-started

	done := make(chan error, 1)
	go func() {
		_, err := pool.CallContext(context.Background(), "block")
		done <- err
	}()
	time.AfterFunc(30*time.Millisecond, func() { close(release) })
	if err := <-done; err != nil {
		t.Fatalf("shed call did not recover: %v", err)
	}
	if err := <-first; err != nil {
		t.Fatalf("first call failed: %v", err)
	}
}

func TestDialPoolFailoverBitIdentical(t *testing.T) {
	g, f := sphereField(24)
	ds := grid.NewDataset(g)
	ds.MustAddField(f)
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "run"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := vtkio.WriteFile(filepath.Join(dir, "run", "ts0.vnd"), ds,
		vtkio.WriteOptions{Codec: compress.None}); err != nil {
		t.Fatal(err)
	}
	newReplica := func() (*Server, string) {
		srv := NewServer(os.DirFS(dir))
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(srv.Close)
		return srv, ln.Addr().String()
	}
	_, addrA := newReplica()
	srvB, addrB := newReplica()

	// Ground truth from a plain single-replica client.
	truth, err := Dial(addrA, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantPayload, _, err := truth.FetchFiltered("run/ts0.vnd", "d", []float64{7}, EncAuto)
	truth.Close()
	if err != nil {
		t.Fatal(err)
	}

	client := DialFaultTolerant([]string{addrA, addrB}, nil, rpc.ReconnectOptions{
		MaxAttempts:      16,
		InitialBackoff:   time.Millisecond,
		MaxBackoff:       5 * time.Millisecond,
		CallTimeout:      5 * time.Second,
		Seed:             9,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Minute,
	})
	defer client.Close()
	failovers := telemetry.Default().Counter("core.pool.failovers")
	trips := telemetry.Default().Counter("core.pool.breaker.open")
	t0 := trips.Value()

	fetchAndCompare := func(i int) {
		t.Helper()
		p, st, err := client.FetchFiltered("run/ts0.vnd", "d", []float64{7}, EncAuto)
		if err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
		if string(p.Data) != string(wantPayload.Data) {
			t.Fatalf("fetch %d: payload differs from single-replica ground truth", i)
		}
		if st.Degraded {
			t.Fatalf("fetch %d: unexpectedly served degraded", i)
		}
	}
	for i := 0; i < 3; i++ {
		fetchAndCompare(i)
	}
	// Replica B dies mid-run; payloads must stay bit-identical.
	srvB.Close()
	for i := 3; i < 11; i++ {
		fetchAndCompare(i)
	}
	if trips.Value() == t0 {
		t.Error("dead replica's breaker never tripped during the failover run")
	}
	// Its breaker is still open: the next fetches land on A first try.
	f1 := failovers.Value()
	for i := 11; i < 15; i++ {
		fetchAndCompare(i)
	}
	if d := failovers.Value() - f1; d != 0 {
		t.Errorf("%d failovers after the dead replica's breaker opened, want 0", d)
	}
}

// startCountingEcho runs an echo server on addr ("127.0.0.1:0" for any)
// that counts the calls it actually served, for fairness accounting.
func startCountingEcho(t *testing.T, addr string) (*rpc.Server, string, *atomic.Int64) {
	t.Helper()
	var served atomic.Int64
	srv := rpc.NewServer()
	srv.Register("echo", func(_ context.Context, args []any) (any, error) {
		served.Add(1)
		return args[0], nil
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	return srv, ln.Addr().String(), &served
}

// TestPoolPickFairnessUnderStorm runs a concurrent CallContext storm
// against a pool with one dead replica (breaker open) and asserts the
// two survivors share the load instead of one being starved by the
// round-robin cursor skipping the tripped replica, then restarts the
// dead replica and requires the half-open probe to fold it back in.
// Run under -race: pick, the breakers, and the cursor are all hit from
// every storm goroutine at once.
func TestPoolPickFairnessUnderStorm(t *testing.T) {
	_, addrA, servedA := startCountingEcho(t, "127.0.0.1:0")
	_, addrB, servedB := startCountingEcho(t, "127.0.0.1:0")
	srvC, addrC, _ := startCountingEcho(t, "127.0.0.1:0")

	trips := telemetry.Default().Counter("core.pool.breaker.open")
	const cooldown = 100 * time.Millisecond
	pool := rpc.NewReconnectClient("tcp", []string{addrA, addrB, addrC}, nil, rpc.ReconnectOptions{
		Retryable:        map[string]bool{"echo": true},
		MaxAttempts:      32,
		InitialBackoff:   time.Millisecond,
		MaxBackoff:       5 * time.Millisecond,
		CallTimeout:      2 * time.Second,
		Seed:             7,
		BreakerThreshold: 2,
		BreakerCooldown:  cooldown,
	})
	defer pool.Close()

	for i := 0; i < 6; i++ {
		if _, err := pool.CallContext(context.Background(), "echo", int64(i)); err != nil {
			t.Fatalf("warm call %d: %v", i, err)
		}
	}

	// Kill C, reset the survivors' counters, and storm.
	t0 := trips.Value()
	srvC.Close()
	servedA.Store(0)
	servedB.Store(0)
	const (
		workers = 8
		perW    = 30
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				if _, err := pool.CallContext(context.Background(), "echo", int64(w*perW+i)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("storm call failed: %v", err)
	}

	total := servedA.Load() + servedB.Load()
	if total < workers*perW {
		t.Fatalf("survivors served %d calls, storm made %d", total, workers*perW)
	}
	// Fair share is 50/50; demand each survivor at least 25% so a cursor
	// bug that pins traffic to one replica fails loudly, while scheduling
	// noise does not.
	for name, n := range map[string]int64{"A": servedA.Load(), "B": servedB.Load()} {
		if n*4 < total {
			t.Errorf("replica %s served %d/%d calls — starved", name, n, total)
		}
	}
	// A and B never failed, so any trip is C's.
	if trips.Value() == t0 {
		t.Error("dead replica's breaker never tripped during the storm")
	}

	// Restart C on its old address; once the cooldown elapses, a call is
	// let through as the half-open probe and must close the breaker.
	_, _, servedC := startCountingEcho(t, addrC)
	deadline := time.Now().Add(5 * time.Second)
	for servedC.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("restarted replica never served a probe")
		}
		if _, err := pool.CallContext(context.Background(), "echo", int64(1)); err != nil {
			t.Fatalf("call during recovery: %v", err)
		}
	}
	// The probe closed C's breaker: round-robin gives C its share of
	// the next calls again.
	c0 := servedC.Load()
	for i := 0; i < 6; i++ {
		if _, err := pool.CallContext(context.Background(), "echo", int64(i)); err != nil {
			t.Fatalf("call after recovery: %v", err)
		}
	}
	if servedC.Load() == c0 {
		t.Error("restarted replica served none of 6 calls after its probe succeeded")
	}
}

// TestPoolZeroAddresses pins the fix for DialPool(nil, …) dividing by
// zero in pick on its first call: an empty replica set is an error on
// every call, degraded path included, never a panic.
func TestPoolZeroAddresses(t *testing.T) {
	client := DialFaultTolerant(nil, nil, rpc.ReconnectOptions{})
	defer client.Close()
	if _, err := client.Describe("run/ts0.vnd"); err == nil {
		t.Error("Describe over no addresses succeeded")
	}
	if _, _, err := client.FetchFiltered("run/ts0.vnd", "d", []float64{7}, EncAuto); err == nil {
		t.Error("FetchFiltered over no addresses succeeded")
	}
	if _, err := DialSharded(nil, nil, nil, rpc.ReconnectOptions{}); err == nil {
		t.Error("DialSharded over no addresses succeeded")
	}
}
