package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"vizndp/internal/netsim"
	"vizndp/internal/telemetry"
)

// startServer runs a Server over a loopback TCP listener and returns a
// connected client plus a cleanup func.
func startServer(t *testing.T, setup func(*Server)) *Client {
	t.Helper()
	s := NewServer()
	setup(s)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	c, err := Dial("tcp", ln.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		s.Close()
	})
	return c
}

func TestCallBasic(t *testing.T) {
	c := startServer(t, func(s *Server) {
		s.Register("add", func(_ context.Context, args []any) (any, error) {
			return args[0].(int64) + args[1].(int64), nil
		})
	})
	got, err := c.Call("add", 2, 40)
	if err != nil {
		t.Fatal(err)
	}
	if got != int64(42) {
		t.Errorf("add = %v, want 42", got)
	}
}

func TestCallServerError(t *testing.T) {
	c := startServer(t, func(s *Server) {
		s.Register("fail", func(_ context.Context, _ []any) (any, error) {
			return nil, errors.New("boom")
		})
	})
	_, err := c.Call("fail")
	var se ServerError
	if !errors.As(err, &se) || se.Error() != "boom" {
		t.Errorf("err = %v, want ServerError(boom)", err)
	}
}

// TestCallUnknownMethod: a method nobody registered is an error, counted
// in rpc.server.errors alone — the names a peer sends create no
// rpc.server.call.* metrics.
func TestCallUnknownMethod(t *testing.T) {
	c := startServer(t, func(s *Server) {})
	callMetrics := func() (n int) {
		snap := telemetry.Default().Snapshot()
		for name := range snap.Counters {
			if strings.HasPrefix(name, "rpc.server.call.") {
				n++
			}
		}
		for name := range snap.Histograms {
			if strings.HasPrefix(name, "rpc.server.call.") {
				n++
			}
		}
		return n
	}
	errs := telemetry.Default().Counter("rpc.server.errors")
	before, errs0 := callMetrics(), errs.Value()
	for i := 0; i < 100; i++ {
		if _, err := c.Call(fmt.Sprintf("missing.%d", i)); err == nil {
			t.Fatal("unknown method should error")
		}
	}
	if got := callMetrics() - before; got != 0 {
		t.Errorf("100 unknown methods added %d rpc.server.call.* metrics, want 0", got)
	}
	if got := errs.Value() - errs0; got != 100 {
		t.Errorf("rpc.server.errors rose by %d, want 100", got)
	}
}

func TestCallBinaryPayload(t *testing.T) {
	// The NDP reply path: server returns a large []byte.
	payload := make([]byte, 3<<20)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	c := startServer(t, func(s *Server) {
		s.Register("fetch", func(_ context.Context, args []any) (any, error) {
			n := args[0].(int64)
			return payload[:n], nil
		})
	})
	got, err := c.Call("fetch", len(payload))
	if err != nil {
		t.Fatal(err)
	}
	b, ok := got.([]byte)
	if !ok || len(b) != len(payload) {
		t.Fatalf("got %T of %d bytes", got, len(b))
	}
	for i := range b {
		if b[i] != payload[i] {
			t.Fatalf("payload corrupted at %d", i)
		}
	}
}

func TestCallStructuredResult(t *testing.T) {
	c := startServer(t, func(s *Server) {
		s.Register("meta", func(_ context.Context, _ []any) (any, error) {
			return map[string]any{
				"arrays": []any{"v02", "v03"},
				"points": int64(125_000_000),
			}, nil
		})
	})
	got, err := c.Call("meta")
	if err != nil {
		t.Fatal(err)
	}
	m := got.(map[string]any)
	if m["points"] != int64(125_000_000) {
		t.Errorf("points = %v", m["points"])
	}
	arrays := m["arrays"].([]any)
	if len(arrays) != 2 || arrays[0] != "v02" {
		t.Errorf("arrays = %v", arrays)
	}
}

func TestConcurrentCalls(t *testing.T) {
	c := startServer(t, func(s *Server) {
		s.Register("echo", func(_ context.Context, args []any) (any, error) {
			time.Sleep(time.Millisecond)
			return args[0], nil
		})
	})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := c.Call("echo", i)
			if err != nil {
				errs <- err
				return
			}
			if got != int64(i) {
				errs <- fmt.Errorf("echo(%d) = %v", i, got)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestClientCloseFailsPending closes the client while the server is
// running its call: the pending call must fail rather than hang.
func TestClientCloseFailsPending(t *testing.T) {
	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	c := startServer(t, func(s *Server) {
		s.Register("hang", func(_ context.Context, _ []any) (any, error) {
			entered <- struct{}{}
			<-block
			return nil, nil
		})
	})
	done := make(chan error, 1)
	go func() {
		_, err := c.Call("hang")
		done <- err
	}()
	<-entered // the call is in flight: the server is running it
	c.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("pending call should fail on close")
		}
	case <-time.After(2 * time.Second):
		t.Error("pending call did not return after close")
	}
	close(block)
	if _, err := c.Call("hang"); err == nil {
		t.Error("call after close should fail")
	}
}

// TestClientCloseReturnsErrShutdown pins the documented contract: after
// an explicit Close, new calls fail with ErrShutdown —
// not the readLoop's raw "use of closed network connection" error.
func TestClientCloseReturnsErrShutdown(t *testing.T) {
	c := startServer(t, func(s *Server) {
		s.Register("ping", func(_ context.Context, _ []any) (any, error) {
			return nil, nil
		})
	})
	if _, err := c.Call("ping"); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Give the readLoop time to observe the closed connection; its raw
	// network error must not overwrite the recorded shutdown.
	time.Sleep(20 * time.Millisecond)
	if _, err := c.Call("ping"); !errors.Is(err, ErrShutdown) {
		t.Errorf("Call after Close = %v, want ErrShutdown", err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
}

func TestServerCloseStopsServe(t *testing.T) {
	s := NewServer()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	time.Sleep(10 * time.Millisecond)
	s.Close()
	select {
	case err := <-done:
		// A deliberate stop is distinguishable from a transport failure.
		if !errors.Is(err, ErrShutdown) {
			t.Errorf("Serve returned %v after Close, want ErrShutdown", err)
		}
	case <-time.After(2 * time.Second):
		t.Error("Serve did not return after Close")
	}
}

func TestOverShapedLink(t *testing.T) {
	// End-to-end over a bandwidth-limited link: a 1 MiB reply at 100 Mb/s
	// should take at least ~80 ms and the link should count the bytes.
	link := netsim.NewLink(100*netsim.Mbps, 0)
	payload := make([]byte, 1<<20)

	s := NewServer()
	s.Register("fetch", func(_ context.Context, _ []any) (any, error) {
		return payload, nil
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(link.Listener(ln))
	defer s.Close()

	c, err := Dial("tcp", ln.Addr().String(), link.Dial)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start := time.Now()
	got, err := c.Call("fetch")
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if len(got.([]byte)) != len(payload) {
		t.Fatalf("got %d bytes", len(got.([]byte)))
	}
	ideal := link.TransferTime(int64(len(payload)))
	if elapsed < ideal*7/10 {
		t.Errorf("call took %v, want >= ~%v (shaped)", elapsed, ideal)
	}
	if link.BytesSent() < int64(len(payload)) {
		t.Errorf("link counted %d bytes, want >= %d", link.BytesSent(), len(payload))
	}
}

func TestUnencodableResult(t *testing.T) {
	c := startServer(t, func(s *Server) {
		s.Register("bad", func(_ context.Context, _ []any) (any, error) {
			return make(chan int), nil
		})
	})
	if _, err := c.Call("bad"); err == nil {
		t.Error("unencodable result should produce a server error")
	}
}

func TestUnencodableArg(t *testing.T) {
	c := startServer(t, func(s *Server) {})
	if _, err := c.Call("x", make(chan int)); err == nil {
		t.Error("unencodable arg should fail locally")
	}
	// Client must remain usable afterwards.
	c2 := startServer(t, func(s *Server) {
		s.Register("ok", func(_ context.Context, _ []any) (any, error) { return true, nil })
	})
	if _, err := c2.Call("ok"); err != nil {
		t.Errorf("client unusable after bad arg: %v", err)
	}
}

// Kept: the benchmark trace's rpc.echo_* is a bulk echo; per-call overhead and allocations of a tiny request are measured nowhere else.
func BenchmarkCallSmall(b *testing.B) {
	s := NewServer()
	s.Register("echo", func(_ context.Context, args []any) (any, error) {
		return args[0], nil
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go s.Serve(ln)
	defer s.Close()
	c, err := Dial("tcp", ln.Addr().String(), nil)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Call("echo", 1); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCallContextTimeout(t *testing.T) {
	block := make(chan struct{})
	c := startServer(t, func(s *Server) {
		s.Register("hang", func(_ context.Context, _ []any) (any, error) {
			<-block
			return "late", nil
		})
		s.Register("ok", func(_ context.Context, _ []any) (any, error) {
			return "fast", nil
		})
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := c.CallContext(ctx, "hang")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	// The connection must remain usable and the late reply must be
	// discarded silently.
	close(block)
	got, err := c.CallContext(context.Background(), "ok")
	if err != nil || got != "fast" {
		t.Errorf("follow-up call = %v, %v", got, err)
	}
}

func TestCallContextCancelled(t *testing.T) {
	c := startServer(t, func(s *Server) {
		s.Register("hang", func(ctx context.Context, _ []any) (any, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		})
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.CallContext(ctx, "hang")
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Error("cancelled call did not return")
	}
}
