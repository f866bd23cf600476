package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"

	"vizndp/internal/msgpack"
	"vizndp/internal/telemetry"
)

// TestStressManyClientsOneConn hammers a single multiplexed connection
// from many goroutines, mixing traced and untraced calls, so the
// race detector exercises the client's pending map, the write path, the
// trace ring, and the metric registry at once.
func TestStressManyClientsOneConn(t *testing.T) {
	c := startServer(t, func(s *Server) {
		s.Register("mul", func(_ context.Context, args []any) (any, error) {
			return args[0].(int64) * args[1].(int64), nil
		})
	})

	const goroutines = 12
	const calls = 50
	errs := make(chan error, goroutines*calls)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				ctx := context.Background()
				var span *telemetry.Span
				if i%2 == 0 {
					// Traced call: exercises span propagation and the
					// response's span trailer concurrently.
					ctx, span = telemetry.StartSpan(ctx, "stress")
				}
				got, err := c.CallContext(ctx, "mul", g, i)
				span.End()
				if err != nil {
					errs <- fmt.Errorf("goroutine %d call %d: %w", g, i, err)
					return
				}
				if got != int64(g*i) {
					errs <- fmt.Errorf("mul(%d,%d) = %v", g, i, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// fakeServer accepts one connection and hands each decoded request to
// respond, which writes whatever frames it wants.
func fakeServer(t *testing.T, respond func(conn net.Conn, msgid int64, method string)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			body, err := readFrame(conn)
			if err != nil {
				return
			}
			d := msgpack.NewDecoder(body)
			if _, err := d.ReadArrayLen(); err != nil {
				return
			}
			if _, err := d.ReadInt(); err != nil { // message type
				return
			}
			msgid, err := d.ReadInt()
			if err != nil {
				return
			}
			method, err := d.ReadString()
			if err != nil {
				return
			}
			respond(conn, msgid, method)
		}
	}()
	return ln.Addr().String()
}

// TestMismatchedMsgidDiscarded handcrafts response frames whose msgid
// matches no pending call: the client must drop them (counting them)
// and still deliver the real response.
func TestMismatchedMsgidDiscarded(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn, msgid int64, method string) {
		// A response for a msgid that was never issued...
		bogus, err := encodeResponse(msgid+9999, nil, "bogus", nil)
		if err == nil {
			writeFrame(conn, bogus)
		}
		// ...then the genuine one.
		real, err := encodeResponse(msgid, nil, "real", nil)
		if err == nil {
			writeFrame(conn, real)
		}
	})

	c, err := Dial("tcp", addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	before := telemetry.Default().Counter("rpc.client.responses.discarded").Value()
	for i := 0; i < 3; i++ {
		got, err := c.Call("ping")
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if got != "real" {
			t.Fatalf("call %d = %v, want real", i, got)
		}
	}
	after := telemetry.Default().Counter("rpc.client.responses.discarded").Value()
	if after-before != 3 {
		t.Errorf("discarded counter rose by %d, want 3", after-before)
	}
}

// TestServerCloseMidCall closes the server while calls are in flight:
// every pending call must fail with ErrShutdown, and later calls fail
// immediately.
func TestServerCloseMidCall(t *testing.T) {
	release := make(chan struct{})
	const inflight = 8
	entered := make(chan struct{}, inflight)
	s := NewServer()
	s.Register("hang", func(ctx context.Context, _ []any) (any, error) {
		entered <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
		}
		return "late", nil
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	c, err := Dial("tcp", ln.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	defer close(release)

	errs := make(chan error, inflight)
	var wg sync.WaitGroup
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Call("hang")
			errs <- err
		}()
	}
	// Once every call is in its handler, yank the server away.
	for i := 0; i < inflight; i++ {
		<-entered
	}
	s.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, ErrShutdown) {
			t.Errorf("in-flight call err = %v, want ErrShutdown", err)
		}
	}
	// Later calls fail fast with the connection's terminal error (EOF
	// from the dead socket, or ErrShutdown after an explicit Close).
	if _, err := c.Call("hang"); err == nil {
		t.Error("post-close call succeeded, want error")
	}
}
