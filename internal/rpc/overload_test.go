package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vizndp/internal/msgpack"
	"vizndp/internal/telemetry"
)

// startBoundedServer runs a Server with the given admission bounds over
// loopback and returns it with its address.
func startBoundedServer(t *testing.T, setup func(*Server), opts ...ServerOption) (*Server, string) {
	t.Helper()
	s := NewServer(opts...)
	if setup != nil {
		setup(s)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(s.Close)
	return s, ln.Addr().String()
}

// blockingHandler returns a handler that signals entry on started and
// holds until release closes (or ctx dies, if obeyCtx).
func blockingHandler(started chan<- struct{}, release <-chan struct{}, obeyCtx bool) Handler {
	return func(ctx context.Context, _ []any) (any, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		if obeyCtx {
			select {
			case <-release:
				return "done", nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		<-release
		return "done", nil
	}
}

func TestServerShedsWhenQueueFull(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	defer close(release)
	_, addr := startBoundedServer(t, func(s *Server) {
		s.Register("block", blockingHandler(started, release, true))
	}, WithMaxInFlight(1), WithQueue(1))

	c, err := Dial("tcp", addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	shed0 := telemetry.Default().Counter("rpc.server.shed").Value()

	// Fill the one slot, then the one queue seat.
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := c.Call("block")
			errs <- err
		}()
	}
	<-started // slot occupied; the second call waits in the queue
	waitQueued(t, c, addr)

	// The third call finds slot and queue full: shed with ErrBusy.
	_, err = c.Call("block")
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("third call error = %v, want ErrBusy", err)
	}
	if d := telemetry.Default().Counter("rpc.server.shed").Value() - shed0; d == 0 {
		t.Error("rpc.server.shed did not count the shed request")
	}

	// Busy is an overload signal, not a transport failure: the very same
	// connection keeps working once capacity frees up.
	release <- struct{}{}
	release <- struct{}{}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("blocked call %d failed: %v", i, err)
		}
	}
	go func() { release <- struct{}{} }()
	if got, err := c.Call("block"); err != nil || got != "done" {
		t.Fatalf("call after shed = %v, %v; want done, nil", got, err)
	}
}

// waitQueued polls the rpc.server.queue.depth gauge until the queue has
// one waiter.
func waitQueued(t *testing.T, c *Client, addr string) {
	t.Helper()
	gauge := telemetry.Default().Gauge("rpc.server.queue.depth")
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if gauge.Value() >= 1 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("queue depth never reached 1 on %s", addr)
}

func TestShedRetriedByReconnectClient(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	_, addr := startBoundedServer(t, func(s *Server) {
		s.Register("fetch", func(ctx context.Context, _ []any) (any, error) {
			calls.Add(1)
			select {
			case <-release:
			case <-ctx.Done():
			}
			return "payload", nil
		})
	}, WithMaxInFlight(1)) // no queue: any concurrent request is shed

	// "fetch" is deliberately NOT in the retryable set: busy rejections
	// must retry anyway, because the server shed them before any handler
	// ran — there is nothing to double-execute.
	rc := NewReconnectClient("tcp", []string{addr}, nil, ReconnectOptions{
		MaxAttempts:    50,
		InitialBackoff: time.Millisecond,
		MaxBackoff:     5 * time.Millisecond,
		Seed:           7,
	})
	defer rc.Close()

	first := make(chan error, 1)
	go func() {
		_, err := rc.CallContext(context.Background(), "fetch")
		first <- err
	}()
	// Wait until the slot is genuinely occupied.
	deadline := time.Now().Add(2 * time.Second)
	for calls.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if calls.Load() == 0 {
		t.Fatal("first call never reached the handler")
	}

	// The second call is shed (busy) until the first releases; the
	// reconnect client must keep retrying it to success.
	done := make(chan error, 1)
	go func() {
		_, err := rc.CallContext(context.Background(), "fetch")
		done <- err
	}()
	time.AfterFunc(50*time.Millisecond, func() { close(release) })
	if err := <-done; err != nil {
		t.Fatalf("shed call did not recover: %v", err)
	}
	if err := <-first; err != nil {
		t.Fatalf("first call failed: %v", err)
	}
}

func TestShedNotRetriedWithoutBudget(t *testing.T) {
	// A plain client (no retry layer) surfaces the busy error directly.
	release := make(chan struct{})
	defer close(release)
	started := make(chan struct{}, 1)
	_, addr := startBoundedServer(t, func(s *Server) {
		s.Register("block", blockingHandler(started, release, true))
	}, WithMaxInFlight(1))
	c, err := Dial("tcp", addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	go c.Call("block")
	<-started
	_, err = c.Call("block")
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("err = %v, want ErrBusy", err)
	}
	// The decoded busy error is not a plain ServerError — the retry
	// layers key off that distinction.
	var se ServerError
	if errors.As(err, &se) {
		t.Errorf("busy error decoded as ServerError %q", se)
	}
}

func TestDeadlinePropagatesToHandler(t *testing.T) {
	sawDeadline := make(chan time.Duration, 1)
	c := startServer(t, func(s *Server) {
		s.Register("probe", func(ctx context.Context, _ []any) (any, error) {
			if dl, ok := ctx.Deadline(); ok {
				sawDeadline <- time.Until(dl)
			} else {
				sawDeadline <- 0
			}
			return nil, nil
		})
	})
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	if _, err := c.CallContext(ctx, "probe"); err != nil {
		t.Fatal(err)
	}
	got := <-sawDeadline
	if got <= 0 || got > 500*time.Millisecond {
		t.Errorf("handler saw remaining deadline %v, want in (0, 500ms]", got)
	}

	// Without a caller deadline the handler context must have none.
	if _, err := c.Call("probe"); err != nil {
		t.Fatal(err)
	}
	if got := <-sawDeadline; got != 0 {
		t.Errorf("handler saw deadline %v for deadline-less call", got)
	}
}

func TestDeadlineExpiredCancelsHandler(t *testing.T) {
	expired0 := telemetry.Default().Counter("rpc.server.deadline.expired").Value()
	handlerDone := make(chan error, 1)
	c := startServer(t, func(s *Server) {
		s.Register("slow", func(ctx context.Context, _ []any) (any, error) {
			// Wait for the propagated deadline, not the test's patience.
			<-ctx.Done()
			handlerDone <- ctx.Err()
			return nil, ctx.Err()
		})
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := c.CallContext(ctx, "slow")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("caller error = %v, want DeadlineExceeded", err)
	}
	// The server-side handler must have been cancelled by the propagated
	// deadline — without propagation it would hang on ctx.Done forever.
	select {
	case herr := <-handlerDone:
		if !errors.Is(herr, context.DeadlineExceeded) {
			t.Errorf("handler ctx err = %v, want DeadlineExceeded", herr)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("handler never saw the propagated deadline expire")
	}
	deadline := time.Now().Add(2 * time.Second)
	for telemetry.Default().Counter("rpc.server.deadline.expired").Value() == expired0 &&
		time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if telemetry.Default().Counter("rpc.server.deadline.expired").Value() == expired0 {
		t.Error("rpc.server.deadline.expired did not count the expiry")
	}
}

func TestShutdownDrainsInflight(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	srv, addr := startBoundedServer(t, func(s *Server) {
		s.Register("block", blockingHandler(started, release, false))
	})
	c, err := Dial("tcp", addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	callDone := make(chan error, 1)
	var got any
	go func() {
		r, err := c.Call("block")
		got = r
		callDone <- err
	}()
	<-started

	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutDone <- srv.Shutdown(ctx)
	}()

	// While draining, new requests are shed with the retryable busy
	// error (on the still-open connection).
	waitDraining(t, srv)
	if _, err := c.Call("block"); !errors.Is(err, ErrBusy) {
		t.Fatalf("call during drain = %v, want ErrBusy", err)
	}

	// The accepted request must complete and deliver its response.
	close(release)
	if err := <-callDone; err != nil {
		t.Fatalf("in-flight call lost during drain: %v", err)
	}
	if got != "done" {
		t.Fatalf("in-flight call returned %v, want done", got)
	}
	if err := <-shutDone; err != nil {
		t.Fatalf("Shutdown = %v, want nil (drained)", err)
	}
}

// waitDraining waits until Shutdown has begun on s.
func waitDraining(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		s.lnMu.Lock()
		draining := s.draining
		s.lnMu.Unlock()
		if draining {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("server never started draining")
}

func TestShutdownDeadlineWithStuckHandler(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	defer close(release)
	srv, addr := startBoundedServer(t, func(s *Server) {
		// Ignores its context: the pathological stuck handler.
		s.Register("stuck", blockingHandler(started, release, false))
	})
	c, err := Dial("tcp", addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	go c.Call("stuck")
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = srv.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Shutdown took %v, did not honor its ctx deadline", elapsed)
	}
	// After the forced stop the server is fully closed: new dials fail.
	if _, err := Dial("tcp", addr, nil); err == nil {
		t.Error("dial succeeded after forced shutdown")
	}
}

func TestShutdownStopsServeAndDialsDrain(t *testing.T) {
	srv, addr := startBoundedServer(t, nil)
	// Serve must return ErrShutdown — a deliberate stop, not a failure.
	done := make(chan error, 1)
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { done <- srv.Serve(ln2) }()
	time.Sleep(10 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with no in-flight work = %v, want nil", err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrShutdown) {
			t.Errorf("Serve returned %v after Shutdown, want ErrShutdown", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
	// Both listeners are down.
	if _, err := Dial("tcp", addr, nil); err == nil {
		t.Error("dial on first listener succeeded after Shutdown")
	}
	// Serve on an already-drained server refuses immediately.
	ln3, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(ln3); !errors.Is(err, ErrShutdown) {
		t.Errorf("Serve after Shutdown = %v, want ErrShutdown", err)
	}
}

func TestServeWrapsAcceptError(t *testing.T) {
	s := NewServer()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	time.Sleep(10 * time.Millisecond)
	// Closing the listener underneath Serve — without stopping the
	// server — is a transport failure, reported wrapped with context.
	ln.Close()
	select {
	case err := <-done:
		if err == nil || errors.Is(err, ErrShutdown) {
			t.Fatalf("Serve = %v, want wrapped accept error", err)
		}
		if !strings.Contains(err.Error(), "accept") || !strings.Contains(err.Error(), ln.Addr().String()) {
			t.Errorf("Serve error %q lacks accept/address context", err)
		}
		if errors.Unwrap(err) == nil {
			t.Errorf("Serve error %q does not wrap its cause", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after listener close")
	}
}

// TestNotify: a notification frame for a registered method is decoded
// and dropped — no reply could carry what its handler produced — and the
// connection goes on answering calls.
func TestNotify(t *testing.T) {
	ran := make(chan struct{}, 1)
	_, addr := startBoundedServer(t, func(s *Server) {
		s.Register("note", func(context.Context, []any) (any, error) {
			ran <- struct{}{}
			return nil, nil
		})
		s.Register("echo", func(_ context.Context, args []any) (any, error) { return args[0], nil })
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	e := msgpack.NewEncoder(16)
	e.PutArrayLen(3)
	e.PutInt(typeNotification)
	e.PutString("note")
	e.PutArrayLen(0)
	if err := writeFrame(conn, e.Bytes()); err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn)
	defer c.Close()
	if got, err := c.Call("echo", 7); err != nil || got != int64(7) {
		t.Fatalf("call after the notification = %v, %v", got, err)
	}
	select {
	case <-ran:
		t.Error("the notification ran its handler")
	case <-time.After(100 * time.Millisecond):
	}
}

func TestProtocolErrorCounted(t *testing.T) {
	protoErrs := telemetry.Default().Counter("rpc.server.protocol_errors")
	_, addr := startBoundedServer(t, nil)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	p0 := protoErrs.Value()
	// A syntactically valid frame with a bogus message type.
	e := msgpack.NewEncoder(16)
	e.PutArrayLen(4)
	e.PutInt(9)
	e.PutInt(1)
	e.PutString("m")
	e.PutArrayLen(0)
	if err := writeFrame(conn, e.Bytes()); err != nil {
		t.Fatal(err)
	}
	// The server drops the connection; the read unblocks on EOF.
	buf := make([]byte, 1)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("connection survived a protocol error")
	}
	if protoErrs.Value() == p0 {
		t.Error("rpc.server.protocol_errors did not count the bad frame")
	}
}

func TestCloseRacesInflightHandlers(t *testing.T) {
	// Hammer Close against handlers mid-response-write: no panics, no
	// deadlocks, and every call completes with either a result or a
	// transport error.
	for round := 0; round < 5; round++ {
		s := NewServer()
		s.Register("echo", func(_ context.Context, args []any) (any, error) {
			return args[0], nil
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
		var wg sync.WaitGroup
		results := make([]error, 16)
		for i := 0; i < len(results); i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got, err := c.Call("echo", fmt.Sprintf("p%d", i))
				if err == nil && got != fmt.Sprintf("p%d", i) {
					err = fmt.Errorf("echo returned %v", got)
				}
				results[i] = err
			}(i)
		}
		time.Sleep(time.Duration(round) * 100 * time.Microsecond)
		s.Close()
		wg.Wait()
		c.Close()
		for i, err := range results {
			if err != nil && !errors.Is(err, ErrShutdown) && !errors.Is(err, ErrBusy) {
				t.Fatalf("round %d call %d: unexpected error %v", round, i, err)
			}
		}
	}
}

// TestMixedVersionOldServer proves a new client (deadline + trace meta)
// interoperates with an old server: one that requires the fifth request
// element to be a plain string and answers with plain four-element
// responses.
func TestMixedVersionOldServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	metaSeen := make(chan string, 4)
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
			// Old-server decode: [0, msgid, method, params] (+ string meta).
			d := msgpack.NewDecoder(body)
			n, _ := d.ReadArrayLen()
			if n != 4 && n != 5 {
				return
			}
			if mt, _ := d.ReadInt(); mt != typeRequest {
				return
			}
			msgid, _ := d.ReadInt()
			if _, err := d.ReadString(); err != nil {
				return
			}
			nargs, _ := d.ReadArrayLen()
			for i := int64(0); i < int64(nargs); i++ {
				if _, err := d.ReadAny(); err != nil {
					return
				}
			}
			if n == 5 {
				meta, err := d.ReadString()
				if err != nil {
					return // old servers require a string here
				}
				metaSeen <- meta
			} else {
				metaSeen <- ""
			}
			e := msgpack.NewEncoder(64)
			e.PutArrayLen(4)
			e.PutInt(typeResponse)
			e.PutInt(msgid)
			e.PutNil()
			e.PutString("old-ok")
			if writeFrame(conn, e.Bytes()) != nil {
				return
			}
		}
	}()

	c, err := Dial("tcp", ln.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Deadline-carrying call: the old server still serves it; the meta
	// element carries the ";dl=" suffix that old trace parsing rejects
	// gracefully.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	got, err := c.CallContext(ctx, "fetch", "k")
	if err != nil || got != "old-ok" {
		t.Fatalf("deadline call via old server = %v, %v; want old-ok", got, err)
	}
	meta := <-metaSeen
	if !strings.Contains(meta, deadlineSep) {
		t.Errorf("meta %q does not carry the deadline field", meta)
	}
	if _, _, ok := telemetry.ParseWireContext(meta); ok {
		t.Errorf("old-style trace parse unexpectedly accepted meta %q", meta)
	}

	// Deadline-less call: byte-identical old format, no meta element.
	if got, err := c.Call("fetch", "k"); err != nil || got != "old-ok" {
		t.Fatalf("plain call via old server = %v, %v; want old-ok", got, err)
	}
	if meta := <-metaSeen; meta != "" {
		t.Errorf("plain call sent meta %q, want none", meta)
	}
}

// TestMixedVersionOldClient proves an old client — hand-rolled plain
// four-element frames, treating any error as an opaque string — works
// against a new bounded server, including across a shed.
func TestMixedVersionOldClient(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	_, addr := startBoundedServer(t, func(s *Server) {
		s.Register("block", blockingHandler(started, release, true))
		s.Register("echo", func(_ context.Context, args []any) (any, error) {
			return args[0], nil
		})
	}, WithMaxInFlight(1))

	// Saturate the server with a modern client.
	cNew, err := Dial("tcp", addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cNew.Close()
	go cNew.Call("block")
	<-started

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	oldCall := func(msgid int64, method string, arg any) (errStr string, result any) {
		t.Helper()
		e := msgpack.NewEncoder(64)
		e.PutArrayLen(4)
		e.PutInt(typeRequest)
		e.PutInt(msgid)
		e.PutString(method)
		e.PutArrayLen(1)
		if err := e.PutAny(arg); err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(conn, e.Bytes()); err != nil {
			t.Fatal(err)
		}
		body, err := readFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		d := msgpack.NewDecoder(body)
		n, _ := d.ReadArrayLen()
		if n != 4 {
			t.Fatalf("old client got %d-element response, want 4", n)
		}
		d.ReadInt() // type
		d.ReadInt() // msgid
		if d.IsNil() {
			d.ReadNil()
		} else {
			if errStr, err = d.ReadString(); err != nil {
				t.Fatalf("old client could not decode error as string: %v", err)
			}
		}
		if result, err = d.ReadAny(); err != nil {
			t.Fatal(err)
		}
		return errStr, result
	}

	// Shed: the old client must receive a decodable plain-string error.
	errStr, _ := oldCall(1, "echo", "x")
	if errStr == "" {
		t.Fatal("old client was not shed while the server was saturated")
	}
	if !strings.Contains(errStr, "busy") {
		t.Errorf("shed error %q does not mention busy", errStr)
	}

	// After capacity frees up the same old connection serves normally.
	close(release)
	deadline := time.Now().Add(2 * time.Second)
	for {
		errStr, result := oldCall(2, "echo", "y")
		if errStr == "" {
			if result != "y" {
				t.Fatalf("old client echo = %v, want y", result)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("old client still shed after release: %q", errStr)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestBreakerFailoverProbe(t *testing.T) {
	b := &breaker{threshold: 2, cooldown: time.Minute}
	now := time.Unix(1000, 0)
	if !b.allow(now) {
		t.Fatal("new breaker must allow traffic")
	}
	if b.failure(now) {
		t.Fatal("first failure must not trip a threshold-2 breaker")
	}
	if !b.failure(now) {
		t.Fatal("second consecutive failure must trip")
	}
	if b.allow(now) {
		t.Error("open breaker allows traffic before its cooldown")
	}
	probeAt := now.Add(time.Minute)
	if !b.allow(probeAt) {
		t.Error("cooldown elapsed: the half-open probe must be allowed")
	}
	// A failed probe re-arms the cooldown without a fresh trip.
	if b.failure(probeAt) {
		t.Error("failed half-open probe reported a fresh trip")
	}
	if b.allow(probeAt.Add(30 * time.Second)) {
		t.Error("re-armed breaker allows traffic mid-cooldown")
	}
	// A successful probe closes the breaker entirely.
	if !b.allow(probeAt.Add(2 * time.Minute)) {
		t.Error("re-armed cooldown elapsed: probe must be allowed")
	}
	b.success()
	if !b.allow(now) {
		t.Error("breaker not closed after a successful probe")
	}
	// And the failure streak restarts from zero.
	if b.failure(now) {
		t.Error("first failure after recovery tripped immediately")
	}
}

func TestReconnectClientNoAddresses(t *testing.T) {
	// A replica set of zero used to divide by zero picking a replica; it
	// must fail each call with an ordinary error instead.
	rc := NewReconnectClient("tcp", nil, nil, ReconnectOptions{})
	defer rc.Close()
	_, err := rc.CallContext(context.Background(), "ping")
	if err == nil || errors.Is(err, ErrShutdown) {
		t.Fatalf("call with no addresses = %v, want a plain error", err)
	}
}
