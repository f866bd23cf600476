package rpc

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"vizndp/internal/telemetry"
)

// rawServer runs fn for every accepted connection on a loopback listener,
// letting tests script exact wire behavior (crash mid-frame, crash before
// replying) that a well-behaved Server never produces.
func rawServer(t *testing.T, fn func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go fn(c)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String()
}

// echoOnce serves exactly one request (echoing its first argument) and
// then closes the connection — a server that crashes between calls.
func echoOnce(c net.Conn) {
	defer c.Close()
	body, err := readFrame(c)
	if err != nil {
		return
	}
	in, err := decodeIncoming(body)
	if err != nil {
		return
	}
	var result any
	if len(in.args) > 0 {
		result = in.args[0]
	}
	resp, err := encodeResponse(in.msgid, nil, result, nil)
	if err != nil {
		return
	}
	_ = writeFrame(c, resp)
}

// wantPeerCrash asserts err is the cause-carrying shutdown error a peer
// crash produces: it matches ErrShutdown but is not the bare sentinel an
// explicit local Close records.
func wantPeerCrash(t *testing.T, err error) {
	t.Helper()
	if !errors.Is(err, ErrShutdown) {
		t.Fatalf("err = %v, want errors.Is(ErrShutdown)", err)
	}
	if err == ErrShutdown { //nolint:errorlint // identity check is the point
		t.Fatal("got the bare ErrShutdown sentinel, want a cause-carrying error")
	}
	if errors.Unwrap(err) == nil {
		t.Fatalf("err = %v carries no cause", err)
	}
}

func TestClientFaultServerDeathMidCall(t *testing.T) {
	addr := rawServer(t, func(c net.Conn) {
		_, _ = readFrame(c)
		c.Close()
	})
	c, err := Dial("tcp", addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Call("ping")
	wantPeerCrash(t, err)
	if !errors.Is(err, io.EOF) {
		t.Errorf("err = %v, want io.EOF cause", err)
	}
	// The poisoning is sticky: later calls report the same failure.
	_, err2 := c.Call("ping")
	wantPeerCrash(t, err2)
}

func TestClientFaultServerDeathMidFrameHeader(t *testing.T) {
	addr := rawServer(t, func(c net.Conn) {
		_, _ = readFrame(c)
		c.Write([]byte{0, 0}) // half a length prefix
		c.Close()
	})
	c, err := Dial("tcp", addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Call("ping")
	wantPeerCrash(t, err)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("err = %v, want io.ErrUnexpectedEOF cause", err)
	}
}

func TestClientFaultServerDeathMidFrameBody(t *testing.T) {
	addr := rawServer(t, func(c net.Conn) {
		_, _ = readFrame(c)
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], 100)
		c.Write(hdr[:])
		c.Write(make([]byte, 10)) // 10 of the promised 100 bytes
		c.Close()
	})
	c, err := Dial("tcp", addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Call("ping")
	wantPeerCrash(t, err)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("err = %v, want io.ErrUnexpectedEOF cause", err)
	}
}

func TestClientFaultServerDeathBetweenCalls(t *testing.T) {
	addr := rawServer(t, echoOnce)
	c, err := Dial("tcp", addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.Call("echo", 7)
	if err != nil || got != int64(7) {
		t.Fatalf("first call = %v, %v", got, err)
	}
	// Whether the next call fails on write (connection reset) or via the
	// read loop's EOF, it must surface a cause-carrying shutdown error.
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, err = c.Call("echo", 8)
		if err != nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	wantPeerCrash(t, err)

	// Contrast: a local Close stays the bare sentinel, so callers can
	// tell their own shutdown from a peer crash.
	c2, err := Dial("tcp", rawServer(t, echoOnce), nil)
	if err != nil {
		t.Fatal(err)
	}
	c2.Close()
	if _, err := c2.Call("echo", 1); err != ErrShutdown { //nolint:errorlint
		t.Errorf("call after local Close = %v, want the bare ErrShutdown", err)
	}
}

func TestClientFaultWriteFailurePoisons(t *testing.T) {
	cli, srv := net.Pipe()
	srv.Close()
	c := NewClient(cli)
	defer c.Close()
	_, err := c.Call("ping")
	wantPeerCrash(t, err)
}

func TestReconnectClientRecoversAcrossServerDeaths(t *testing.T) {
	// Every connection serves exactly one call and dies, so every call
	// after the first needs a fresh connection.
	addr := rawServer(t, echoOnce)
	reconnects := telemetry.Default().Counter("rpc.client.reconnects")
	before := reconnects.Value()
	rc := NewReconnectClient("tcp", []string{addr}, nil, ReconnectOptions{
		Retryable:      map[string]bool{"echo": true},
		InitialBackoff: time.Millisecond,
		MaxBackoff:     10 * time.Millisecond,
		CallTimeout:    2 * time.Second,
		Seed:           1,
	})
	defer rc.Close()
	for i := 0; i < 5; i++ {
		got, err := rc.CallContext(context.Background(), "echo", i)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if got != int64(i) {
			t.Fatalf("call %d = %v", i, got)
		}
	}
	if d := reconnects.Value() - before; d != 4 {
		t.Errorf("reconnects = %d, want 4 (one per call after the first)", d)
	}
}

func TestReconnectClientRetriesRefusedDials(t *testing.T) {
	s := NewServer()
	s.Register("ping", func(_ context.Context, _ []any) (any, error) {
		return "pong", nil
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	defer s.Close()

	var dials atomic.Int64
	dialFn := func(network, addr string) (net.Conn, error) {
		if dials.Add(1) <= 2 {
			return nil, errors.New("injected: connection refused")
		}
		return net.Dial(network, addr)
	}
	retries := telemetry.Default().Counter("rpc.client.retries")
	before := retries.Value()
	rc := NewReconnectClient("tcp", []string{ln.Addr().String()}, dialFn, ReconnectOptions{
		Retryable:      map[string]bool{"ping": true},
		InitialBackoff: time.Millisecond,
		MaxBackoff:     10 * time.Millisecond,
		Seed:           2,
	})
	defer rc.Close()
	got, err := rc.CallContext(context.Background(), "ping")
	if err != nil || got != "pong" {
		t.Fatalf("call = %v, %v", got, err)
	}
	if n := dials.Load(); n != 3 {
		t.Errorf("dials = %d, want 3", n)
	}
	if d := retries.Value() - before; d != 2 {
		t.Errorf("retries = %d, want 2", d)
	}
}

func TestReconnectClientDoesNotRetryNonIdempotent(t *testing.T) {
	var served, dials atomic.Int64
	addr := rawServer(t, func(c net.Conn) {
		_, _ = readFrame(c)
		served.Add(1)
		c.Close() // crash before replying: did the handler run? unknowable
	})
	dialFn := func(network, addr string) (net.Conn, error) {
		dials.Add(1)
		return net.Dial(network, addr)
	}
	rc := NewReconnectClient("tcp", []string{addr}, dialFn, ReconnectOptions{
		InitialBackoff: time.Millisecond,
		Seed:           3,
		// Retryable deliberately empty: no method may be re-issued.
	})
	defer rc.Close()
	_, err := rc.CallContext(context.Background(), "mutate")
	if !errors.Is(err, ErrShutdown) {
		t.Fatalf("err = %v, want ErrShutdown match", err)
	}
	// Every attempt dials and is served before CallContext returns: the
	// server counts a request before it closes the connection under it.
	if n := dials.Load(); n != 1 {
		t.Errorf("%d dials, want exactly 1: the call was re-issued", n)
	}
	if n := served.Load(); n != 1 {
		t.Errorf("request issued %d times, want exactly 1", n)
	}
}

func TestReconnectClientDoesNotRetryServerErrors(t *testing.T) {
	var handled atomic.Int64
	s := NewServer()
	s.Register("fail", func(_ context.Context, _ []any) (any, error) {
		handled.Add(1)
		return nil, errors.New("application error")
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	defer s.Close()
	rc := NewReconnectClient("tcp", []string{ln.Addr().String()}, nil, ReconnectOptions{
		Retryable:      map[string]bool{"fail": true},
		InitialBackoff: time.Millisecond,
		Seed:           4,
	})
	defer rc.Close()
	_, err = rc.CallContext(context.Background(), "fail")
	var se ServerError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want ServerError", err)
	}
	if n := handled.Load(); n != 1 {
		t.Errorf("handler ran %d times, want exactly 1", n)
	}
}

func TestReconnectClientClosed(t *testing.T) {
	rc := NewReconnectClient("tcp", []string{"127.0.0.1:1"}, nil, ReconnectOptions{})
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := rc.CallContext(context.Background(), "ping"); !errors.Is(err, ErrShutdown) {
		t.Errorf("call on closed client = %v, want ErrShutdown", err)
	}
	if err := rc.Close(); err != nil {
		t.Errorf("second Close = %v", err)
	}
}

func TestReconnectClientHonorsCallerCancellation(t *testing.T) {
	// A dead target plus a cancelled context must return promptly with
	// the context's error, not spin through backoff.
	var dials atomic.Int64
	dialed := make(chan struct{})
	dialFn := func(network, addr string) (net.Conn, error) {
		if dials.Add(1) == 1 {
			close(dialed)
		}
		return nil, errors.New("injected: connection refused")
	}
	rc := NewReconnectClient("tcp", []string{"127.0.0.1:1"}, dialFn, ReconnectOptions{
		Retryable:      map[string]bool{"ping": true},
		MaxAttempts:    100,
		InitialBackoff: 50 * time.Millisecond,
		MaxBackoff:     50 * time.Millisecond,
		Seed:           5,
	})
	defer rc.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := rc.CallContext(ctx, "ping")
		done <- err
	}()
	<-dialed // the first attempt failed; the call is in its retry loop
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled call did not return")
	}
	if n := dials.Load(); n >= 100 {
		t.Errorf("dials = %d, cancellation did not stop the retry loop", n)
	}
}

// TestReconnectClientHomeRoute pins WithHome: a homed call's first
// attempt lands on its home mod n, an open breaker on the home sends it
// to the next sibling, and a retry after a failure on the home goes
// elsewhere; a call with no home still goes round-robin.
func TestReconnectClientHomeRoute(t *testing.T) {
	addrs := make([]string, 3)
	for i := range addrs {
		s := NewServer()
		s.Register("who", func(context.Context, []any) (any, error) { return int64(i), nil })
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go s.Serve(ln)
		t.Cleanup(s.Close)
		addrs[i] = ln.Addr().String()
	}
	who := func(t *testing.T, rc *ReconnectClient, ctx context.Context) int64 {
		t.Helper()
		got, err := rc.CallContext(ctx, "who")
		if err != nil {
			t.Fatal(err)
		}
		return got.(int64)
	}
	opts := ReconnectOptions{
		Retryable:        map[string]bool{"who": true},
		InitialBackoff:   time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Minute,
		Seed:             6,
	}
	rc := NewReconnectClient("tcp", addrs, nil, opts)
	defer rc.Close()

	// Out of order and repeated, so a round-robin cursor cannot match.
	for _, home := range []int{2, 2, 0, 4, 4, 3} {
		if got := who(t, rc, WithHome(context.Background(), home)); got != int64(home%len(addrs)) {
			t.Errorf("home %d: call landed on %d, want %d", home, got, home%len(addrs))
		}
	}
	seen := map[int64]bool{}
	for range addrs {
		seen[who(t, rc, context.Background())] = true
	}
	if len(seen) != len(addrs) {
		t.Errorf("%d calls with no home reached %d addresses, want round-robin over all", len(addrs), len(seen))
	}

	for range opts.BreakerThreshold {
		rc.replicas[1].brk.failure(time.Now())
	}
	for _, home := range []int{1, 4} {
		if got := who(t, rc, WithHome(context.Background(), home)); got != 2 {
			t.Errorf("home %d with its breaker open: call landed on %d, want the next sibling 2", home, got)
		}
	}

	// Every dial to address 0 is refused: a call homed there fails once,
	// then moves on.
	var refused atomic.Int64
	dialFn := func(network, addr string) (net.Conn, error) {
		if addr == addrs[0] {
			refused.Add(1)
			return nil, errors.New("injected: connection refused")
		}
		return net.Dial(network, addr)
	}
	opts.BreakerThreshold = 100
	failovers := telemetry.Default().Counter("core.pool.failovers")
	before := failovers.Value()
	rc2 := NewReconnectClient("tcp", addrs, dialFn, opts)
	defer rc2.Close()
	if got := who(t, rc2, WithHome(context.Background(), 0)); got == 0 {
		t.Error("the retry after a failure on the home went back to the home")
	}
	if n := refused.Load(); n != 1 {
		t.Errorf("%d attempts on the failing home, want exactly the first", n)
	}
	if d := failovers.Value() - before; d != 1 {
		t.Errorf("core.pool.failovers rose by %d, want 1", d)
	}
}
