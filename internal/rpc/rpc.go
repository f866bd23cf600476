// Package rpc is a small MessagePack-RPC implementation standing in for
// rpclib, which the paper's prototype uses to connect the storage-side
// pre-filter sub-pipeline to the client-side post-filter sub-pipeline.
//
// Messages follow the msgpack-rpc shapes: requests are
// [0, msgid, method, params], responses are [1, msgid, error, result],
// and notifications are [2, method, params], which the server decodes and
// drops without running a handler. Unlike rpclib, each message
// is carried in a 4-byte big-endian length-prefixed frame, which keeps
// the stream decoder trivial without changing any measured behaviour
// (the prefix adds 4 bytes per message).
//
// Telemetry rides the same frames as optional trailing elements, so one
// trace covers client -> server -> pre-filter: a traced request is
// [0, msgid, method, params, tracectx] where tracectx is a
// telemetry.Span wire context, and its response is
// [1, msgid, error, result, spans] where spans are the server's span
// tree for the request, derived from its stage record. Untraced peers
// simply omit the fifth element, so both directions stay compatible
// with plain msgpack-rpc endpoints.
//
// Two further extensions keep the same one-sided compatibility story.
// A caller with a context deadline appends ";dl=<remaining ns>" to the
// fifth element, so the server can stop burning storage CPU on requests
// the caller has already abandoned; an old server's trace-context parse
// fails closed and it simply serves the request untraced and unbounded.
// A server shedding load marks the response's error string with a
// reserved control-byte prefix that new clients decode into the
// retryable ErrBusy; old clients see an ordinary server error string.
// A server that caught its stored bytes lying — a checksum mismatch, a
// truncated extent or a damaged header — marks the response the same
// way for ErrCorrupt, so new clients can route the failure to data-level
// recovery (retry, sibling shard, raw fallback) while old clients again
// degrade to a plain server error.
//
// Clients multiplex concurrent calls over one connection; servers handle
// each request in its own goroutine, optionally bounded by admission
// control (WithMaxInFlight / WithQueue) and drained gracefully by
// Shutdown.
package rpc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"vizndp/internal/msgpack"
	"vizndp/internal/telemetry"
)

// Metrics reported to the default telemetry registry.
var (
	mClientCalls     = telemetry.Default().Counter("rpc.client.calls")
	mClientErrors    = telemetry.Default().Counter("rpc.client.errors")
	mClientSeconds   = telemetry.Default().Histogram("rpc.client.seconds")
	mClientBytesOut  = telemetry.Default().Counter("rpc.client.bytes.sent")
	mClientBytesIn   = telemetry.Default().Counter("rpc.client.bytes.rcvd")
	mServerRequests  = telemetry.Default().Counter("rpc.server.requests")
	mServerErrors    = telemetry.Default().Counter("rpc.server.errors")
	mServerSeconds   = telemetry.Default().Histogram("rpc.server.seconds")
	mServerBytesOut  = telemetry.Default().Counter("rpc.server.bytes.sent")
	mServerBytesIn   = telemetry.Default().Counter("rpc.server.bytes.rcvd")
	mServerInFlight  = telemetry.Default().Gauge("rpc.server.inflight")
	mClientDiscarded = telemetry.Default().Counter("rpc.client.responses.discarded")
	mServerShed      = telemetry.Default().Counter("rpc.server.shed")
	mServerQueued    = telemetry.Default().Gauge("rpc.server.queue.depth")
	mServerDeadlines = telemetry.Default().Counter("rpc.server.deadline.expired")
	mServerProtoErrs = telemetry.Default().Counter("rpc.server.protocol_errors")
)

var logger = telemetry.Logger("rpc")

// Message type tags from the msgpack-rpc spec.
const (
	typeRequest      = 0
	typeResponse     = 1
	typeNotification = 2
)

// maxFrameSize bounds a single RPC message. Pre-filter replies carry whole
// filtered arrays, so the bound is generous.
const maxFrameSize = 1 << 30

// ErrShutdown is returned for calls on a closed client.
var ErrShutdown = errors.New("rpc: client is shut down")

// shutdownError is the sticky error a client records when its connection
// dies underneath it (peer crash, write failure, protocol error). It
// matches errors.Is(err, ErrShutdown) like an explicit Close does, but
// keeps the underlying transport failure reachable through Unwrap so
// callers — the retry layer above all — can distinguish a peer crash
// (cause-carrying) from a local Close (bare ErrShutdown) and inspect the
// cause (io.EOF, io.ErrUnexpectedEOF, net errors).
type shutdownError struct{ cause error }

func (e *shutdownError) Error() string {
	return fmt.Sprintf("rpc: client is shut down: %v", e.cause)
}

func (e *shutdownError) Is(target error) bool { return target == ErrShutdown }

func (e *shutdownError) Unwrap() error { return e.cause }

// shutdownWith wraps cause as a sticky shutdown error; a nil cause is an
// explicit local shutdown and stays the bare ErrShutdown sentinel.
func shutdownWith(cause error) error {
	if cause == nil || cause == ErrShutdown {
		return ErrShutdown
	}
	return &shutdownError{cause: cause}
}

// ErrBusy is the distinguished overload rejection: the server shed the
// request before its handler ran (admission queue full, or the server
// is draining), so re-issuing it is safe for any method — idempotent or
// not. On the wire it travels as a reserved prefix on the response's
// error string; new clients decode it back into an error matching
// errors.Is(err, ErrBusy), old clients degrade to an ordinary
// ServerError.
var ErrBusy = errors.New("rpc: server busy")

// busyWirePrefix marks a response error string as ErrBusy on the wire.
// The control bytes keep legitimate handler error messages, which are
// human-readable text, from colliding with the marker.
const busyWirePrefix = "\x01busy\x01"

// busyError is the client-side decoding of a busy-marked response
// error: the server's message, matching errors.Is(err, ErrBusy).
type busyError string

func (e busyError) Error() string { return string(e) }

// Is makes decoded busy rejections match the ErrBusy sentinel.
func (e busyError) Is(target error) bool { return target == ErrBusy }

// ErrCorrupt is the distinguished data-integrity rejection: the server
// read stored (or in-flight) bytes that failed their recorded checksum,
// or an extent visibly cut short. Unlike a transport failure the node
// itself answered promptly — the fault travels with the DATA — so
// callers should re-read, try a sibling replica, or fall back to the
// raw path rather than back off from the node. On the wire it travels
// like ErrBusy: a reserved prefix on the response's error string that
// new clients decode into an error matching errors.Is(err, ErrCorrupt);
// old clients see an ordinary ServerError.
var ErrCorrupt = errors.New("rpc: corrupt data")

// corruptWirePrefix marks a response error string as ErrCorrupt on the
// wire, with the same control-byte collision guard as busyWirePrefix.
const corruptWirePrefix = "\x01corrupt\x01"

// corruptError is the client-side decoding of a corrupt-marked response
// error: the server's message, matching errors.Is(err, ErrCorrupt).
// Deliberately NOT a ServerError: the retry layers treat ServerError as
// a definitive handler verdict, while a corrupt read is worth retrying.
type corruptError string

func (e corruptError) Error() string { return string(e) }

// Is makes decoded corruption rejections match the ErrCorrupt sentinel.
func (e corruptError) Is(target error) bool { return target == ErrCorrupt }

// ServerError is an error string returned by the remote side.
type ServerError string

func (e ServerError) Error() string { return string(e) }

// deadlineSep separates the optional remaining-deadline field from the
// trace context inside a request frame's fifth (meta) element:
// "<tracectx>;dl=<nanoseconds>". Riding inside the existing string
// element — rather than adding a sixth frame element — keeps old
// servers compatible: their trace-context parse fails closed on the
// suffix and they serve the request untraced, while frames without a
// deadline stay byte-identical to the old format.
const deadlineSep = ";dl="

// encodeMeta builds a request's meta element from the caller's trace
// context and remaining deadline (0 = none). Either part may be empty.
func encodeMeta(wireCtx string, deadline time.Duration) string {
	if deadline <= 0 {
		return wireCtx
	}
	return wireCtx + deadlineSep + strconv.FormatInt(int64(deadline), 10)
}

// splitMeta parses a meta element back into trace context and remaining
// deadline. Malformed or non-positive deadlines are dropped rather than
// rejected — a peer speaking a future dialect keeps being served, it
// just gets no deadline.
func splitMeta(meta string) (wireCtx string, deadline time.Duration) {
	head, tail, found := strings.Cut(meta, deadlineSep)
	if !found {
		return meta, 0
	}
	ns, err := strconv.ParseInt(tail, 10, 64)
	if err != nil || ns <= 0 {
		return head, 0
	}
	return head, time.Duration(ns)
}

// Handler processes one call. Args are the decoded params; the returned
// value must be encodable by msgpack.Encoder.PutAny.
type Handler func(ctx context.Context, args []any) (any, error)

// writeFrame sends one length-prefixed message body.
func writeFrame(w io.Writer, body []byte) error {
	if len(body) > maxFrameSize {
		return fmt.Errorf("rpc: frame of %d bytes exceeds limit", len(body))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// readFrame reads one length-prefixed message body.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrameSize {
		return nil, fmt.Errorf("rpc: incoming frame of %d bytes exceeds limit", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

// Server dispatches msgpack-rpc requests to registered handlers.
type Server struct {
	mu       sync.RWMutex
	handlers map[string]registered

	lnMu      sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	closed    bool
	draining  bool
	inflight  int           // accepted requests not yet finished
	idle      chan struct{} // closed when inflight drains to zero

	// Admission control (nil slots = unbounded, the seed behaviour):
	// slots holds one token per concurrently executing request; up to
	// maxQueue further requests wait for a token, and past that the
	// server sheds with ErrBusy instead of letting work pile up.
	maxInFlight int
	maxQueue    int
	slots       chan struct{}

	admMu  sync.Mutex
	queued int
}

// ServerOption customizes a Server.
type ServerOption func(*Server)

// WithMaxInFlight bounds how many requests execute concurrently across
// all connections; further requests wait in the admission queue (see
// WithQueue). n <= 0 means unbounded, the default.
func WithMaxInFlight(n int) ServerOption {
	return func(s *Server) { s.maxInFlight = n }
}

// WithQueue bounds how many admitted requests may wait for an execution
// slot; beyond it the server immediately sheds new requests with the
// retryable ErrBusy. Only meaningful together with WithMaxInFlight.
// n <= 0 (the default) means no waiting room: every request beyond the
// in-flight bound is shed.
func WithQueue(n int) ServerOption {
	return func(s *Server) { s.maxQueue = n }
}

// NewServer returns an empty server.
func NewServer(opts ...ServerOption) *Server {
	s := &Server{
		handlers:  make(map[string]registered),
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.maxInFlight > 0 {
		s.slots = make(chan struct{}, s.maxInFlight)
	}
	return s
}

// registered is one method's handler and its dispatch metrics,
// rpc.server.call.<method>.seconds and .errors. Register resolves them
// once, so a method name a peer makes up creates no metric.
type registered struct {
	h       Handler
	seconds *telemetry.Histogram
	errors  *telemetry.Counter
}

// Register binds a handler to a method name, replacing any previous one.
func (s *Server) Register(method string, h Handler) {
	r := registered{
		h:       h,
		seconds: telemetry.Default().Histogram("rpc.server.call." + method + ".seconds"),
		errors:  telemetry.Default().Counter("rpc.server.call." + method + ".errors"),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[method] = r
}

// Serve accepts connections from ln until the listener or server
// closes. A stopped server — Close or Shutdown, before or during the
// loop — yields ErrShutdown so callers can tell a deliberate stop from
// a transport failure, which is returned wrapped with the listener
// address.
func (s *Server) Serve(ln net.Listener) error {
	s.lnMu.Lock()
	if s.closed || s.draining {
		s.lnMu.Unlock()
		ln.Close()
		return ErrShutdown
	}
	s.listeners[ln] = struct{}{}
	s.lnMu.Unlock()
	defer func() {
		s.lnMu.Lock()
		delete(s.listeners, ln)
		s.lnMu.Unlock()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.lnMu.Lock()
			stopped := s.closed || s.draining
			s.lnMu.Unlock()
			if stopped {
				return ErrShutdown
			}
			return fmt.Errorf("rpc: accept on %s: %w", ln.Addr(), err)
		}
		go s.ServeConn(conn)
	}
}

// Close stops all listeners and open connections immediately; in-flight
// handlers lose their connection mid-response. Use Shutdown to drain
// them first.
func (s *Server) Close() {
	s.lnMu.Lock()
	s.closed = true
	for ln := range s.listeners {
		ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.lnMu.Unlock()
}

// Shutdown drains the server gracefully: stop accepting connections,
// shed new requests with the retryable ErrBusy, let every accepted
// request finish, then close the connections. When ctx expires first,
// the remaining connections are force-closed mid-response and ctx's
// error is returned; nil means no accepted request was cut off.
func (s *Server) Shutdown(ctx context.Context) error {
	s.lnMu.Lock()
	if s.closed {
		s.lnMu.Unlock()
		return nil
	}
	s.draining = true
	for ln := range s.listeners {
		ln.Close()
	}
	var idle chan struct{}
	if s.inflight > 0 {
		if s.idle == nil {
			s.idle = make(chan struct{})
		}
		idle = s.idle
	}
	s.lnMu.Unlock()

	var err error
	if idle != nil {
		select {
		case <-idle:
		case <-ctx.Done():
			err = ctx.Err()
		}
	}
	s.Close()
	return err
}

// beginRequest registers one accepted unit of work. It reports false —
// shed, do not run — once the server is draining or closed, so Shutdown
// can rely on the inflight count only ever falling after the drain
// begins.
func (s *Server) beginRequest() bool {
	s.lnMu.Lock()
	defer s.lnMu.Unlock()
	if s.closed || s.draining {
		return false
	}
	s.inflight++
	return true
}

// endRequest retires one accepted request, waking a pending Shutdown
// when the last one finishes.
func (s *Server) endRequest() {
	s.lnMu.Lock()
	s.inflight--
	if s.inflight == 0 && s.idle != nil {
		close(s.idle)
		s.idle = nil
	}
	s.lnMu.Unlock()
}

// admit acquires an execution slot, waiting in the bounded admission
// queue while all slots are busy. It returns the slot's release func;
// or ErrBusy when the queue is already full (the shed is counted); or
// ctx's error when the caller's deadline expires — or its connection
// dies — before a slot frees up.
func (s *Server) admit(ctx context.Context) (func(), error) {
	if s.slots == nil {
		return func() {}, nil
	}
	select {
	case s.slots <- struct{}{}:
		return s.releaseSlot, nil
	default:
	}
	s.admMu.Lock()
	if s.queued >= s.maxQueue {
		s.admMu.Unlock()
		mServerShed.Inc()
		return nil, fmt.Errorf("%w: %d in flight, %d queued", ErrBusy, s.maxInFlight, s.maxQueue)
	}
	s.queued++
	mServerQueued.Set(int64(s.queued))
	s.admMu.Unlock()
	defer func() {
		s.admMu.Lock()
		s.queued--
		mServerQueued.Set(int64(s.queued))
		s.admMu.Unlock()
	}()
	select {
	case s.slots <- struct{}{}:
		return s.releaseSlot, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (s *Server) releaseSlot() { <-s.slots }

// ServeConn processes requests from one connection until it closes.
// Requests run concurrently; responses are serialized.
func (s *Server) ServeConn(conn net.Conn) {
	s.lnMu.Lock()
	if s.closed {
		s.lnMu.Unlock()
		conn.Close()
		return
	}
	s.conns[conn] = struct{}{}
	s.lnMu.Unlock()

	var wmu sync.Mutex // serialize response frames
	var wg sync.WaitGroup
	// The connection is a root: no caller context exists at accept
	// time, and per-request deadlines attach downstream.
	ctx, cancel := context.WithCancel(context.Background())
	defer func() {
		cancel()
		wg.Wait()
		conn.Close()
		s.lnMu.Lock()
		delete(s.conns, conn)
		s.lnMu.Unlock()
	}()

	for {
		body, err := readFrame(conn)
		if err != nil {
			return
		}
		mServerBytesIn.Add(int64(len(body) + 4))
		in, err := decodeIncoming(body)
		in.frameBytes = len(body) + 4
		if err != nil {
			mServerProtoErrs.Inc()
			logger.Warn("dropping connection on protocol error",
				"remote", conn.RemoteAddr().String(), "err", err)
			return // protocol error: drop the connection
		}
		if in.msgType == typeNotification {
			// No reply can carry a notification's result, and a handler's
			// only product is its reply: running one would read and scan
			// for no one.
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.runRequest(ctx, conn, &wmu, in)
		}()
	}
}

// runRequest executes one call end to end: drain accounting, deadline
// derivation, admission, dispatch, and the serialized response write.
// Every call also produces one wide event in the flight recorder,
// assembled as the request moves through each stage; its stage record
// times the admission queue, the handler's stages and the write.
func (s *Server) runRequest(ctx context.Context, conn net.Conn, wmu *sync.Mutex, in incoming) {
	mServerRequests.Inc()
	m := s.lookup(in.method)
	ev := telemetry.DefaultFlightRecorder().Begin(telemetry.KindServer, in.method)
	ev.SetBytesIn(int64(in.frameBytes))
	if in.deadline > 0 {
		ev.SetBudget(in.deadline)
	}
	// The request's "serve <method>" span: a child of the caller's span
	// when the caller traced the call, else the root of a new trace.
	wireTrace, wireSpan, traced := telemetry.ParseWireContext(in.wireCtx)
	serve := telemetry.SpanData{Trace: wireTrace, Parent: wireSpan, ID: telemetry.NewSpanID(), Name: "serve " + in.method}
	if !traced {
		serve.Trace = telemetry.NewSpanID()
	}
	ev.SetSpanIDs(serve.Trace, serve.ID)

	if !s.beginRequest() {
		mServerShed.Inc()
		ev.MarkShed()
		s.finish(ev, conn, wmu, in.msgid, fmt.Errorf("%w: draining", ErrBusy), nil, nil)
		return
	}
	defer s.endRequest()

	// The caller's remaining deadline bounds everything that follows —
	// queue wait included — so an abandoned request stops burning
	// storage-node CPU as soon as the handler observes its context.
	hctx := ctx
	if in.deadline > 0 {
		var cancel context.CancelFunc
		hctx, cancel = context.WithTimeout(hctx, in.deadline)
		defer cancel()
	}

	queueStart := time.Now()
	release, err := s.admit(hctx)
	ev.Stage("queue", queueStart)
	if err != nil {
		if errors.Is(err, ErrBusy) {
			ev.MarkShed()
		}
		if in.deadline > 0 && errors.Is(err, context.DeadlineExceeded) {
			mServerDeadlines.Inc()
			ev.MarkExpired()
			err = fmt.Errorf("rpc: deadline expired in admission queue: %w", err)
		}
		s.finish(ev, conn, wmu, in.msgid, err, nil, nil)
		return
	}
	defer release()
	mServerInFlight.Add(1)
	defer mServerInFlight.Add(-1)

	hctx = telemetry.ContextWithEvent(hctx, ev)
	serve.Start = time.Now()
	result, herr := m.call(hctx, in.method, in.args)
	serve.Dur = time.Since(serve.Start)
	mServerSeconds.ObserveExemplar(serve.Dur.Seconds(), serve.Trace)
	if m.h != nil {
		m.seconds.ObserveExemplar(serve.Dur.Seconds(), serve.Trace)
	}
	if herr != nil {
		mServerErrors.Inc()
		if m.h != nil {
			m.errors.Inc()
		}
		serve.Attrs = map[string]any{"error": herr.Error()}
		logger.Debug("handler error", "method", in.method, "err", herr)
	}
	if in.deadline > 0 && errors.Is(hctx.Err(), context.DeadlineExceeded) {
		mServerDeadlines.Inc()
		ev.MarkExpired()
	}
	// The tree is in the ring before the event finishes, so a debug
	// bundle the event triggers holds it; a traced caller gets it back.
	spans := ev.Spans(serve)
	telemetry.DefaultTracer().Record(spans...)
	if !traced {
		spans = nil
	}
	s.finish(ev, conn, wmu, in.msgid, herr, result, spans)
}

// finish encodes and writes one response frame under the connection's
// write mutex — the request's write stage — and records its event.
func (s *Server) finish(ev *telemetry.ActiveEvent, conn net.Conn, wmu *sync.Mutex, msgid int64, herr error, result any, spans []telemetry.SpanData) {
	start := time.Now()
	resp, err := encodeResponse(msgid, herr, result, spans)
	if err != nil {
		resp, _ = encodeResponse(msgid, fmt.Errorf("rpc: unencodable result: %w", err), nil, nil)
	}
	wmu.Lock()
	if writeFrame(conn, resp) == nil {
		mServerBytesOut.Add(int64(len(resp) + 4))
		ev.SetBytesOut(int64(len(resp) + 4))
	}
	wmu.Unlock()
	ev.Stage("write", start)
	ev.Finish(herr)
}

func (s *Server) lookup(method string) registered {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.handlers[method]
}

// call runs the handler, or reports method as unknown when none is
// registered.
func (m registered) call(ctx context.Context, method string, args []any) (any, error) {
	if m.h == nil {
		return nil, fmt.Errorf("rpc: unknown method %q", method)
	}
	return m.h(ctx, args)
}

// incoming is one decoded request or notification frame.
type incoming struct {
	msgType    int64
	msgid      int64
	method     string
	args       []any
	wireCtx    string
	deadline   time.Duration // caller's remaining deadline; 0 = none
	frameBytes int           // wire size of the request frame (set by ServeConn)
}

// decodeIncoming parses a request or notification frame. Requests may
// carry an optional fifth (meta) element: the caller's trace context,
// optionally suffixed with its remaining deadline.
func decodeIncoming(body []byte) (incoming, error) {
	var in incoming
	d := msgpack.NewDecoder(body)
	n, err := d.ReadArrayLen()
	if err != nil {
		return incoming{}, err
	}
	if in.msgType, err = d.ReadInt(); err != nil {
		return incoming{}, err
	}
	switch in.msgType {
	case typeRequest:
		if n != 4 && n != 5 {
			return incoming{}, fmt.Errorf("rpc: request with %d elements", n)
		}
		if in.msgid, err = d.ReadInt(); err != nil {
			return incoming{}, err
		}
	case typeNotification:
		if n != 3 {
			return incoming{}, fmt.Errorf("rpc: notification with %d elements", n)
		}
	default:
		return incoming{}, fmt.Errorf("rpc: unexpected message type %d", in.msgType)
	}
	if in.method, err = d.ReadString(); err != nil {
		return incoming{}, err
	}
	nargs, err := d.ReadArrayLen()
	if err != nil {
		return incoming{}, err
	}
	in.args = make([]any, nargs)
	for i := range in.args {
		if in.args[i], err = d.ReadAny(); err != nil {
			return incoming{}, err
		}
	}
	if in.msgType == typeRequest && n == 5 {
		meta, err := d.ReadString()
		if err != nil {
			return incoming{}, err
		}
		in.wireCtx, in.deadline = splitMeta(meta)
	}
	return in, nil
}

func encodeResponse(msgid int64, herr error, result any, spans []telemetry.SpanData) ([]byte, error) {
	e := msgpack.NewEncoder(256)
	if len(spans) > 0 {
		e.PutArrayLen(5)
	} else {
		e.PutArrayLen(4)
	}
	e.PutInt(typeResponse)
	e.PutInt(msgid)
	if herr != nil {
		// Busy and corrupt rejections keep the error a plain string — old
		// clients must still decode the frame — but carry their reserved
		// prefix so new clients recover the retryable identity.
		switch {
		case errors.Is(herr, ErrBusy):
			e.PutString(busyWirePrefix + herr.Error())
		case errors.Is(herr, ErrCorrupt):
			e.PutString(corruptWirePrefix + herr.Error())
		default:
			e.PutString(herr.Error())
		}
	} else {
		e.PutNil()
	}
	if err := e.PutAny(result); err != nil {
		return nil, err
	}
	if len(spans) > 0 {
		wire := make([]any, len(spans))
		for i, d := range spans {
			wire[i] = d.ToWire()
		}
		if err := e.PutAny(wire); err != nil {
			return nil, err
		}
	}
	return e.Bytes(), nil
}

// Client is a msgpack-rpc client multiplexing calls over one connection.
type Client struct {
	conn net.Conn

	wmu sync.Mutex // serialize request frames

	mu      sync.Mutex
	seq     int64
	pending map[int64]chan response
	closed  bool
	err     error
}

type response struct {
	result any
	err    error
	spans  []telemetry.SpanData // server-side spans from a traced call
}

// NewClient starts a client over an established connection.
func NewClient(conn net.Conn) *Client {
	c := &Client{conn: conn, pending: make(map[int64]chan response)}
	go c.readLoop()
	return c
}

// Dial connects to a server using the given dial function (for example
// a netsim.Link's Dial) or net.Dial when dialFn is nil.
func Dial(network, addr string, dialFn func(network, addr string) (net.Conn, error)) (*Client, error) {
	if dialFn == nil {
		dialFn = net.Dial
	}
	conn, err := dialFn(network, addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// Close tears down the connection; pending and subsequent calls fail
// with ErrShutdown.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	// Record the explicit shutdown before the readLoop observes the
	// closed connection, so later calls report ErrShutdown rather than
	// the loop's raw "use of closed network connection" error.
	if c.err == nil {
		c.err = ErrShutdown
	}
	c.mu.Unlock()
	return c.conn.Close()
}

func (c *Client) readLoop() {
	var loopErr error
	for {
		body, err := readFrame(c.conn)
		if err != nil {
			loopErr = err
			break
		}
		mClientBytesIn.Add(int64(len(body) + 4))
		msgid, resp, err := decodeResponse(body)
		if err != nil {
			loopErr = err
			break
		}
		// Import server-side spans into the local ring before delivering
		// the response, so a caller dumping the trace right after the
		// call completes sees the whole tree.
		telemetry.DefaultTracer().Record(resp.spans...)
		c.mu.Lock()
		ch := c.pending[msgid]
		delete(c.pending, msgid)
		c.mu.Unlock()
		if ch != nil {
			// Pending channels are buffered (cap 1) and the map delete
			// above guarantees a single sender per msgid.
			ch <- resp
		} else {
			mClientDiscarded.Inc()
			logger.Debug("discarding response for unknown msgid", "msgid", msgid)
		}
	}
	c.fail(loopErr)
}

// fail poisons the client: the connection's stream state is unknown (a
// partial frame write, a read error, a dead peer), so no further frame
// can safely be sent or interpreted. It closes the connection, fails
// every pending call, and makes the error sticky — all later calls get
// the same cause-carrying shutdown error. The first failure wins; a
// client poisoned twice keeps its original cause. Returns the sticky
// error.
func (c *Client) fail(cause error) error {
	c.mu.Lock()
	if c.err == nil {
		c.err = shutdownWith(cause)
	}
	c.closed = true
	err := c.err
	// Detach the pending map under the lock but deliver shutdown errors
	// after releasing it: the channels are buffered today, but sending
	// while holding c.mu would deadlock against any future unbuffered
	// consumer that needs the lock to make progress.
	pending := c.pending
	c.pending = make(map[int64]chan response)
	c.mu.Unlock()
	c.conn.Close()
	for _, ch := range pending {
		// Pending channels are buffered (cap 1), and the map swap above
		// removed them from any other sender's reach.
		ch <- response{err: err}
	}
	return err
}

func decodeResponse(body []byte) (int64, response, error) {
	d := msgpack.NewDecoder(body)
	n, err := d.ReadArrayLen()
	if err != nil {
		return 0, response{}, fmt.Errorf("rpc: bad response header: %w", err)
	}
	if n != 4 && n != 5 {
		return 0, response{}, fmt.Errorf("rpc: bad response header (n=%d)", n)
	}
	t, err := d.ReadInt()
	if err != nil {
		return 0, response{}, fmt.Errorf("rpc: bad response type: %w", err)
	}
	if t != typeResponse {
		return 0, response{}, fmt.Errorf("rpc: unexpected message type %d", t)
	}
	msgid, err := d.ReadInt()
	if err != nil {
		return 0, response{}, err
	}
	var resp response
	if d.IsNil() {
		_ = d.ReadNil()
	} else {
		msg, err := d.ReadString()
		if err != nil {
			return 0, response{}, err
		}
		if rest, ok := strings.CutPrefix(msg, busyWirePrefix); ok {
			resp.err = busyError(rest)
		} else if rest, ok := strings.CutPrefix(msg, corruptWirePrefix); ok {
			resp.err = corruptError(rest)
		} else {
			resp.err = ServerError(msg)
		}
	}
	if resp.result, err = d.ReadAny(); err != nil {
		return 0, response{}, err
	}
	if n == 5 {
		raw, err := d.ReadAny()
		if err != nil {
			return 0, response{}, err
		}
		if items, ok := raw.([]any); ok {
			for _, it := range items {
				if sd, ok := telemetry.SpanDataFromWire(it); ok {
					resp.spans = append(resp.spans, sd)
				}
			}
		}
	}
	return msgid, resp, nil
}

// CallContext invokes method with args and waits for the result, the
// context's cancellation, or its deadline — whichever comes first. A
// cancelled call abandons its pending slot; the connection stays usable
// and a late reply for that id is discarded by the read loop.
//
// When ctx carries a telemetry span, the call runs under a child span
// whose identity is injected into the request frame, so server-side
// spans join the caller's trace and come back in the response.
func (c *Client) CallContext(ctx context.Context, method string, args ...any) (any, error) {
	var span *telemetry.Span
	wireCtx := ""
	if telemetry.SpanFromContext(ctx) != nil {
		_, span = telemetry.StartSpan(ctx, "call "+method)
		wireCtx = span.WireContext()
	}
	mClientCalls.Inc()
	start := time.Now()
	result, err := c.callWire(ctx, method, args, wireCtx)
	mClientSeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		mClientErrors.Inc()
		span.SetAttr("error", err.Error())
	}
	span.End()
	return result, err
}

func (c *Client) callWire(ctx context.Context, method string, args []any, wireCtx string) (any, error) {
	// Propagate the remaining deadline so the server can stop working on
	// this request the moment we would stop waiting for it.
	var deadline time.Duration
	if dl, ok := ctx.Deadline(); ok {
		deadline = time.Until(dl)
		if deadline <= 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return nil, context.DeadlineExceeded
		}
	}
	ch, msgid, err := c.send(method, args, encodeMeta(wireCtx, deadline))
	if err != nil {
		return nil, err
	}
	select {
	case resp := <-ch:
		// The server runs the handler under the deadline we sent, so its
		// "deadline exceeded" reply can be ready together with our own
		// ctx.Done, or even beat our context's timer; either way the
		// caller sees its own error, whichever case select picks.
		if resp.err != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
				return nil, context.DeadlineExceeded
			}
		}
		return resp.result, resp.err
	case <-ctx.Done():
		c.abandon(msgid)
		return nil, ctx.Err()
	}
}

// Call invokes method with args and waits for the result.
func (c *Client) Call(method string, args ...any) (any, error) {
	return c.CallContext(context.Background(), method, args...)
}

// send registers a pending call and writes the request frame. meta is
// the request's fifth element — trace context plus optional deadline —
// or empty for a plain four-element frame.
func (c *Client) send(method string, args []any, meta string) (chan response, int64, error) {
	c.mu.Lock()
	if c.closed {
		err := c.err
		c.mu.Unlock()
		if err == nil {
			err = ErrShutdown
		}
		return nil, 0, err
	}
	c.seq++
	msgid := c.seq
	ch := make(chan response, 1)
	c.pending[msgid] = ch
	c.mu.Unlock()

	body, err := encodeRequest(msgid, method, args, meta)
	if err != nil {
		c.abandon(msgid)
		return nil, 0, err
	}
	c.wmu.Lock()
	err = writeFrame(c.conn, body)
	c.wmu.Unlock()
	if err != nil {
		// A failed frame write may have left a partial frame on the wire,
		// desyncing the length-prefixed stream: every later frame would be
		// read from the middle of this one. The client is unusable — poison
		// it rather than let later calls read garbage or hang.
		c.abandon(msgid)
		return nil, 0, c.fail(err)
	}
	mClientBytesOut.Add(int64(len(body) + 4))
	return ch, msgid, nil
}

func (c *Client) abandon(msgid int64) {
	c.mu.Lock()
	delete(c.pending, msgid)
	c.mu.Unlock()
}

func encodeRequest(msgid int64, method string, args []any, meta string) ([]byte, error) {
	e := msgpack.NewEncoder(256)
	if meta != "" {
		e.PutArrayLen(5)
	} else {
		e.PutArrayLen(4)
	}
	e.PutInt(typeRequest)
	e.PutInt(msgid)
	e.PutString(method)
	e.PutArrayLen(len(args))
	for _, a := range args {
		if err := e.PutAny(a); err != nil {
			return nil, err
		}
	}
	if meta != "" {
		e.PutString(meta)
	}
	return e.Bytes(), nil
}
