package core

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"vizndp/internal/contour"
	"vizndp/internal/grid"
	"vizndp/internal/rpc"
	"vizndp/internal/telemetry"
	"vizndp/internal/vtkio"
)

// mClientFallbacks counts degraded fetches: pre-filtered fetches that
// failed remotely and were served by FetchRaw plus a local pre-filter.
var mClientFallbacks = telemetry.Default().Counter("core.client.fallbacks")

// mClientWireCorrupt counts responses whose bytes arrived damaged: the
// server's recorded payload CRC and the received bytes disagree.
var mClientWireCorrupt = telemetry.Default().Counter("core.client.corrupt.wire")

// verifyWireCRC checks received bytes against the "crc" field a new
// server records in its response maps. Responses from older servers
// carry no field and pass unverified (nil). A mismatch wraps
// rpc.ErrCorrupt so callers route it to data-level recovery, and so does
// a field that is not an integer: a server writes only integers there,
// so the reply was damaged in flight.
func verifyWireCRC(m map[string]any, what string, data []byte) error {
	var want uint32
	switch v := m["crc"].(type) {
	case nil:
		return nil
	case int64:
		want = uint32(v)
	case uint64:
		want = uint32(v)
	default:
		mClientWireCorrupt.Inc()
		return fmt.Errorf("%w: %s crc is %T", rpc.ErrCorrupt, what, v)
	}
	if got := vtkio.Checksum(data); got != want {
		mClientWireCorrupt.Inc()
		return fmt.Errorf("%w: %s bytes arrived with crc %08x, server recorded %08x",
			rpc.ErrCorrupt, what, got, want)
	}
	return nil
}

var clientLog = telemetry.Logger("ndpclient")

// Caller is the RPC surface Client needs. Both *rpc.Client (one
// connection, fail-fast) and *rpc.ReconnectClient (1..N addresses,
// retries, re-dials, failover) implement it.
type Caller interface {
	CallContext(ctx context.Context, method string, args ...any) (any, error)
	Close() error
}

// Client drives a remote NDP server. It is the client-side counterpart
// of the storage-side partial pipeline: it requests pre-filtered
// payloads and hands them to the post-filter.
type Client struct {
	rpc Caller
	// fallback enables graceful degradation: a pre-filtered fetch whose
	// RPC fails (after whatever retries the Caller performs) falls back
	// to FetchRaw plus a local pre-filter pass, so the contour still
	// renders — just without the transfer reduction.
	fallback bool
}

// RetryableMethods returns the NDP methods safe to retry after a
// transport failure. Every current method is a read-only fetch, so all
// are idempotent; a method with side effects must not be added here.
func RetryableMethods() map[string]bool {
	return map[string]bool{
		MethodDescribe:   true,
		MethodFetch:      true,
		MethodFetchRange: true,
		MethodFetchSlice: true,
		MethodFetchRaw:   true,
		MethodManifest:   true,
	}
}

// Dial connects to an NDP server at addr, optionally through a custom
// dial function (for example a netsim.Link's Dial).
func Dial(addr string, dialFn func(network, addr string) (net.Conn, error)) (*Client, error) {
	c, err := rpc.Dial("tcp", addr, dialFn)
	if err != nil {
		return nil, err
	}
	return &Client{rpc: c}, nil
}

// DialFaultTolerant returns a client over one or more replica servers
// of the same store that survives storage-node restarts, dropped
// connections, slow links and overload: every call goes to the
// healthiest address, is re-issued with backoff on busy sheds and
// transport failures — on another replica when there is one (all NDP
// methods are idempotent reads unless opts.Retryable narrows the set) —
// dead connections are re-dialed lazily, and a pre-filtered fetch that
// still fails degrades to FetchRaw plus a local pre-filter pass, so the
// payload stays bit-identical either way. No connection is made until
// the first call, so the servers may come up later.
func DialFaultTolerant(addrs []string, dialFn func(network, addr string) (net.Conn, error), opts rpc.ReconnectOptions) *Client {
	if opts.Retryable == nil {
		opts.Retryable = RetryableMethods()
	}
	return &Client{
		rpc:      rpc.NewReconnectClient("tcp", addrs, dialFn, opts),
		fallback: true,
	}
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	return &Client{rpc: rpc.NewClient(conn)}
}

// Close tears the connection down.
func (c *Client) Close() error { return c.rpc.Close() }

// Description is the remote dataset's metadata.
type Description struct {
	Grid *grid.Uniform
}

// Describe fetches a dataset file's metadata.
func (c *Client) Describe(path string) (*Description, error) {
	return c.DescribeContext(context.Background(), path)
}

// DescribeContext is Describe under a caller context.
func (c *Client) DescribeContext(ctx context.Context, path string) (*Description, error) {
	res, err := c.rpc.CallContext(ctx, MethodDescribe, path)
	if err != nil {
		return nil, err
	}
	m, ok := res.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("core: describe returned %T", res)
	}
	g, err := gridFromMap(m)
	if err != nil {
		return nil, fmt.Errorf("core: describe %w", err)
	}
	return &Description{Grid: g}, nil
}

// FetchStats reports the cost breakdown of one pre-filtered fetch.
type FetchStats struct {
	// ReadTime is the server-side storage read (+ decompression) time.
	ReadTime time.Duration
	// FilterTime is the server-side pre-filter scan + encode time.
	FilterTime time.Duration
	// TransferTime is the client-observed RPC time minus the server-side
	// work, i.e. the network cost.
	TransferTime time.Duration
	// TotalTime is the client-observed end-to-end fetch time.
	TotalTime time.Duration
	// RawBytes is the full array size the baseline would have moved.
	RawBytes int64
	// PayloadBytes is what actually crossed the network.
	PayloadBytes int64
	// SelectedPoints is the number of transferred mesh points.
	SelectedPoints int
	// Degraded marks a fetch served by the fallback path: the remote
	// pre-filter was unreachable, so the whole raw array crossed the
	// network and the pre-filter ran locally. PayloadBytes then reports
	// the raw transfer, keeping the cost accounting honest.
	Degraded bool
}

// FetchFiltered asks the server to pre-filter one array for the given
// isovalues and returns the decoded payload.
func (c *Client) FetchFiltered(path, array string, isovalues []float64, enc Encoding) (*Payload, *FetchStats, error) {
	return c.FetchFilteredContext(context.Background(), path, array, isovalues, enc)
}

// FetchFilteredContext is FetchFiltered under a caller context; a
// telemetry span in ctx makes the server's read and pre-filter spans
// come back as part of the caller's trace.
func (c *Client) FetchFilteredContext(ctx context.Context, path, array string, isovalues []float64, enc Encoding) (*Payload, *FetchStats, error) {
	isos := make([]any, len(isovalues))
	for i, v := range isovalues {
		isos[i] = v
	}
	pre := &PreFilter{Isovalues: isovalues, Encoding: enc}
	return c.fetchPayload(ctx, MethodFetch, path, array, pre.Run, isos, enc.String(), edgesKey)
}

// localFilter is the client-side twin of a storage-side selection: the
// degraded path runs it over the raw array. PreFilter.Run and
// RangePreFilter.Run are the two instances.
type localFilter func(g *grid.Uniform, field *grid.Field) (*Payload, *PreFilterStats, error)

// fetchPayload is the one client-side body of a payload fetch, as
// serveFetch is the one storage-side body: method and extra (the
// arguments after path and array) say what the server selects, local
// says how to select the same points here when the server cannot.
func (c *Client) fetchPayload(ctx context.Context, method, path, array string, local localFilter, extra ...any) (*Payload, *FetchStats, error) {
	// The client-side wide event covers the whole fetch — retries,
	// failovers, and the degraded fallback included — while the server
	// records its own per-attempt events. The SLO monitor separates the
	// two by kind.
	ev := telemetry.DefaultFlightRecorder().Begin(telemetry.KindClient, method)
	ev.SetAttr("path", path)
	ev.SetAttr("array", array)
	if span := telemetry.SpanFromContext(ctx); span != nil {
		ev.SetSpanIDs(span.Trace(), span.ID())
	}
	ctx = telemetry.ContextWithEvent(ctx, ev)
	args := make([]any, 0, 2+len(extra))
	args = append(append(args, path, array), extra...)

	start := time.Now()
	var payload *Payload
	var st *FetchStats
	res, err := c.rpc.CallContext(ctx, method, args...)
	// Any failure the Caller could not mask is worth degrading for.
	degradable := err != nil
	if err == nil {
		payload, st, err = decodeFetchResult(res, time.Since(start))
		// So is a payload that arrived damaged (wire CRC mismatch): the
		// fault was in flight, not in the server, and the raw path
		// re-reads everything end to end. Other decode errors are not.
		degradable = errors.Is(err, rpc.ErrCorrupt)
	}
	if degradable && c.fallback && ctx.Err() == nil {
		var ferr error
		if payload, st, ferr = c.fetchDegraded(ctx, path, array, local, start); ferr != nil {
			// The degraded path failed too; the original error names the
			// root cause, the fallback error says why degradation could
			// not mask it.
			err = fmt.Errorf("core: pre-filtered fetch failed (%w); fallback also failed: %w", err, ferr)
		} else {
			ev.MarkDegraded()
			clientLog.Warn("pre-filtered fetch degraded to raw transfer",
				"method", method, "path", path, "array", array, "err", err)
			err = nil
		}
	}
	if st != nil {
		ev.SetBytesIn(st.PayloadBytes)
	}
	ev.Finish(err)
	return payload, st, err
}

// fetchDegraded is the graceful-degradation path: pull the whole raw
// array and run the pre-filter locally. The produced payload is
// bit-identical to what the storage-side pre-filter would have sent —
// both sides run the same filter over the same decoded float32 values —
// so downstream stages cannot tell the difference; only the transfer
// cost (and FetchStats.Degraded) changes.
func (c *Client) fetchDegraded(ctx context.Context, path, array string, local localFilter, start time.Time) (*Payload, *FetchStats, error) {
	_, span := telemetry.StartSpan(ctx, "fallback.prefilter")
	defer span.End()
	span.SetAttr("path", path)
	span.SetAttr("array", array)
	desc, err := c.DescribeContext(ctx, path)
	if err != nil {
		return nil, nil, fmt.Errorf("describe: %w", err)
	}
	raw, stats, err := c.fetchRaw(ctx, path, array)
	if err != nil {
		return nil, nil, fmt.Errorf("raw fetch: %w", err)
	}
	vals, err := vtkio.BytesToFloats(raw)
	if err != nil {
		return nil, nil, err
	}
	if len(vals) != desc.Grid.NumPoints() {
		return nil, nil, fmt.Errorf("raw array %q has %d values, grid has %d points",
			array, len(vals), desc.Grid.NumPoints())
	}
	payload, pst, err := local(desc.Grid, &grid.Field{Name: array, Values: vals})
	if err != nil {
		return nil, nil, err
	}
	mClientFallbacks.Inc()
	span.SetAttr("selected", pst.SelectedPoints)
	// The raw reply's stats already carry the read time and the bytes
	// that crossed the network; the filter ran here.
	stats.FilterTime = pst.FilterTime
	stats.RawBytes = pst.RawBytes
	stats.SelectedPoints = pst.SelectedPoints
	stats.Degraded = true
	stats.setTotal(time.Since(start))
	return payload, stats, nil
}

// MultiRequest names one pre-filtered fetch in a
// FetchFilteredMultiContext fan-out: one array of one file, filtered at
// the given isovalues.
type MultiRequest struct {
	Path      string
	Array     string
	Isovalues []float64
	Encoding  Encoding
}

// MultiResult is the outcome of one MultiRequest. When Err is nil,
// Payload and Stats are valid.
type MultiResult struct {
	Payload *Payload
	Stats   *FetchStats
	Err     error
}

// multiParallelism bounds the requests a fan-out — a
// FetchFilteredMultiContext or a sharded gather — has in flight at once.
const multiParallelism = 8

// FetchFilteredMultiContext issues many pre-filtered fetches
// concurrently over the one multiplexed RPC connection and returns the
// results in request order, at most multiParallelism in flight at once.
// Failures are reported per-request rather than failing the batch, so
// one bad array name doesn't discard the sibling payloads; with the
// server's array cache enabled, concurrent requests against the same
// array coalesce into a single storage read. Cancelling ctx fails the
// not-yet-issued requests.
func (c *Client) FetchFilteredMultiContext(ctx context.Context, reqs []MultiRequest) []MultiResult {
	results := make([]MultiResult, len(reqs))
	fanOut(ctx, len(reqs), func(i int, skipped error) {
		if skipped != nil {
			results[i].Err = skipped
			return
		}
		r := &reqs[i]
		results[i].Payload, results[i].Stats, results[i].Err =
			c.FetchFilteredContext(ctx, r.Path, r.Array, r.Isovalues, r.Encoding)
	})
	return results
}

// fanOut runs do(i, nil) for every i in [0, n) on at most
// multiParallelism goroutines at once and returns when all have
// finished. Once ctx is cancelled the not-yet-started indices get
// do(i, ctx.Err()) on the calling goroutine instead.
func fanOut(ctx context.Context, n int, do func(i int, skipped error)) {
	sem := make(chan struct{}, min(multiParallelism, n))
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		// Acquire the slot before spawning so at most multiParallelism
		// goroutines ever exist; spawning first and acquiring inside
		// would briefly stand up one goroutine per request.
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			do(i, ctx.Err())
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			do(i, nil)
		}(i)
	}
	wg.Wait()
}

// FetchRange asks the server to pre-filter one array for a threshold
// range [lo, hi] — the split threshold filter's remote half.
func (c *Client) FetchRange(path, array string, lo, hi float64, enc Encoding) (*Payload, *FetchStats, error) {
	return c.FetchRangeContext(context.Background(), path, array, lo, hi, enc)
}

// FetchRangeContext is FetchRange under a caller context. It is the
// same fetch as FetchFilteredContext with a different selection, so it
// records the same client wide event and degrades the same way.
func (c *Client) FetchRangeContext(ctx context.Context, path, array string, lo, hi float64, enc Encoding) (*Payload, *FetchStats, error) {
	pre := &RangePreFilter{Lo: lo, Hi: hi, Encoding: enc}
	return c.fetchPayload(ctx, MethodFetchRange, path, array, pre.Run, lo, hi, enc.String())
}

// FetchSlice asks the server to extract the plane axis=index from one
// array and ship only that plane. It returns the slice's 2D grid, its
// values, and the fetch statistics.
func (c *Client) FetchSlice(path, array string, axis contour.Axis, index int) (*grid.Uniform, []float32, *FetchStats, error) {
	return c.FetchSliceContext(context.Background(), path, array, axis, index)
}

// FetchSliceContext is FetchSlice under a caller context.
func (c *Client) FetchSliceContext(ctx context.Context, path, array string, axis contour.Axis, index int) (*grid.Uniform, []float32, *FetchStats, error) {
	start := time.Now()
	res, err := c.rpc.CallContext(ctx, MethodFetchSlice, path, array, axis.String(), index)
	if err != nil {
		return nil, nil, nil, err
	}
	raw, m, stats, err := decodeReply(res, "values", time.Since(start))
	if err != nil {
		return nil, nil, nil, err
	}
	g2, err := gridFromMap(m)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: fetchslice %w", err)
	}
	vals, err := vtkio.BytesToFloats(raw)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(vals) != g2.NumPoints() {
		return nil, nil, nil, fmt.Errorf("core: slice has %d values for %d points",
			len(vals), g2.NumPoints())
	}
	stats.SelectedPoints = len(vals)
	return g2, vals, stats, nil
}

// decodeReply is the one client-side decoder of a fetch reply, the
// counterpart of serveFetch's one response map: the data bytes under
// the method's data key, verified against the recorded wire CRC before
// anyone decodes them (a flipped bit inside a payload's packed varints
// would otherwise decode into silently wrong geometry rather than an
// error), and the shared cost fields as FetchStats. Keys a reply does
// not carry (an older server, or a method with nothing to report) read
// as zero. The map is returned for the method's own keys.
func decodeReply(res any, dataKey string, total time.Duration) ([]byte, map[string]any, *FetchStats, error) {
	m, ok := res.(map[string]any)
	if !ok {
		return nil, nil, nil, fmt.Errorf("core: fetch returned %T", res)
	}
	data, ok := m[dataKey].([]byte)
	if !ok {
		return nil, nil, nil, fmt.Errorf("core: fetch %s is %T", dataKey, m[dataKey])
	}
	if err := verifyWireCRC(m, dataKey, data); err != nil {
		return nil, nil, nil, err
	}
	// A count or duration below zero can only come from a damaged or
	// hostile reply; it reads as absent rather than as a negative cost.
	field := func(key string) int64 {
		v, _ := m[key].(int64)
		return max(v, 0)
	}
	stats := &FetchStats{
		ReadTime:       time.Duration(field("readns")),
		FilterTime:     time.Duration(field("filterns")),
		RawBytes:       field("rawbytes"),
		PayloadBytes:   int64(len(data)),
		SelectedPoints: int(field("selected")),
	}
	stats.setTotal(total)
	return data, m, stats, nil
}

// setTotal records the client-observed time and attributes what the
// server-side work does not account for to the transfer. Server timings
// can exceed the client's total (clock skew, coarse timers), so the
// remainder clamps at zero, never negative.
func (s *FetchStats) setTotal(total time.Duration) {
	s.TotalTime = total
	s.TransferTime = 0
	if rest := total - s.ReadTime - s.FilterTime; rest > 0 {
		s.TransferTime = rest
	}
}

// decodeFetchResult unpacks a contour or range fetch's reply.
func decodeFetchResult(res any, total time.Duration) (*Payload, *FetchStats, error) {
	data, _, stats, err := decodeReply(res, "payload", total)
	if err != nil {
		return nil, nil, err
	}
	payload, err := DecodePayload(data)
	if err != nil {
		return nil, nil, err
	}
	return payload, stats, nil
}

// FetchManifest pulls and validates a brick manifest from the server's
// store — the first call of a sharded client session, typically against
// any one shard (every shard mounts the same store).
func (c *Client) FetchManifest(path string) (*vtkio.Manifest, error) {
	return c.FetchManifestContext(context.Background(), path)
}

// FetchManifestContext is FetchManifest under a caller context.
func (c *Client) FetchManifestContext(ctx context.Context, path string) (*vtkio.Manifest, error) {
	res, err := c.rpc.CallContext(ctx, MethodManifest, path)
	if err != nil {
		return nil, err
	}
	data, _, _, err := decodeReply(res, "manifest", 0)
	if err != nil {
		return nil, err
	}
	return vtkio.DecodeManifest(data)
}

// FetchRaw pulls a whole array, bypassing the pre-filter. It is what the
// baseline would transfer and exists for measurement and debugging.
func (c *Client) FetchRaw(path, array string) ([]byte, time.Duration, error) {
	return c.FetchRawContext(context.Background(), path, array)
}

// FetchRawContext is FetchRaw under a caller context.
func (c *Client) FetchRawContext(ctx context.Context, path, array string) ([]byte, time.Duration, error) {
	data, stats, err := c.fetchRaw(ctx, path, array)
	if err != nil {
		return nil, 0, err
	}
	return data, stats.ReadTime, nil
}

func (c *Client) fetchRaw(ctx context.Context, path, array string) ([]byte, *FetchStats, error) {
	start := time.Now()
	res, err := c.rpc.CallContext(ctx, MethodFetchRaw, path, array)
	if err != nil {
		return nil, nil, err
	}
	data, _, stats, err := decodeReply(res, "data", time.Since(start))
	return data, stats, err
}

// gridFromMap reads the dims/origin/spacing keys a describe and a slice
// reply share.
func gridFromMap(m map[string]any) (*grid.Uniform, error) {
	dims, err := int3(m["dims"])
	if err != nil {
		return nil, fmt.Errorf("dims: %w", err)
	}
	origin, err := float3(m["origin"])
	if err != nil {
		return nil, fmt.Errorf("origin: %w", err)
	}
	spacing, err := float3(m["spacing"])
	if err != nil {
		return nil, fmt.Errorf("spacing: %w", err)
	}
	return &grid.Uniform{
		Dims:    grid.Dims{X: dims[0], Y: dims[1], Z: dims[2]},
		Origin:  grid.Vec3{X: origin[0], Y: origin[1], Z: origin[2]},
		Spacing: grid.Vec3{X: spacing[0], Y: spacing[1], Z: spacing[2]},
	}, nil
}

func floatSlice(v any) ([]float64, error) {
	arr, ok := v.([]any)
	if !ok {
		return nil, fmt.Errorf("want array, got %T", v)
	}
	out := make([]float64, len(arr))
	for i, e := range arr {
		switch n := e.(type) {
		case float64:
			out[i] = n
		case int64:
			out[i] = float64(n)
		default:
			return nil, fmt.Errorf("element %d is %T", i, e)
		}
	}
	return out, nil
}

func int3(v any) ([3]int, error) {
	arr, ok := v.([]any)
	if !ok || len(arr) != 3 {
		return [3]int{}, fmt.Errorf("want 3-array, got %T", v)
	}
	var out [3]int
	for i, e := range arr {
		n, ok := e.(int64)
		if !ok {
			return out, fmt.Errorf("element %d is %T", i, e)
		}
		out[i] = int(n)
	}
	return out, nil
}

func float3(v any) ([3]float64, error) {
	var out [3]float64
	s, err := floatSlice(v)
	if err == nil && len(s) != 3 {
		err = fmt.Errorf("want 3-array, got %d elements", len(s))
	}
	copy(out[:], s)
	return out, err
}
