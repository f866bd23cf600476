package rpc

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"vizndp/internal/telemetry"
)

// Fault-tolerance metrics: how often a call was re-issued to the same
// address after a failure (retries) or moved to another one (failovers),
// how often a connection had to be re-established, how often an
// address's breaker tripped open, and how many corrupt rejections were
// seen. The core.pool.* names predate the merge of core's replica pool
// into this client and are kept for dashboards and experiment gates.
var (
	mClientRetries    = telemetry.Default().Counter("rpc.client.retries")
	mClientReconnects = telemetry.Default().Counter("rpc.client.reconnects")
	mPoolFailovers    = telemetry.Default().Counter("core.pool.failovers")
	mPoolBreakerOpen  = telemetry.Default().Counter("core.pool.breaker.open")
	mPoolCorruptions  = telemetry.Default().Counter("core.pool.corruptions")
)

// Defaults for ReconnectOptions zero values.
const (
	defaultMaxAttempts      = 4
	defaultInitialBackoff   = 10 * time.Millisecond
	defaultMaxBackoff       = 1 * time.Second
	defaultBreakerThreshold = 3
	defaultBreakerCooldown  = 200 * time.Millisecond
)

// ReconnectOptions configures a ReconnectClient.
type ReconnectOptions struct {
	// MaxAttempts is the total number of tries per call across all
	// addresses, first attempt included. <= 0 means 4 per address. Only
	// methods in Retryable get more than one attempt.
	MaxAttempts int
	// InitialBackoff is the sleep after the first full cycle through the
	// addresses — with one address, before the first retry; it doubles
	// per cycle up to MaxBackoff. Zero values take the defaults, 10ms
	// and 1s.
	InitialBackoff time.Duration
	MaxBackoff     time.Duration
	// CallTimeout bounds each individual attempt (not the whole call).
	// An attempt that exceeds it is treated like a dead connection: the
	// connection is dropped and, for retryable methods, the call retries
	// on a fresh one. Zero means no per-attempt deadline.
	CallTimeout time.Duration
	// Retryable is the set of methods safe to re-issue after a transport
	// failure: a retried call may execute twice on the server (the reply
	// to the first try can be lost after the handler ran), so only
	// idempotent methods — read-only fetches — belong here. A nil or
	// empty set disables retries entirely; reconnection still happens
	// lazily on the next call. Busy rejections (ErrBusy) are exempt from
	// the set: the server shed them before the handler ran, so any
	// method may retry one.
	Retryable map[string]bool
	// Seed makes the retry jitter deterministic for tests and harness
	// runs; 0 seeds from the default source.
	Seed int64
	// BreakerThreshold is how many consecutive failures — transport
	// errors or busy sheds — trip an address's circuit breaker open.
	// <= 0 means 3.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker steers traffic away
	// before letting the next call through as a half-open probe; the
	// probe's success closes the breaker, its failure re-arms the
	// cooldown. <= 0 means 200ms.
	BreakerCooldown time.Duration
}

// withDefaults fills in the zero values for a client over n addresses.
func (o ReconnectOptions) withDefaults(n int) ReconnectOptions {
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = defaultMaxAttempts * n
	}
	if o.InitialBackoff <= 0 {
		o.InitialBackoff = defaultInitialBackoff
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = defaultMaxBackoff
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = defaultBreakerThreshold
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = defaultBreakerCooldown
	}
	return o
}

// breaker is a per-address circuit breaker. Consecutive failures trip
// it open; while open the address is skipped whenever a healthier one
// exists; once the cooldown elapses the next call through acts as the
// half-open probe.
type breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	fails     int
	open      bool
	openUntil time.Time
}

// allow reports whether a call may use this address now: the breaker is
// closed, or open with its cooldown elapsed (the half-open probe).
func (b *breaker) allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.open || !now.Before(b.openUntil)
}

// retryAt is when an open breaker next admits a probe (zero if closed).
func (b *breaker) retryAt() time.Time {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return time.Time{}
	}
	return b.openUntil
}

// success closes the breaker and clears the failure streak.
func (b *breaker) success() {
	b.mu.Lock()
	b.fails = 0
	b.open = false
	b.mu.Unlock()
}

// failure records one failed call; it reports true when this failure
// freshly tripped the breaker open. A failed half-open probe re-arms
// the cooldown without reporting a new trip.
func (b *breaker) failure(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	if b.open {
		b.openUntil = now.Add(b.cooldown)
		return false
	}
	if b.fails >= b.threshold {
		b.open = true
		b.openUntil = now.Add(b.cooldown)
		return true
	}
	return false
}

// replica is one address's connection and health state.
type replica struct {
	addr string
	brk  breaker
	// cur and connected are guarded by ReconnectClient.mu.
	cur       *Client
	connected bool // a dial has succeeded at least once
}

// ReconnectClient is a fault-tolerant caller over one or more addresses
// serving the same data: it dials lazily, re-dials when a connection
// dies, bounds each attempt with a per-call deadline, sends each call to
// the healthiest address (round-robin over those whose breakers admit
// traffic), and re-issues a failed call — to another address when there
// is one — backing off exponentially with jitter once per full cycle
// through the addresses, so failover to a healthy sibling is immediate
// but a saturated set is not hammered. Application-level errors
// (ServerError) and caller cancellations are never retried; transport
// failures — the cause-carrying shutdown errors a poisoned Client
// reports — are, for methods declared retryable, and busy rejections
// (ErrBusy) are retried for every method because the server shed them
// before any handler ran.
//
// It is safe for concurrent use; concurrent calls to one address share
// one underlying connection, and a reconnect replaces it for all of them.
type ReconnectClient struct {
	network  string
	dialFn   func(network, addr string) (net.Conn, error)
	opts     ReconnectOptions
	replicas []*replica

	next atomic.Uint64 // round-robin cursor

	mu     sync.Mutex
	closed bool
	rng    *rand.Rand
}

// NewReconnectClient returns a fault-tolerant client for addrs. No
// connection is made until the first call, so the targets may come up
// after the client is created; with no address at all every call fails.
// dialFn nil means net.Dial.
func NewReconnectClient(network string, addrs []string, dialFn func(network, addr string) (net.Conn, error), opts ReconnectOptions) *ReconnectClient {
	opts = opts.withDefaults(len(addrs))
	seed := opts.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	rc := &ReconnectClient{
		network: network,
		dialFn:  dialFn,
		opts:    opts,
		rng:     rand.New(rand.NewSource(seed)),
	}
	for _, addr := range addrs {
		rc.replicas = append(rc.replicas, &replica{
			addr: addr,
			brk:  breaker{threshold: opts.BreakerThreshold, cooldown: opts.BreakerCooldown},
		})
	}
	return rc
}

// conn returns r's current connection, dialing a new one when none is
// live. Dialing happens outside the mutex; when two callers race, the
// loser's connection is closed and the winner's shared.
func (rc *ReconnectClient) conn(ctx context.Context, r *replica) (*Client, error) {
	rc.mu.Lock()
	if rc.closed {
		rc.mu.Unlock()
		return nil, ErrShutdown
	}
	if c := r.cur; c != nil {
		rc.mu.Unlock()
		return c, nil
	}
	reconnecting := r.connected
	rc.mu.Unlock()

	var span *telemetry.Span
	if reconnecting && telemetry.SpanFromContext(ctx) != nil {
		_, span = telemetry.StartSpan(ctx, "reconnect")
		span.SetAttr("addr", r.addr)
	}
	c, err := Dial(rc.network, r.addr, rc.dialFn)
	if err != nil {
		span.SetAttr("error", err.Error())
		span.End()
		return nil, err
	}
	span.End()

	rc.mu.Lock()
	if rc.closed {
		rc.mu.Unlock()
		c.Close()
		return nil, ErrShutdown
	}
	if r.cur != nil {
		winner := r.cur
		rc.mu.Unlock()
		c.Close()
		return winner, nil
	}
	r.cur = c
	if r.connected {
		mClientReconnects.Inc()
		logger.Debug("reconnected", "addr", r.addr)
	}
	r.connected = true
	rc.mu.Unlock()
	return c, nil
}

// drop discards dead if it is still r's current connection; the next
// call to r re-dials.
func (rc *ReconnectClient) drop(r *replica, dead *Client) {
	rc.mu.Lock()
	if r.cur == dead {
		r.cur = nil
	}
	rc.mu.Unlock()
	dead.Close()
}

// Close shuts every connection down; subsequent calls fail with
// ErrShutdown.
func (rc *ReconnectClient) Close() error {
	rc.mu.Lock()
	if rc.closed {
		rc.mu.Unlock()
		return nil
	}
	rc.closed = true
	var conns []*Client
	for _, r := range rc.replicas {
		if r.cur != nil {
			conns = append(conns, r.cur)
			r.cur = nil
		}
	}
	rc.mu.Unlock()
	var first error
	for _, c := range conns {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (rc *ReconnectClient) isClosed() bool {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.closed
}

// pick chooses the address for the next attempt: round-robin over
// addresses whose breakers admit traffic, preferring not to re-pick the
// one that just failed (last) while an alternative exists. With every
// breaker open it falls back to the one whose cooldown expires soonest,
// so a fully-tripped set still probes its way back to health.
func (rc *ReconnectClient) pick(last *replica) *replica {
	now := time.Now()
	n := len(rc.replicas)
	start := int(rc.next.Add(1)-1) % n
	var allowedLast *replica
	for i := 0; i < n; i++ {
		r := rc.replicas[(start+i)%n]
		if !r.brk.allow(now) {
			continue
		}
		if r == last && n > 1 {
			allowedLast = r
			continue
		}
		return r
	}
	if allowedLast != nil {
		return allowedLast
	}
	best := rc.replicas[start]
	for i := 1; i < n; i++ {
		r := rc.replicas[(start+i)%n]
		if r.brk.retryAt().Before(best.brk.retryAt()) {
			best = r
		}
	}
	return best
}

// CallContext invokes method with args under ctx on the healthiest
// address. Busy sheds and — for methods in the retryable set — transport
// failures (dead connection, failed dial, per-attempt timeout) are
// re-issued, on another address when one exists; server-side handler
// errors and a cancelled ctx return immediately.
func (rc *ReconnectClient) CallContext(ctx context.Context, method string, args ...any) (any, error) {
	if len(rc.replicas) == 0 {
		return nil, errors.New("rpc: reconnect client has no addresses")
	}
	if rc.isClosed() {
		return nil, ErrShutdown
	}
	var last *replica
	for attempt := 1; ; attempt++ {
		r := rc.pick(last)
		if r == last {
			mClientRetries.Inc()
			telemetry.EventFromContext(ctx).AddRetry()
			logger.Debug("retrying call", "method", method, "attempt", attempt)
		} else if last != nil {
			mPoolFailovers.Inc()
			telemetry.EventFromContext(ctx).AddFailover()
			logger.Debug("failing over", "from", last.addr, "to", r.addr, "method", method)
		}
		result, err := rc.tryOnce(ctx, r, method, args)
		if err == nil {
			r.brk.success()
			return result, nil
		}
		// A caller-cancelled attempt says nothing about the address's
		// health; only count failures the address itself caused. A corrupt
		// rejection is counted apart and does NOT feed the breaker: the
		// node answered promptly — its DATA is bad, not its health — and
		// tripping the breaker would pull a healthy replica out of
		// rotation exactly when its siblings are needed for repair reads.
		if ctx.Err() == nil {
			if errors.Is(err, ErrCorrupt) {
				mPoolCorruptions.Inc()
				logger.Warn("corrupt response", "addr", r.addr, "method", method, "err", err)
			} else if r.brk.failure(time.Now()) {
				mPoolBreakerOpen.Inc()
				logger.Warn("breaker opened", "addr", r.addr, "err", err)
			}
		}
		if !rc.retryableFailure(ctx, method, err) || attempt >= rc.opts.MaxAttempts {
			return nil, err
		}
		last = r
		if n := len(rc.replicas); attempt%n == 0 {
			if werr := rc.backoff(ctx, attempt/n); werr != nil {
				return nil, werr
			}
		}
	}
}

// tryOnce runs one attempt on r: obtain a connection, apply the
// per-attempt deadline, issue the call, and drop the connection on
// transport death.
func (rc *ReconnectClient) tryOnce(ctx context.Context, r *replica, method string, args []any) (any, error) {
	c, err := rc.conn(ctx, r)
	if err != nil {
		return nil, err
	}
	cctx := ctx
	if rc.opts.CallTimeout > 0 {
		var cancel context.CancelFunc
		cctx, cancel = context.WithTimeout(ctx, rc.opts.CallTimeout)
		defer cancel()
	}
	result, err := c.CallContext(cctx, method, args...)
	if err != nil && rc.connectionDead(ctx, err) {
		rc.drop(r, c)
	}
	return result, err
}

// connectionDead reports whether err means the attempt's connection can
// no longer be trusted: a poisoned client (sticky shutdown) or a
// per-attempt deadline that the parent context did not cause (the call
// may be stuck behind a dead or pathologically slow peer).
func (rc *ReconnectClient) connectionDead(ctx context.Context, err error) bool {
	if errors.Is(err, ErrShutdown) {
		return true
	}
	return errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil
}

// retryableFailure reports whether the call may be re-issued: the
// caller's context must still be live and the error either a busy
// rejection — shed before the handler ran, so safe for any method — or
// a transport failure on a method declared idempotent. Other
// server-side results are never retried.
func (rc *ReconnectClient) retryableFailure(ctx context.Context, method string, err error) bool {
	if ctx.Err() != nil {
		return false
	}
	if !errors.Is(err, ErrBusy) {
		var se ServerError
		if !rc.opts.Retryable[method] || errors.As(err, &se) {
			return false
		}
	}
	// A closed ReconnectClient must not spin on ErrShutdown.
	return !rc.isClosed()
}

// backoff sleeps after the given full cycle through the addresses:
// exponential from InitialBackoff, capped at MaxBackoff, with a uniform
// jitter in [50%, 100%] of the computed delay so synchronized clients do
// not reconnect in lockstep. Returns early with the context's error when
// ctx is cancelled mid-sleep.
func (rc *ReconnectClient) backoff(ctx context.Context, cycle int) error {
	d := rc.opts.InitialBackoff << (cycle - 1)
	if d > rc.opts.MaxBackoff || d <= 0 {
		d = rc.opts.MaxBackoff
	}
	rc.mu.Lock()
	jittered := d/2 + time.Duration(rc.rng.Int63n(int64(d/2)+1))
	rc.mu.Unlock()
	t := time.NewTimer(jittered)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
