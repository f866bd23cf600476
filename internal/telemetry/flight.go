package telemetry

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Wide-event flight recorder: one structured event per request, kept in
// a lock-cheap ring so a live server can answer "why was THIS request
// slow, shed, or degraded" instead of only aggregate percentiles.
//
// The RPC server begins an event per incoming call and finishes it with
// the outcome; everything the request touches on the way down — the
// admission queue, the array cache, the pre-filter, the replica pool on
// the client side — enriches the same event through its context. The
// ring is queryable at /debug/requests and is the raw material for
// anomaly-triggered debug bundles (see bundle.go) and the SLO monitor
// (see slo.go).

// Event kinds: which side of an RPC an event describes.
const (
	KindServer = "server" // recorded where the request was served
	KindClient = "client" // recorded where the request originated
)

// Event outcomes.
const (
	OutcomeOK      = "ok"      // handler ran and succeeded
	OutcomeError   = "error"   // handler (or transport) returned an error
	OutcomeShed    = "shed"    // rejected by admission control before running
	OutcomeExpired = "expired" // caller's deadline expired before/while running
)

// WideEvent is one finished request's worth of observability: identity,
// timing decomposition, resource counts, and every flag the request
// picked up on its way through the stack. It is the unit the flight
// recorder stores and /debug/requests serves.
type WideEvent struct {
	// Seq is the recorder-assigned sequence number (monotonic, 1-based).
	Seq uint64 `json:"seq"`
	// Time is when the request began.
	Time time.Time `json:"time"`
	// Kind is KindServer or KindClient.
	Kind string `json:"kind"`
	// Method is the RPC method (or "s3.<op>" for object-store requests).
	Method string `json:"method"`
	// Trace/Span are hex span identities when the request was traced.
	Trace string `json:"trace,omitempty"`
	Span  string `json:"span,omitempty"`
	// DurMS is the end-to-end duration in milliseconds — for a server
	// event, the deadline budget actually spent.
	DurMS float64 `json:"durMs"`
	// Stages is the request's stage record: where its time went, one
	// entry per stage in the order they ran (see ActiveEvent.Stage).
	Stages []Stage `json:"stages,omitempty"`
	// BudgetMS is the caller's remaining deadline at arrival (the "dl="
	// meta field), 0 when the caller sent none. Compare with DurMS to see
	// how much of the budget the request consumed.
	BudgetMS float64 `json:"budgetMs,omitempty"`
	// Outcome is one of the Outcome* constants.
	Outcome string `json:"outcome"`
	// Err is the error text for non-ok outcomes.
	Err string `json:"err,omitempty"`
	// Shed marks a request rejected by admission control (retryable).
	Shed bool `json:"shed,omitempty"`
	// Expired marks a request whose propagated deadline ran out.
	Expired bool `json:"expired,omitempty"`
	// Degraded marks a client fetch served by the raw-transfer fallback.
	Degraded bool `json:"degraded,omitempty"`
	// Retries and Failovers count extra attempts a client event needed.
	Retries   int `json:"retries,omitempty"`
	Failovers int `json:"failovers,omitempty"`
	// Cache is the array-cache outcome ("hit", "miss", "coalesced").
	Cache string `json:"cache,omitempty"`
	// BytesIn/BytesOut are the request's wire sizes from the recording
	// side's point of view.
	BytesIn  int64 `json:"bytesIn,omitempty"`
	BytesOut int64 `json:"bytesOut,omitempty"`
	// Breached marks an event that individually violated its method's
	// SLO (latency over threshold, or a failed/shed outcome counted
	// against availability). Set by the attached SLOMonitor at record
	// time.
	Breached bool `json:"breached,omitempty"`
	// Attrs carries handler-specific enrichment (path, array, selected).
	Attrs map[string]any `json:"attrs,omitempty"`

	// traceID is the numeric trace for span-tree lookups (bundles).
	traceID uint64
}

// Anomalous reports whether the event should trigger a debug bundle:
// anything that is not a plain success — errors, sheds, expired
// deadlines, degraded fetches, and SLO breaches.
func (e *WideEvent) Anomalous() bool {
	return e.Shed || e.Expired || e.Degraded || e.Breached || e.Outcome == OutcomeError
}

// Stage is one timed step of a request: it began At after the event's
// Time and lasted Dur. A server fetch's stages are queue, probe, wait,
// read, prefilter, crc and write.
type Stage struct {
	Name string        `json:"name"`
	At   time.Duration `json:"atNs"`
	Dur  time.Duration `json:"ns"`
}

// maxStages bounds one request's stage record: a fetch runs at most six
// (queue, probe, read or wait, prefilter, crc, write).
const maxStages = 6

// ActiveEvent is an in-flight wide event being built along the request
// path. All methods are safe on a nil receiver, so enrichment sites
// never check whether recording is active.
type ActiveEvent struct {
	mu      sync.Mutex
	ev      WideEvent // ev.Time, with its monotonic reading, starts the clock
	rec     *FlightRecorder
	done    bool
	nstages uint8
	stages  [maxStages]Stage
}

// SetSpanIDs attaches the request's trace identity.
func (a *ActiveEvent) SetSpanIDs(trace, span uint64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.ev.traceID = trace
	a.ev.Trace = fmt.Sprintf("%016x", trace)
	if span != 0 {
		a.ev.Span = fmt.Sprintf("%016x", span)
	}
	a.mu.Unlock()
}

// Stage records [start, now) as the request's stage name and returns
// its duration: the one measurement of that fact, from which the caller
// derives its histogram and reply fields. It allocates nothing. A stage
// that arrives after Finish — from a flight that outlived the caller
// that started it — is dropped, as is one past the record's capacity.
func (a *ActiveEvent) Stage(name string, start time.Time) time.Duration {
	d := time.Since(start)
	if a == nil {
		return d
	}
	a.mu.Lock()
	if !a.done && int(a.nstages) < len(a.stages) {
		a.stages[a.nstages] = Stage{Name: name, At: start.Sub(a.ev.Time), Dur: d}
		a.nstages++
	}
	a.mu.Unlock()
	return d
}

// Spans derives a span tree from the stage record: root, then one child
// of it per stage that began inside it.
func (a *ActiveEvent) Spans(root SpanData) []SpanData {
	if a == nil {
		return []SpanData{root}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	spans := make([]SpanData, 1, 1+a.nstages)
	spans[0] = root
	end := root.Start.Add(root.Dur)
	for _, st := range a.stages[:a.nstages] {
		if start := a.ev.Time.Add(st.At); !start.Before(root.Start) && !start.After(end) {
			spans = append(spans, SpanData{Trace: root.Trace, ID: NewSpanID(), Parent: root.ID,
				Name: st.Name, Start: start, Dur: st.Dur})
		}
	}
	return spans
}

// SetBudget records the caller's remaining deadline at arrival.
func (a *ActiveEvent) SetBudget(d time.Duration) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.ev.BudgetMS = float64(d) / float64(time.Millisecond)
	a.mu.Unlock()
}

// SetBytesIn / SetBytesOut record the request's wire sizes.
func (a *ActiveEvent) SetBytesIn(n int64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.ev.BytesIn = n
	a.mu.Unlock()
}

// SetBytesOut records the response's wire size.
func (a *ActiveEvent) SetBytesOut(n int64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.ev.BytesOut = n
	a.mu.Unlock()
}

// SetCache records the array-cache outcome for the request.
func (a *ActiveEvent) SetCache(outcome string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.ev.Cache = outcome
	a.mu.Unlock()
}

// MarkShed flags the event as rejected by admission control.
func (a *ActiveEvent) MarkShed() {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.ev.Shed = true
	a.mu.Unlock()
}

// MarkExpired flags the event's propagated deadline as run out.
func (a *ActiveEvent) MarkExpired() {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.ev.Expired = true
	a.mu.Unlock()
}

// MarkDegraded flags a client fetch served by the fallback path.
func (a *ActiveEvent) MarkDegraded() {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.ev.Degraded = true
	a.mu.Unlock()
}

// AddRetry counts one extra attempt by the reconnecting client.
func (a *ActiveEvent) AddRetry() {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.ev.Retries++
	a.mu.Unlock()
}

// AddFailover counts one move to another replica.
func (a *ActiveEvent) AddFailover() {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.ev.Failovers++
	a.mu.Unlock()
}

// SetAttr attaches handler-specific enrichment (path, array, selected
// points, ...). Values should be wire-friendly primitives.
func (a *ActiveEvent) SetAttr(key string, value any) {
	if a == nil {
		return
	}
	a.mu.Lock()
	if a.ev.Attrs == nil {
		a.ev.Attrs = make(map[string]any, 4)
	}
	a.ev.Attrs[key] = value
	a.mu.Unlock()
}

// Finish completes the event with err (nil for success), derives the
// outcome from the accumulated flags, and records it. Later calls are
// no-ops, so error paths may Finish defensively.
func (a *ActiveEvent) Finish(err error) {
	if a == nil {
		return
	}
	a.mu.Lock()
	if a.done {
		a.mu.Unlock()
		return
	}
	a.done = true
	a.ev.DurMS = float64(time.Since(a.ev.Time)) / float64(time.Millisecond)
	if a.nstages > 0 { // an empty record must not keep the builder alive in the ring
		a.ev.Stages = a.stages[:a.nstages:a.nstages]
	}
	switch {
	case a.ev.Shed:
		a.ev.Outcome = OutcomeShed
	case a.ev.Expired:
		a.ev.Outcome = OutcomeExpired
	case err != nil:
		a.ev.Outcome = OutcomeError
	default:
		a.ev.Outcome = OutcomeOK
	}
	if err != nil {
		a.ev.Err = err.Error()
	}
	ev := a.ev
	rec := a.rec
	a.mu.Unlock()
	if rec != nil {
		rec.record(ev)
	}
}

type activeEventCtxKey struct{}

// ContextWithEvent installs an in-flight event on ctx so downstream
// layers (cache, pre-filter, pool) can enrich it.
func ContextWithEvent(ctx context.Context, a *ActiveEvent) context.Context {
	return context.WithValue(ctx, activeEventCtxKey{}, a)
}

// EventFromContext returns the in-flight event, or nil — and every
// ActiveEvent method tolerates nil, so callers never check.
func EventFromContext(ctx context.Context) *ActiveEvent {
	a, _ := ctx.Value(activeEventCtxKey{}).(*ActiveEvent)
	return a
}

// FlightRecorder keeps the most recent wide events in a fixed ring.
// Recording takes one atomic increment plus one per-slot lock — no
// global lock — so it stays cheap on the hot fetch path; SetEnabled
// turns the whole recorder into a single atomic load.
type FlightRecorder struct {
	enabled atomic.Bool
	ring    *ring[WideEvent]

	slo     atomic.Pointer[SLOMonitor]
	bundles atomic.Pointer[BundleWriter]
}

// newFlightRecorder returns a recorder retaining up to capacity events.
func newFlightRecorder(capacity int) *FlightRecorder {
	r := &FlightRecorder{ring: newRing[WideEvent](capacity)}
	r.enabled.Store(true)
	return r
}

var defaultFlightRecorder = newFlightRecorder(ringCapacity)

// DefaultFlightRecorder returns the process-wide recorder every request
// path reports to.
func DefaultFlightRecorder() *FlightRecorder { return defaultFlightRecorder }

// SetEnabled turns recording on or off. Disabled, Begin still hands out
// builders but record() returns after one atomic load — the knob the
// harness uses to measure recorder overhead.
func (r *FlightRecorder) SetEnabled(on bool) { r.enabled.Store(on) }

// Enabled reports whether the recorder is recording.
func (r *FlightRecorder) Enabled() bool { return r.enabled.Load() }

// SetSLO attaches (or, with nil, detaches) the monitor consulted on
// every recorded event; it stamps per-event breach flags and keeps the
// burn-rate gauges current.
func (r *FlightRecorder) SetSLO(m *SLOMonitor) { r.slo.Store(m) }

// SLO returns the attached monitor, or nil.
func (r *FlightRecorder) SLO() *SLOMonitor { return r.slo.Load() }

// SetBundles attaches (or, with nil, detaches) the debug-bundle writer
// invoked for anomalous events.
func (r *FlightRecorder) SetBundles(b *BundleWriter) { r.bundles.Store(b) }

// Bundles returns the attached bundle writer, or nil.
func (r *FlightRecorder) Bundles() *BundleWriter { return r.bundles.Load() }

// Capacity returns the ring size.
func (r *FlightRecorder) Capacity() int { return len(r.ring.slots) }

// Seq returns the sequence number of the most recently recorded event
// (0 when none). Events with Seq <= Seq()-Capacity() have been evicted.
func (r *FlightRecorder) Seq() uint64 { return r.ring.seq.Load() }

// Begin starts building an event. The caller must Finish it exactly
// once; enrichment rides on the returned builder (usually via
// ContextWithEvent).
func (r *FlightRecorder) Begin(kind, method string) *ActiveEvent {
	return r.BeginAt(kind, method, time.Now())
}

// BeginAt is Begin with an explicit start time, for recorders wrapped
// around frameworks that already measured the request start.
func (r *FlightRecorder) BeginAt(kind, method string, start time.Time) *ActiveEvent {
	return &ActiveEvent{
		rec: r,
		ev:  WideEvent{Time: start, Kind: kind, Method: method},
	}
}

// record stores one finished event, consulting the SLO monitor first
// (which may stamp Breached) and firing the bundle writer on anomalies.
func (r *FlightRecorder) record(ev WideEvent) {
	if !r.enabled.Load() {
		return
	}
	if m := r.slo.Load(); m != nil {
		ev.Breached = m.Observe(&ev)
	}
	ev.Seq = r.ring.next()
	r.ring.put(ev.Seq, ev)
	if b := r.bundles.Load(); b != nil && ev.Anomalous() {
		b.MaybeWrite(ev, r)
	}
}

// EventFilter selects events from the ring. Zero values match
// everything.
type EventFilter struct {
	// Method keeps only events of this RPC method.
	Method string
	// Outcome keeps only events with this outcome ("ok", "error", ...).
	Outcome string
	// MinDur keeps only events at least this slow.
	MinDur time.Duration
	// SinceSeq keeps only events recorded after this sequence number.
	SinceSeq uint64
	// AnomalousOnly keeps only events that would trigger a bundle.
	AnomalousOnly bool
	// Limit bounds the result to the most recent N matches (0 = all).
	Limit int
}

func (f *EventFilter) match(ev *WideEvent) bool {
	if f.Method != "" && ev.Method != f.Method {
		return false
	}
	if f.Outcome != "" && ev.Outcome != f.Outcome {
		return false
	}
	if f.MinDur > 0 && ev.DurMS < float64(f.MinDur)/float64(time.Millisecond) {
		return false
	}
	if ev.Seq <= f.SinceSeq {
		return false
	}
	if f.AnomalousOnly && !ev.Anomalous() {
		return false
	}
	return true
}

// Events returns the retained events matching f, oldest first.
func (r *FlightRecorder) Events(f EventFilter) []WideEvent {
	out := r.ring.read(f.match)
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[len(out)-f.Limit:]
	}
	return out
}
