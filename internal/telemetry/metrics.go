// Package telemetry is the repo's observability substrate: a stdlib-only
// metrics registry (counters, gauges, fixed-bucket histograms with
// percentile snapshots), lightweight trace spans with an in-memory
// ring-buffer exporter, and slog-based structured logging with
// per-component levels. Every layer of the NDP data path — the RPC
// transport, the pre-filter service, the object store, the shaped link,
// and the client pipeline — reports into it, and the daemons expose it
// over HTTP (/metrics, /debug/trace, /debug/pprof).
//
// The paper's entire argument is a timing decomposition (load time =
// storage read + decompress + pre-filter + transfer + decode); this
// package is how a running system answers "where did the time and the
// bytes go" instead of only reporting opaque wall-clock totals.
//
// Metric names are dot-separated, lowercase, coarse-to-fine:
// <component>.<thing>[.<detail>], e.g. ndp.fetch.bytes.payload or
// rpc.server.seconds. Histograms observe seconds (durations) or raw
// counts (sizes); their text rendering appends .count/.sum/.p50/... .
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"vizndp/internal/stats"
)

// Counter is a monotonically increasing int64. The zero value is ready
// to use, but counters are normally obtained from a Registry.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable int64 level (queue depths, last-seen values).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histWindow is how many recent observations a histogram retains for
// exact percentile snapshots. Bucket counts cover the full lifetime;
// the window covers "recent behaviour", which is what p50/p95/p99 on a
// live server should describe. Percentile lines in snapshots and
// /metrics are therefore exact over (at most) the last histWindow
// observations, not estimates over the lifetime buckets.
const histWindow = 1024

// DurationBuckets are the default latency bucket upper bounds in
// seconds, spanning 100µs to 10s — the range of the repo's storage
// reads, pre-filter scans, and shaped transfers.
var DurationBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// SizeBuckets are the default byte-size bucket upper bounds, spanning
// 1 KiB to 1 GiB (MaxFrameSize).
var SizeBuckets = []float64{
	1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10,
	1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20, 1 << 30,
}

// Histogram accumulates observations into fixed buckets and keeps a
// sliding window of raw values for exact percentiles. All methods are
// safe for concurrent use.
type Histogram struct {
	mu      sync.Mutex
	bounds  []float64 // sorted upper bounds; implicit +Inf final bucket
	counts  []int64   // len(bounds)+1
	count   int64
	sum     float64
	min     float64
	max     float64
	window  []float64 // ring of recent observations
	windowN int       // next write position

	// exemplars[i] is the trace ID of the most recent exemplar-bearing
	// observation that landed in bucket i; tailTrace is the one from the
	// highest populated bucket so far — the "worst case seen", linking
	// /metrics tails straight to /debug/trace.
	exemplars  []uint64
	tailTrace  uint64
	tailBucket int
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{
		bounds: b,
		counts: make([]int64, len(b)+1),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) { h.ObserveExemplar(v, 0) }

// ObserveExemplar records one value and, when trace is nonzero, keeps
// it as the bucket's exemplar — and as the histogram's tail exemplar if
// the value landed in the highest exemplar-bearing bucket so far.
func (h *Histogram) ObserveExemplar(v float64, trace uint64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.counts[i]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	if len(h.window) < histWindow {
		h.window = append(h.window, v)
	} else {
		h.window[h.windowN%histWindow] = v
	}
	h.windowN++
	if trace != 0 {
		if h.exemplars == nil {
			h.exemplars = make([]uint64, len(h.counts))
		}
		h.exemplars[i] = trace
		if i >= h.tailBucket {
			h.tailBucket = i
			h.tailTrace = trace
		}
	}
	h.mu.Unlock()
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
type HistogramSnapshot struct {
	Count   int64     `json:"count"`
	Sum     float64   `json:"sum"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	P50     float64   `json:"p50"`
	P95     float64   `json:"p95"`
	P99     float64   `json:"p99"`
	Bounds  []float64 `json:"bounds"`
	Buckets []int64   `json:"buckets"`
	// Exemplars maps bucket index → hex trace ID of an observation that
	// landed there; TailExemplar is the trace behind the worst-bucket
	// observation (the /metrics tail ↔ /debug/trace link).
	Exemplars    map[int]string `json:"exemplars,omitempty"`
	TailExemplar string         `json:"tailExemplar,omitempty"`
}

// Snapshot copies the histogram's current state, with percentiles
// computed over the recent-observation window.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	s := HistogramSnapshot{
		Count:   h.count,
		Sum:     h.sum,
		Bounds:  append([]float64(nil), h.bounds...),
		Buckets: append([]int64(nil), h.counts...),
	}
	if h.count > 0 {
		s.Min, s.Max = h.min, h.max
	}
	if h.tailTrace != 0 {
		s.TailExemplar = fmt.Sprintf("%016x", h.tailTrace)
	}
	for i, t := range h.exemplars {
		if t != 0 {
			if s.Exemplars == nil {
				s.Exemplars = make(map[int]string)
			}
			s.Exemplars[i] = fmt.Sprintf("%016x", t)
		}
	}
	windowed := append([]float64(nil), h.window...)
	h.mu.Unlock()
	s.P50 = stats.Percentile(windowed, 0.50)
	s.P95 = stats.Percentile(windowed, 0.95)
	s.P99 = stats.Percentile(windowed, 0.99)
	return s
}

// Registry holds named metrics. Lookups create on first use, so
// instrumented code never checks for prior registration; the same name
// always returns the same instrument. Kinds are disjoint per name.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry every component reports to.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (later bounds are ignored; nil means
// DurationBuckets).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	if bounds == nil {
		bounds = DurationBuckets
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// Snapshot is a point-in-time dump of every metric in a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies every metric's current value.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// WriteText renders the registry in a flat "name value" text format
// (one line per scalar; histograms expand to .count/.sum/.min/.max and
// percentile lines), sorted by name — the /metrics wire format.
//
// Empty histograms emit only their .count and .sum lines: a min/max or
// percentile of a histogram with no observations is undefined, and the
// 0 values previously printed read as "observed zeros". Percentiles are
// exact over the bounded recent-observation window (histWindow), not
// the full lifetime. Histograms with a tail exemplar also emit a
// .tail.exemplar line carrying the hex trace ID of the worst-bucket
// observation, so a slow /metrics tail links to /debug/trace.
func (r *Registry) WriteText(w io.Writer) error {
	s := r.Snapshot()
	lines := make([]string, 0, len(s.Counters)+len(s.Gauges)+8*len(s.Histograms))
	for name, v := range s.Counters {
		lines = append(lines, fmt.Sprintf("%s %d", name, v))
	}
	for name, v := range s.Gauges {
		lines = append(lines, fmt.Sprintf("%s %d", name, v))
	}
	for name, h := range s.Histograms {
		lines = append(lines,
			fmt.Sprintf("%s.count %d", name, h.Count),
			fmt.Sprintf("%s.sum %g", name, h.Sum),
		)
		if h.Count > 0 {
			lines = append(lines,
				fmt.Sprintf("%s.min %g", name, h.Min),
				fmt.Sprintf("%s.max %g", name, h.Max),
				fmt.Sprintf("%s.p50 %g", name, h.P50),
				fmt.Sprintf("%s.p95 %g", name, h.P95),
				fmt.Sprintf("%s.p99 %g", name, h.P99),
			)
		}
		if h.TailExemplar != "" {
			lines = append(lines, fmt.Sprintf("%s.tail.exemplar %s", name, h.TailExemplar))
		}
	}
	sort.Strings(lines)
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	return nil
}
