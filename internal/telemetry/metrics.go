// Package telemetry is the repo's observability substrate: a stdlib-only
// metrics registry (counters, gauges, and histograms with percentile
// snapshots), lightweight trace spans with an in-memory ring-buffer
// exporter, and slog-based structured logging tagged by component under
// one process-wide level. Every layer of the NDP data path — the RPC
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
// <component>.<thing>[.<detail>], e.g. ndp.fetch.read.seconds or
// rpc.server.seconds. Histograms observe seconds (durations) or raw
// counts (sizes); their text rendering appends .count/.sum/.p50/... .
package telemetry

import (
	"fmt"
	"io"
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
// exact percentile snapshots. Count, sum, min and max cover the full
// lifetime; the window covers "recent behaviour", which is what
// p50/p95/p99 on a live server should describe.
const histWindow = 1024

// Histogram keeps lifetime count, sum, min and max, a sliding window of
// raw values for exact percentiles, and the trace of its largest traced
// observation. All methods are safe for concurrent use.
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     float64
	min     float64
	max     float64
	window  []float64 // ring of recent observations
	windowN int       // next write position

	// tailTrace is the trace ID of the largest observation that carried
	// one, and tailValue that observation — the "worst case seen",
	// linking /metrics tails straight to /debug/trace.
	tailTrace uint64
	tailValue float64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) { h.ObserveExemplar(v, 0) }

// ObserveExemplar records one value and, when trace is nonzero and v is
// the largest traced value so far, keeps trace as the tail exemplar.
func (h *Histogram) ObserveExemplar(v float64, trace uint64) {
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	if len(h.window) < histWindow {
		h.window = append(h.window, v)
	} else {
		h.window[h.windowN%histWindow] = v
	}
	h.windowN++
	if trace != 0 && (h.tailTrace == 0 || v > h.tailValue) {
		h.tailTrace, h.tailValue = trace, v
	}
	h.mu.Unlock()
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	// TailExemplar is the hex trace ID of the largest traced observation
	// (the /metrics tail ↔ /debug/trace link).
	TailExemplar string `json:"tailExemplar,omitempty"`
}

// Snapshot copies the histogram's current state, with percentiles
// computed over the recent-observation window.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	s := HistogramSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	if h.tailTrace != 0 {
		s.TailExemplar = fmt.Sprintf("%016x", h.tailTrace)
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

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		h = &Histogram{}
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
// .tail.exemplar line carrying the hex trace ID of the largest traced
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
