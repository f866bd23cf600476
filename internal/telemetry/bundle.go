package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Anomaly-triggered debug bundles. When the flight recorder sees an
// anomalous event — an error, a shed, an expired deadline, a degraded
// fetch, or an SLO breach — the attached BundleWriter snapshots the
// context needed for a postmortem into one on-disk JSON file: the
// triggering wide event, the recent ring, the triggering trace's full
// span tree, the current metrics, and the counter delta since the last
// bundle. Writes are rate-limited so an incident produces a handful of
// bundles, not one per failing request.

// DebugBundle is the on-disk bundle schema.
type DebugBundle struct {
	// Written is when the bundle was captured.
	Written time.Time `json:"written"`
	// Trigger is the anomalous wide event that caused the capture.
	Trigger WideEvent `json:"trigger"`
	// Recent is the flight ring's most recent events (oldest first).
	Recent []WideEvent `json:"recent"`
	// Spans are the triggering trace's retained spans, and TraceTree is
	// the same rendered as an indented tree. Empty when the trigger was
	// untraced (e.g. shed before a span started) or the spans aged out.
	Spans     []SpanData `json:"spans,omitempty"`
	TraceTree string     `json:"traceTree,omitempty"`
	// Metrics is the full registry snapshot at capture time, and
	// CounterDelta the counter movement since the previous bundle (or
	// since the writer was created, for the first one).
	Metrics      Snapshot         `json:"metrics"`
	CounterDelta map[string]int64 `json:"counterDelta,omitempty"`
}

// BundleWriter writes rate-limited debug bundles into a directory.
// Attach to a FlightRecorder with SetBundles. At most one bundle is
// written per 10 s — triggers inside the gap are counted as suppressed —
// the newest 32 files are kept, and each embeds up to the 256 most recent
// ring events.
type BundleWriter struct {
	dir string
	// Test seams, set from the defaults by NewBundleWriter.
	minInterval time.Duration
	maxBundles  int
	reg         *Registry
	tr          *Tracer

	mu      sync.Mutex
	last    time.Time
	n       int // bundles admitted past the rate limit; names their files
	wrote   int // bundles that reached the disk
	prevCtr map[string]int64
	written []string // kept bundle paths, oldest first
}

// bundleRecent bounds how many ring events a bundle embeds.
const bundleRecent = 256

// NewBundleWriter creates dir (and parents) and returns a writer that
// snapshots the process-wide registry and tracer.
func NewBundleWriter(dir string) (*BundleWriter, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("bundle dir: %w", err)
	}
	return &BundleWriter{
		dir:         dir,
		minInterval: 10 * time.Second,
		maxBundles:  32,
		reg:         Default(),
		tr:          DefaultTracer(),
	}, nil
}

// Dir returns the bundle directory.
func (b *BundleWriter) Dir() string { return b.dir }

// MaybeWrite captures a bundle for trigger unless rate-limited. The
// admission decision happens under the writer's lock; the snapshotting
// and file write happen outside it so a slow disk never blocks the
// recording path of other requests.
func (b *BundleWriter) MaybeWrite(trigger WideEvent, rec *FlightRecorder) {
	b.mu.Lock()
	now := time.Now()
	if !b.last.IsZero() && now.Sub(b.last) < b.minInterval {
		b.mu.Unlock()
		b.reg.Counter("telemetry.bundles.suppressed").Inc()
		return
	}
	b.last = now
	b.n++
	seq := b.n
	prev := b.prevCtr
	b.mu.Unlock()

	bundle := DebugBundle{
		Written: now,
		Trigger: trigger,
		Metrics: b.reg.Snapshot(),
	}
	if rec != nil {
		bundle.Recent = rec.Events(EventFilter{Limit: bundleRecent})
	}
	if trigger.traceID != 0 {
		bundle.Spans = b.tr.TraceSpans(trigger.traceID)
		for i := range bundle.Spans {
			bundle.Spans[i].fillHex()
		}
		bundle.TraceTree = FormatTree(bundle.Spans)
	}
	if prev != nil {
		delta := make(map[string]int64)
		for name, v := range bundle.Metrics.Counters {
			if d := v - prev[name]; d != 0 {
				delta[name] = d
			}
		}
		bundle.CounterDelta = delta
	}

	name := fmt.Sprintf("bundle-%s-%03d.json", now.UTC().Format("20060102T150405"), seq)
	path := filepath.Join(b.dir, name)
	data, err := json.MarshalIndent(&bundle, "", "  ")
	if err != nil {
		return
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return
	}
	b.reg.Counter("telemetry.bundles.written").Inc()

	b.mu.Lock()
	b.wrote++
	b.prevCtr = bundle.Metrics.Counters
	b.written = append(b.written, path)
	var evict []string
	if len(b.written) > b.maxBundles {
		evict = append(evict, b.written[:len(b.written)-b.maxBundles]...)
		b.written = b.written[len(b.written)-b.maxBundles:]
	}
	b.mu.Unlock()
	for _, p := range evict {
		_ = os.Remove(p)
	}
}

// Written returns how many bundles this writer has written to disk; one
// whose marshal or file write failed is not counted.
func (b *BundleWriter) Written() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.wrote
}
