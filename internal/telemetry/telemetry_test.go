package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x.count")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("x.count") != c {
		t.Error("second lookup returned a different counter")
	}
	g := r.Gauge("x.level")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Errorf("gauge = %d, want 5", got)
	}
}

func TestHistogramSnapshot(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for v := 1.0; v <= 100; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	if s.Min != 1 || s.Max != 100 {
		t.Errorf("min/max = %g/%g, want 1/100", s.Min, s.Max)
	}
	if s.Sum != 5050 {
		t.Errorf("sum = %g, want 5050", s.Sum)
	}
	// 1..100 uniformly: p50 ≈ 50.5, p99 ≈ 99.01.
	if s.P50 < 50 || s.P50 > 51 {
		t.Errorf("p50 = %g", s.P50)
	}
	if s.P99 < 98.5 || s.P99 > 99.5 {
		t.Errorf("p99 = %g", s.P99)
	}
}

// TestTailExemplarIsLargestTracedObservation: the tail exemplar names the
// trace of the largest observation that carried one, whatever order the
// observations arrive in; untraced observations never displace it.
func TestTailExemplarIsLargestTracedObservation(t *testing.T) {
	obs := []struct {
		v     float64
		trace uint64
	}{{0.004, 0xa}, {0.0045, 0xb}, {0.0042, 0xc}, {0.0001, 0xd}, {0.9, 0}}
	for rot := range obs {
		h := NewRegistry().Histogram("h")
		for i := range obs {
			o := obs[(rot+i)%len(obs)]
			h.ObserveExemplar(o.v, o.trace)
		}
		if got := h.Snapshot().TailExemplar; got != "000000000000000b" {
			t.Errorf("rotation %d: tail exemplar %q, want the trace of 0.0045", rot, got)
		}
	}
}

// TestRegistryConcurrent is the -race teeth for the registry: many
// goroutines creating, incrementing, and observing the same names.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const perG = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Counter("c.shared").Inc()
				r.Gauge("g.shared").Set(int64(i))
				r.Histogram("h.shared").Observe(float64(i) / 1000)
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c.shared").Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := r.Histogram("h.shared").Snapshot().Count; got != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", got, goroutines*perG)
	}
}

func TestSpanTreeAndContext(t *testing.T) {
	tr := newTracer(64)
	ctx, root := tr.StartSpan(context.Background(), "root")
	cctx, child := tr.StartSpan(ctx, "child")
	if child.Trace() != root.Trace() {
		t.Error("child has a different trace ID")
	}
	_, grand := tr.StartSpan(cctx, "grandchild")
	grand.SetAttr("bytes", 42)
	grand.End()
	child.End()
	root.End()

	spans := tr.TraceSpans(root.Trace())
	if len(spans) != 3 {
		t.Fatalf("retained %d spans, want 3", len(spans))
	}
	tree := FormatTree(spans)
	if !strings.Contains(tree, "root") || !strings.Contains(tree, "grandchild") {
		t.Errorf("tree missing spans:\n%s", tree)
	}
	// grandchild should be indented two levels under root.
	if !strings.Contains(tree, "\n    grandchild") {
		t.Errorf("grandchild not nested:\n%s", tree)
	}
}

func TestSpanEndIdempotentAndNilSafe(t *testing.T) {
	tr := newTracer(8)
	_, s := tr.StartSpan(context.Background(), "once")
	s.End()
	s.End()
	if got := len(tr.Spans()); got != 1 {
		t.Errorf("recorded %d spans, want 1", got)
	}
	var nilSpan *Span
	nilSpan.End()          // must not panic
	nilSpan.SetAttr("", 1) // must not panic
}

func TestWireContextRoundTrip(t *testing.T) {
	tr := newTracer(8)
	_, s := tr.StartSpan(context.Background(), "rpc")
	wire := s.WireContext()
	trace, span, ok := ParseWireContext(wire)
	if !ok || trace != s.Trace() || span != s.ID() {
		t.Fatalf("ParseWireContext(%q) = %x, %x, %v", wire, trace, span, ok)
	}
	if _, _, ok := ParseWireContext("junk"); ok {
		t.Error("junk parsed")
	}
}

func TestSpanWireRoundTrip(t *testing.T) {
	d := SpanData{
		Trace:  1,
		ID:     2,
		Parent: 3,
		Name:   "prefilter",
		Start:  time.Unix(0, 12345),
		Dur:    250 * time.Microsecond,
		Attrs:  map[string]any{"array": "v02", "selected": int64(7)},
	}
	got, ok := SpanDataFromWire(d.ToWire())
	if !ok {
		t.Fatal("wire round-trip failed")
	}
	if !got.Remote {
		t.Error("imported span not marked remote")
	}
	if got.Name != d.Name || got.Trace != d.Trace || got.Dur != d.Dur ||
		got.Attrs["array"] != "v02" {
		t.Errorf("round-trip = %+v", got)
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := newTracer(4)
	for i := 0; i < 10; i++ {
		tr.Record(SpanData{Trace: 1, ID: uint64(i + 1), Name: "s"})
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d, want 4", len(spans))
	}
	if spans[0].ID != 7 || spans[3].ID != 10 {
		t.Errorf("ring order wrong: %v", spans)
	}
}

func TestDebugHandler(t *testing.T) {
	// The handler serves the process-wide registry, which outlives one
	// run of the test (-count=N): expect the counter's delta.
	count := Default().Counter("test.debughandler.count")
	want := count.Value() + 3
	count.Add(3)
	Default().Histogram("test.debughandler.seconds").Observe(0.02)
	_, s := StartSpan(context.Background(), "op")
	s.End()

	ts := httptest.NewServer(DebugHandler())
	defer ts.Close()

	body := get(t, ts.URL+"/metrics")
	if !strings.Contains(body, fmt.Sprintf("test.debughandler.count %d\n", want)) {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	if !strings.Contains(body, "test.debughandler.seconds.p50") {
		t.Errorf("/metrics missing percentile lines:\n%s", body)
	}

	var spans []map[string]any
	if err := json.Unmarshal([]byte(get(t, ts.URL+"/debug/trace?trace="+fmt.Sprintf("%x", s.Trace()))), &spans); err != nil {
		t.Fatalf("/debug/trace not JSON: %v", err)
	}
	if len(spans) != 1 || spans[0]["name"] != "op" {
		t.Errorf("/debug/trace = %v", spans)
	}

	if body := get(t, ts.URL+"/debug/pprof/cmdline"); body == "" {
		t.Error("/debug/pprof/cmdline empty")
	}
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestLoggerLevels(t *testing.T) {
	var buf strings.Builder
	stderr := logHandler
	logHandler = slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: &logLevel})
	defer func() {
		logHandler = stderr
		SetLogLevel(slog.LevelInfo)
	}()

	log := Logger("rpc")
	SetLogLevel(slog.LevelWarn)
	log.Info("hidden", "k", 1)
	log.Warn("shown", "k", 2)
	out := buf.String()
	if strings.Contains(out, "hidden") {
		t.Errorf("info leaked past warn level: %s", out)
	}
	if !strings.Contains(out, "shown") || !strings.Contains(out, "component=rpc") {
		t.Errorf("warn line missing or untagged: %s", out)
	}

	// A level change reaches a logger handed out before it.
	SetLogLevel(slog.LevelDebug)
	log.Debug("now-visible")
	if !strings.Contains(buf.String(), "now-visible") {
		t.Error("debug line missing after level change")
	}
}
