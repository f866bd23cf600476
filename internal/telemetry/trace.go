package telemetry

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SpanData is a finished span, the unit the tracer's ring stores
// and the RPC layer ships across process boundaries. IDs are random
// 64-bit values; all spans of one request share a trace ID.
type SpanData struct {
	Trace  uint64         `json:"-"`
	ID     uint64         `json:"-"`
	Parent uint64         `json:"-"` // zero for roots
	Name   string         `json:"name"`
	Start  time.Time      `json:"start"`
	Dur    time.Duration  `json:"-"`
	Attrs  map[string]any `json:"attrs,omitempty"`
	// Remote marks spans imported from another process (for example
	// server-side pre-filter spans shipped back in an RPC response).
	Remote bool `json:"remote,omitempty"`

	// Hex forms for JSON dumps (/debug/trace).
	TraceHex  string  `json:"trace"`
	IDHex     string  `json:"id"`
	ParentHex string  `json:"parent,omitempty"`
	DurMS     float64 `json:"durMs"`
}

// fillHex populates the JSON-facing derived fields.
func (d *SpanData) fillHex() {
	d.TraceHex = fmt.Sprintf("%016x", d.Trace)
	d.IDHex = fmt.Sprintf("%016x", d.ID)
	if d.Parent != 0 {
		d.ParentHex = fmt.Sprintf("%016x", d.Parent)
	}
	d.DurMS = float64(d.Dur) / float64(time.Millisecond)
}

// Span is an in-flight operation. Start one with StartSpan, annotate it
// with SetAttr, and End it exactly once.
type Span struct {
	mu     sync.Mutex
	data   SpanData
	tracer *Tracer
	ended  bool
}

// Trace returns the span's trace ID.
func (s *Span) Trace() uint64 { return s.data.Trace }

// ID returns the span's own ID.
func (s *Span) ID() uint64 { return s.data.ID }

// SetAttr attaches a key/value to the span. Values should be strings,
// bools, integers, or floats so spans survive wire encoding.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.data.Attrs == nil {
		s.data.Attrs = make(map[string]any, 4)
	}
	s.data.Attrs[key] = value
	s.mu.Unlock()
}

// End finishes the span, recording it in the tracer's ring buffer.
// Safe to call on a nil span; later calls are no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.data.Dur = time.Since(s.data.Start)
	d := s.data
	s.mu.Unlock()
	if s.tracer != nil {
		s.tracer.Record(d)
	}
}

type spanCtxKey struct{}

// SpanFromContext returns the active span, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// NewSpanID returns a random nonzero 64-bit span or trace ID.
func NewSpanID() uint64 {
	for {
		if id := rand.Uint64(); id != 0 {
			return id
		}
	}
}

// StartSpan begins a span named name under tracer tr (nil means the
// default tracer). The parent is the span already in ctx; with none the
// span roots a new trace. The returned context carries the new span for
// children.
func (tr *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	s := &Span{
		tracer: tr,
		data: SpanData{
			ID:    NewSpanID(),
			Name:  name,
			Start: time.Now(),
		},
	}
	if parent := SpanFromContext(ctx); parent != nil {
		s.data.Trace = parent.data.Trace
		s.data.Parent = parent.data.ID
	} else {
		s.data.Trace = NewSpanID()
	}
	return context.WithValue(ctx, spanCtxKey{}, s), s
}

// StartSpan begins a span on the default tracer; see Tracer.StartSpan.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return defaultTracer.StartSpan(ctx, name)
}

// Tracer keeps the most recent finished spans in a fixed-size ring.
type Tracer struct {
	ring *ring[SpanData]
}

// newTracer returns a tracer retaining up to capacity finished spans.
func newTracer(capacity int) *Tracer {
	return &Tracer{ring: newRing[SpanData](capacity)}
}

var defaultTracer = newTracer(ringCapacity)

// DefaultTracer returns the process-wide tracer.
func DefaultTracer() *Tracer { return defaultTracer }

// Record appends finished spans to the ring, evicting the oldest.
func (t *Tracer) Record(spans ...SpanData) {
	for _, d := range spans {
		t.ring.put(t.ring.next(), d)
	}
}

// Spans returns the retained spans, oldest first, one copy of each.
func (t *Tracer) Spans() []SpanData {
	return onePerID(t.ring.read(func(*SpanData) bool { return true }))
}

// TraceSpans returns the retained spans of one trace, oldest first, one
// copy of each.
func (t *Tracer) TraceSpans(trace uint64) []SpanData {
	return onePerID(t.ring.read(func(d *SpanData) bool { return d.Trace == trace }))
}

// onePerID keeps one copy of each span (trace and span ID), in the place
// of the first. A call served in the same process records the server's
// spans twice: where they ran, and as the copies the client imported
// from the reply. The imported copy wins, so the tree shows them once,
// marked remote.
func onePerID(spans []SpanData) []SpanData {
	type key struct{ trace, id uint64 }
	at := make(map[key]int, len(spans))
	out := spans[:0]
	for _, d := range spans {
		k := key{d.Trace, d.ID}
		if i, ok := at[k]; ok {
			if d.Remote {
				out[i] = d
			}
			continue
		}
		at[k] = len(out)
		out = append(out, d)
	}
	return out
}

// Wire context: "<trace-hex>:<span-hex>", the value the RPC layer
// carries as an extra request field.

// WireContext encodes the span's identity for cross-process propagation.
func (s *Span) WireContext() string {
	return fmt.Sprintf("%016x:%016x", s.data.Trace, s.data.ID)
}

// ParseWireContext decodes a WireContext string.
func ParseWireContext(s string) (trace, span uint64, ok bool) {
	t, rest, found := strings.Cut(s, ":")
	if !found {
		return 0, 0, false
	}
	tv, err1 := strconv.ParseUint(t, 16, 64)
	sv, err2 := strconv.ParseUint(rest, 16, 64)
	if err1 != nil || err2 != nil || tv == 0 || sv == 0 {
		return 0, 0, false
	}
	return tv, sv, true
}

// ToWire flattens a finished span into msgpack-encodable primitives, for
// shipping server-side spans back inside an RPC response.
func (d SpanData) ToWire() map[string]any {
	m := map[string]any{
		"trace":  int64(d.Trace),
		"id":     int64(d.ID),
		"parent": int64(d.Parent),
		"name":   d.Name,
		"start":  d.Start.UnixNano(),
		"dur":    int64(d.Dur),
	}
	if len(d.Attrs) > 0 {
		attrs := make(map[string]any, len(d.Attrs))
		for k, v := range d.Attrs {
			switch x := v.(type) {
			case string, bool, int64, float64:
				attrs[k] = x
			case int:
				attrs[k] = int64(x)
			case float32:
				attrs[k] = float64(x)
			case time.Duration:
				attrs[k] = x.String()
			default:
				attrs[k] = fmt.Sprint(x)
			}
		}
		m["attrs"] = attrs
	}
	return m
}

// SpanDataFromWire rebuilds a span from its wire form; the span is
// marked Remote.
func SpanDataFromWire(v any) (SpanData, bool) {
	m, ok := v.(map[string]any)
	if !ok {
		return SpanData{}, false
	}
	trace, _ := m["trace"].(int64)
	id, _ := m["id"].(int64)
	name, _ := m["name"].(string)
	if trace == 0 || id == 0 || name == "" {
		return SpanData{}, false
	}
	parent, _ := m["parent"].(int64)
	start, _ := m["start"].(int64)
	dur, _ := m["dur"].(int64)
	d := SpanData{
		Trace:  uint64(trace),
		ID:     uint64(id),
		Parent: uint64(parent),
		Name:   name,
		Start:  time.Unix(0, start),
		Dur:    time.Duration(dur),
		Remote: true,
	}
	if attrs, ok := m["attrs"].(map[string]any); ok {
		d.Attrs = attrs
	}
	return d, true
}

// FormatTree renders spans as an indented tree grouped by trace, with
// durations and attributes — what `vizpipe -v` prints. Orphans (parent
// not in the set) are promoted to roots so partial rings still render.
func FormatTree(spans []SpanData) string {
	byID := make(map[uint64]bool, len(spans))
	for _, d := range spans {
		byID[d.ID] = true
	}
	children := make(map[uint64][]SpanData)
	var roots []SpanData
	for _, d := range spans {
		if d.Parent != 0 && byID[d.Parent] {
			children[d.Parent] = append(children[d.Parent], d)
		} else {
			roots = append(roots, d)
		}
	}
	sortSpans := func(s []SpanData) {
		sort.Slice(s, func(i, j int) bool { return s[i].Start.Before(s[j].Start) })
	}
	sortSpans(roots)
	for _, c := range children {
		sortSpans(c)
	}
	var b strings.Builder
	var walk func(d SpanData, depth int)
	walk = func(d SpanData, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		fmt.Fprintf(&b, "%s  %s", d.Name, d.Dur.Round(time.Microsecond))
		if d.Remote {
			b.WriteString("  [remote]")
		}
		if len(d.Attrs) > 0 {
			keys := make([]string, 0, len(d.Attrs))
			for k := range d.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			b.WriteString("  {")
			for i, k := range keys {
				if i > 0 {
					b.WriteString(", ")
				}
				fmt.Fprintf(&b, "%s=%v", k, d.Attrs[k])
			}
			b.WriteString("}")
		}
		b.WriteByte('\n')
		for _, c := range children[d.ID] {
			walk(c, depth+1)
		}
	}
	lastTrace := uint64(0)
	for _, r := range roots {
		if r.Trace != lastTrace && lastTrace != 0 {
			b.WriteByte('\n')
		}
		lastTrace = r.Trace
		walk(r, 0)
	}
	return b.String()
}
