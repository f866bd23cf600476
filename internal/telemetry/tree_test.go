package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFormatTreeOrphansPromotedToRoots(t *testing.T) {
	// A span whose parent aged out of the ring must still render, at the
	// root level, rather than vanish.
	spans := []SpanData{
		{Trace: 1, ID: 10, Parent: 99, Name: "orphan", Start: time.Unix(0, 1)},
		{Trace: 1, ID: 11, Parent: 10, Name: "child-of-orphan", Start: time.Unix(0, 2)},
	}
	out := FormatTree(spans)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), out)
	}
	if strings.HasPrefix(lines[0], " ") || !strings.HasPrefix(lines[0], "orphan") {
		t.Errorf("orphan not promoted to root: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "  child-of-orphan") {
		t.Errorf("orphan's child lost its indentation: %q", lines[1])
	}
}

func TestFormatTreeSeparatesTraces(t *testing.T) {
	spans := []SpanData{
		{Trace: 1, ID: 1, Name: "first", Start: time.Unix(0, 1)},
		{Trace: 2, ID: 2, Name: "second", Start: time.Unix(0, 2)},
	}
	out := FormatTree(spans)
	// Distinct traces are separated by a blank line.
	if !strings.Contains(out, "\n\n") {
		t.Errorf("no blank line between traces:\n%q", out)
	}
	if strings.Index(out, "first") > strings.Index(out, "second") {
		t.Errorf("roots not ordered by start time:\n%s", out)
	}
}

func TestFormatTreeDeterministicAttrs(t *testing.T) {
	span := SpanData{
		Trace: 1, ID: 1, Name: "op", Start: time.Unix(0, 1),
		Attrs: map[string]any{"zeta": 1, "alpha": "x", "mid": true},
	}
	want := FormatTree([]SpanData{span})
	if !strings.Contains(want, "{alpha=x, mid=true, zeta=1}") {
		t.Fatalf("attrs not sorted by key:\n%s", want)
	}
	// Map iteration order varies; the rendering must not.
	for i := 0; i < 20; i++ {
		if got := FormatTree([]SpanData{span}); got != want {
			t.Fatalf("rendering varies across calls:\n%q\nvs\n%q", got, want)
		}
	}
}

func TestFormatTreeEmpty(t *testing.T) {
	if out := FormatTree(nil); out != "" {
		t.Errorf("FormatTree(nil) = %q, want empty", out)
	}
}

func TestTracerRecordConcurrent(t *testing.T) {
	const (
		capacity = 64
		writers  = 8
		perW     = 200
	)
	tr := newTracer(capacity)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				tr.Record(SpanData{
					Trace: uint64(w + 1),
					ID:    uint64(w*perW + i + 1),
					Name:  fmt.Sprintf("w%d", w),
					Start: time.Unix(0, int64(i+1)),
				})
			}
		}(w)
	}
	wg.Wait()

	spans := tr.Spans()
	if len(spans) != capacity {
		t.Fatalf("ring holds %d spans after saturation, want %d", len(spans), capacity)
	}
	for i, d := range spans {
		if d.ID == 0 || d.Name == "" {
			t.Fatalf("span %d is torn or empty: %+v", i, d)
		}
	}

	// Sequential tail property: after concurrent churn, the most recent
	// writes must all be retained.
	for i := 0; i < capacity; i++ {
		tr.Record(SpanData{Trace: 7, ID: uint64(1000 + i), Name: "tail", Start: time.Unix(0, int64(i))})
	}
	for i, d := range tr.Spans() {
		if d.Name != "tail" || d.ID != uint64(1000+i) {
			t.Fatalf("position %d lost the recent write: %+v", i, d)
		}
	}
}
