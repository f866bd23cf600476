package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of a traced run. Spans of one operation
// share Op; Parent is the span that caused this one (0 for a root).
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// Live marks a replayed layer that was on the operation's real path
	// (a cache hit, for one, skips the read layers); only live layers
	// count toward trace.coverage_ratio.
	Live bool `json:"live,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced path runs the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id.
func (t *tracer) start(name string, op, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, ID: len(t.spans) + 1, Parent: parent, StartNS: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

func (t *tracer) setLive(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Live = true
	t.mu.Unlock()
}

// opTrace is the tracer's view from inside one operation: spans it opens
// are children of the operation's root span.
type opTrace struct {
	t    *tracer
	op   int
	root int
}

// beginOp opens the root span of operation number op.
func (t *tracer) beginOp(op int) *opTrace {
	if t == nil {
		return nil
	}
	return &opTrace{t: t, op: op, root: t.start("op", op, 0)}
}

// span opens a child of the root and returns the function that ends it.
func (ot *opTrace) span(name string) func() {
	if ot == nil {
		return func() {}
	}
	id := ot.t.start(name, ot.op, ot.root)
	return func() { ot.t.end(id) }
}

func (ot *opTrace) endOp() {
	if ot != nil {
		ot.t.end(ot.root)
	}
}

// write stores the spans as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time by id: its duration minus the
// part of that interval its child spans cover. Overlapping children are
// counted once, and a child reaching outside its parent only counts for
// the part inside.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := k.StartNS, k.EndNS
			if lo < edge {
				lo = edge
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.EndNS - s.StartNS - covered
	}
	return self
}
