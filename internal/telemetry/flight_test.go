package telemetry

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestActiveEventOutcomeDerivation(t *testing.T) {
	rec := newFlightRecorder(16)

	cases := []struct {
		name    string
		build   func(a *ActiveEvent)
		err     error
		outcome string
	}{
		{"ok", func(a *ActiveEvent) {}, nil, OutcomeOK},
		{"error", func(a *ActiveEvent) {}, errors.New("boom"), OutcomeError},
		{"shed wins over error", func(a *ActiveEvent) { a.MarkShed() }, errors.New("busy"), OutcomeShed},
		{"expired wins over error", func(a *ActiveEvent) { a.MarkExpired() }, errors.New("deadline"), OutcomeExpired},
	}
	for _, tc := range cases {
		a := rec.Begin(KindServer, "m."+tc.name)
		tc.build(a)
		a.Finish(tc.err)
		evs := rec.Events(EventFilter{Method: "m." + tc.name})
		if len(evs) != 1 {
			t.Fatalf("%s: got %d events, want 1", tc.name, len(evs))
		}
		if evs[0].Outcome != tc.outcome {
			t.Errorf("%s: outcome %q, want %q", tc.name, evs[0].Outcome, tc.outcome)
		}
	}

	// Finish is idempotent: the second call must not record a second event.
	a := rec.Begin(KindServer, "m.once")
	a.Finish(nil)
	a.Finish(errors.New("late"))
	if got := len(rec.Events(EventFilter{Method: "m.once"})); got != 1 {
		t.Errorf("double Finish recorded %d events, want 1", got)
	}

	// Every builder method must be a no-op on a nil receiver — enrichment
	// sites never check whether recording is active.
	var nilEv *ActiveEvent
	nilEv.SetSpanIDs(1, 2)
	nilEv.Stage("queue", time.Now())
	nilEv.SetBudget(time.Second)
	nilEv.SetBytesIn(1)
	nilEv.SetBytesOut(1)
	nilEv.SetCache("hit")
	nilEv.MarkShed()
	nilEv.MarkExpired()
	nilEv.MarkDegraded()
	nilEv.AddRetry()
	nilEv.AddFailover()
	nilEv.SetAttr("k", "v")
	nilEv.Finish(nil)
}

// TestActiveEventStages pins the stage record: stages land in the order
// they were recorded, Stage returns what it recorded and allocates
// nothing, a stage after Finish — racing it, as an orphaned flight's does
// — is dropped, and Spans derives one child per stage inside the root.
func TestActiveEventStages(t *testing.T) {
	rec := newFlightRecorder(16)
	a := rec.Begin(KindServer, "m.stages")
	t0 := time.Now()
	if d := a.Stage("queue", t0); d <= 0 {
		t.Errorf("Stage returned %v", d)
	}
	root := SpanData{Trace: 7, ID: 8, Name: "serve m", Start: time.Now()}
	a.Stage("read", root.Start)
	a.Stage("prefilter", time.Now())
	root.Dur = time.Since(root.Start)
	spans := a.Spans(root)
	if len(spans) != 3 || spans[0].Name != "serve m" || spans[1].Name != "read" || spans[2].Name != "prefilter" {
		t.Fatalf("Spans = %v, want serve, read and prefilter (the queue began before the root)", spans)
	}
	for _, c := range spans[1:] {
		if c.Trace != 7 || c.Parent != 8 || c.ID == 0 {
			t.Errorf("child %s: trace %x parent %x id %x", c.Name, c.Trace, c.Parent, c.ID)
		}
	}
	for range maxStages {
		a.Stage("crc", time.Now()) // past capacity: dropped
	}
	b := rec.Begin(KindServer, "m.allocs")
	if allocs := testing.AllocsPerRun(3, func() { b.Stage("read", time.Now()) }); allocs != 0 {
		t.Errorf("Stage allocates %v times per call", allocs)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		a.Stage("late", time.Now())
	}()
	a.Finish(nil)
	<-done
	evs := rec.Events(EventFilter{Method: "m.stages"})
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	st := evs[0].Stages
	if len(st) != maxStages || st[0].Name != "queue" || st[0].At != t0.Sub(a.ev.Time) || st[1].Name != "read" {
		t.Fatalf("stages = %v", st)
	}
	for _, s := range st {
		if s.Name == "late" {
			t.Error("a stage recorded after Finish was kept")
		}
	}
	a.Stage("late", time.Now())
	if got := rec.Events(EventFilter{Method: "m.stages"})[0].Stages; len(got) != maxStages {
		t.Errorf("a stage after Finish changed the recorded event: %v", got)
	}
}

func TestFlightRecorderRingAndFilters(t *testing.T) {
	rec := newFlightRecorder(4)
	for i := 0; i < 10; i++ {
		a := rec.Begin(KindServer, "ndp.fetch")
		if i%2 == 1 {
			a.MarkShed()
		}
		a.Finish(nil)
	}
	// Capacity 4 after 10 records: only seqs 7..10 survive, oldest first.
	evs := rec.Events(EventFilter{})
	if len(evs) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(7 + i); ev.Seq != want {
			t.Errorf("event %d has seq %d, want %d (oldest first)", i, ev.Seq, want)
		}
	}
	if got := len(rec.Events(EventFilter{Outcome: OutcomeShed})); got != 2 {
		t.Errorf("outcome filter matched %d, want 2 (seqs 8 and 10)", got)
	}
	if got := len(rec.Events(EventFilter{AnomalousOnly: true})); got != 2 {
		t.Errorf("anomalous filter matched %d, want 2", got)
	}
	if got := len(rec.Events(EventFilter{SinceSeq: 9})); got != 1 {
		t.Errorf("since-seq filter matched %d, want 1", got)
	}
	if got := rec.Events(EventFilter{Limit: 2}); len(got) != 2 || got[1].Seq != 10 {
		t.Errorf("limit filter should keep the 2 most recent, got %+v", got)
	}
	if got := len(rec.Events(EventFilter{Method: "other"})); got != 0 {
		t.Errorf("method filter matched %d, want 0", got)
	}
	if got := len(rec.Events(EventFilter{MinDur: time.Hour})); got != 0 {
		t.Errorf("min-duration filter matched %d, want 0", got)
	}

	// Disabled recorder drops events after one atomic load.
	rec.SetEnabled(false)
	rec.Begin(KindServer, "ndp.fetch").Finish(nil)
	if rec.Seq() != 10 {
		t.Errorf("disabled recorder still assigned seq %d", rec.Seq())
	}
}

func TestSLOMonitorBurnAccounting(t *testing.T) {
	reg := NewRegistry()
	frozen := time.Date(2026, 8, 8, 12, 0, 30, 0, time.UTC)
	m := NewSLOMonitor(KindServer, Objective{
		Method:        "ndp.fetch",
		Latency:       100 * time.Millisecond,
		LatencyTarget: 0.9,
		AvailTarget:   0.999,
	})
	m.reg = reg
	m.now = func() time.Time { return frozen }

	obs := func(kind, method, outcome string, durMS float64, shed bool) bool {
		return m.Observe(&WideEvent{Kind: kind, Method: method, Outcome: outcome, DurMS: durMS, Shed: shed})
	}
	// 8 fast successes, 1 slow success (latency breach), 1 shed
	// (availability breach; not executed, so it can't be "slow").
	for i := 0; i < 8; i++ {
		if obs(KindServer, "ndp.fetch", OutcomeOK, 10, false) {
			t.Fatal("fast success scored as a breach")
		}
	}
	if !obs(KindServer, "ndp.fetch", OutcomeOK, 250, false) {
		t.Error("slow request did not breach the latency objective")
	}
	if !obs(KindServer, "ndp.fetch", OutcomeShed, 0.1, true) {
		t.Error("shed request did not breach the availability objective")
	}
	// Client events and unmonitored methods must not count.
	if obs(KindClient, "ndp.fetch", OutcomeError, 500, false) {
		t.Error("client-kind event scored against a server monitor")
	}
	if obs(KindServer, "ndp.describe", OutcomeError, 500, false) {
		t.Error("method without an objective scored as a breach")
	}

	st := m.Status()
	if len(st) != 1 {
		t.Fatalf("got %d status rows, want 1", len(st))
	}
	s := st[0]
	if s.Total != 10 || s.Bad != 1 || s.Executed != 9 || s.LatSlow != 1 || s.Breaches != 2 {
		t.Fatalf("tallies total=%d bad=%d executed=%d latSlow=%d breaches=%d, want 10/1/9/1/2",
			s.Total, s.Bad, s.Executed, s.LatSlow, s.Breaches)
	}
	// Burn = (bad fraction) / (error budget): avail (1/10)/0.001 = 100,
	// latency (1/9)/0.1 = 10/9. Gauges carry them in milli-units.
	if g := reg.Gauge("telemetry.slo.ndp.fetch.avail.burn.fast").Value(); g != 100000 {
		t.Errorf("avail burn gauge %d, want 100000", g)
	}
	if g := reg.Gauge("telemetry.slo.ndp.fetch.latency.burn.fast").Value(); g != 1111 {
		t.Errorf("latency burn gauge %d, want 1111 (10/9 in milli-units)", g)
	}
	if c := reg.Counter("telemetry.slo.ndp.fetch.breaches").Value(); c != 2 {
		t.Errorf("breach counter %d, want 2", c)
	}

	// A recorder with the monitor attached stamps Breached on the stored
	// event.
	rec := newFlightRecorder(8)
	rec.SetSLO(m)
	a := rec.Begin(KindServer, "ndp.fetch")
	a.MarkShed()
	a.Finish(errors.New("busy"))
	evs := rec.Events(EventFilter{})
	if len(evs) != 1 || !evs[0].Breached {
		t.Errorf("recorded shed event not stamped Breached: %+v", evs)
	}
}

// TestSLOMonitorGaugesMatchStatus races Observes on one monitor: once
// they are done, the burn gauges must equal its status. A publish made
// outside the monitor's lock could land after a later Observe's and
// leave a gauge at the older burn.
func TestSLOMonitorGaugesMatchStatus(t *testing.T) {
	frozen := time.Date(2026, 8, 8, 12, 0, 30, 0, time.UTC)
	for trial := 0; trial < 1000; trial++ {
		reg := NewRegistry()
		m := NewSLOMonitor(KindServer, Objective{Method: "ndp.fetch", Latency: 100 * time.Millisecond})
		m.reg = reg
		m.now = func() time.Time { return frozen }
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					ev := &WideEvent{Kind: KindServer, Method: "ndp.fetch", Outcome: OutcomeOK, DurMS: float64(10 + 100*((g+i)%3))}
					if (g*50+i)%7 == 0 {
						ev.Outcome = OutcomeError
					}
					m.Observe(ev)
				}
			}()
		}
		wg.Wait()
		st := m.Status()[0]
		for name, burn := range map[string]float64{
			"avail.burn.fast": st.AvailBurnFast, "avail.burn.slow": st.AvailBurnSlow,
			"latency.burn.fast": st.LatencyBurnFast, "latency.burn.slow": st.LatencyBurnSlow,
		} {
			if v, want := reg.Gauge("telemetry.slo.ndp.fetch."+name).Value(), int64(math.Round(burn*1000)); v != want {
				t.Fatalf("trial %d: %s gauge %d, status says %d", trial, name, v, want)
			}
		}
	}
}

func TestSLOMonitorDefaultObjective(t *testing.T) {
	m := NewSLOMonitor(KindServer, Objective{Method: "*", Latency: 50 * time.Millisecond})
	m.reg = NewRegistry()
	if !m.Observe(&WideEvent{Kind: KindServer, Method: "anything", Outcome: OutcomeError, DurMS: 1}) {
		t.Error("star objective did not cover an arbitrary method")
	}
}

func TestParseSLOSpec(t *testing.T) {
	objs, err := ParseSLOSpec("ndp.fetch=50ms@99/99.9,*=250ms@99")
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 {
		t.Fatalf("got %d objectives, want 2", len(objs))
	}
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	if objs[0].Method != "ndp.fetch" || objs[0].Latency != 50*time.Millisecond ||
		!near(objs[0].LatencyTarget, 0.99) || !near(objs[0].AvailTarget, 0.999) {
		t.Errorf("first objective parsed as %+v", objs[0])
	}
	if objs[1].Method != "*" || !near(objs[1].AvailTarget, 0.999) {
		t.Errorf("second objective should default avail to 99.9%%, got %+v", objs[1])
	}
	for _, bad := range []string{"nofields", "m=xyz@99", "m=50ms", "m=50ms@150", "m=50ms@99/0"} {
		if _, err := ParseSLOSpec(bad); err == nil {
			t.Errorf("ParseSLOSpec(%q) accepted a malformed spec", bad)
		}
	}
}

func TestBundleWriterWritesAndRateLimits(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	tr := newTracer(64)
	bw, err := NewBundleWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	bw.reg, bw.tr = reg, tr

	// A trace with two spans so the bundle's tree is non-trivial.
	const trace = uint64(0xabcd)
	tr.Record(SpanData{Trace: trace, ID: 1, Name: "serve ndp.fetch", Start: time.Unix(0, 1)})
	tr.Record(SpanData{Trace: trace, ID: 2, Parent: 1, Name: "read", Start: time.Unix(0, 2)})
	tr.Record(SpanData{Trace: 0x9999, ID: 3, Name: "other trace", Start: time.Unix(0, 3)})

	rec := newFlightRecorder(8)
	a := rec.Begin(KindServer, "ndp.fetch")
	a.Finish(nil)

	trigger := WideEvent{Kind: KindServer, Method: "ndp.fetch", Outcome: OutcomeError, traceID: trace}
	bw.MaybeWrite(trigger, rec)
	bw.MaybeWrite(trigger, rec)
	if got := bw.Written(); got != 1 {
		t.Fatalf("wrote %d bundles, want 1 (second inside the minimum interval)", got)
	}
	if v := reg.Counter("telemetry.bundles.suppressed").Value(); v != 1 {
		t.Errorf("suppressed counter %d, want 1", v)
	}

	files, err := filepath.Glob(filepath.Join(dir, "bundle-*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("bundle files on disk: %v (err %v), want exactly 1", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var b DebugBundle
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("bundle is not valid JSON: %v", err)
	}
	if b.Trigger.Method != "ndp.fetch" || b.Trigger.Outcome != OutcomeError {
		t.Errorf("trigger round-tripped as %+v", b.Trigger)
	}
	if len(b.Recent) != 1 {
		t.Errorf("bundle embeds %d recent events, want 1", len(b.Recent))
	}
	if len(b.Spans) != 2 {
		t.Errorf("bundle has %d spans, want the trigger trace's 2 (not the other trace's)", len(b.Spans))
	}
	if !strings.Contains(b.TraceTree, "serve ndp.fetch") || !strings.Contains(b.TraceTree, "read") {
		t.Errorf("trace tree missing spans:\n%s", b.TraceTree)
	}
}

func TestBundleWriterEvictsOldest(t *testing.T) {
	dir := t.TempDir()
	bw, err := NewBundleWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	bw.minInterval, bw.maxBundles, bw.reg = time.Nanosecond, 2, NewRegistry()
	for i := 0; i < 5; i++ {
		bw.MaybeWrite(WideEvent{Method: "m", Outcome: OutcomeError}, nil)
		time.Sleep(2 * time.Millisecond) // clear minInterval between triggers
	}
	if got := bw.Written(); got != 5 {
		t.Fatalf("wrote %d bundles, want 5", got)
	}
	files, err := filepath.Glob(filepath.Join(dir, "bundle-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Errorf("kept %d bundle files, want maxBundles=2: %v", len(files), files)
	}
}

// TestBundleWriterCountsOnlyWrittenFiles: a bundle that fails to land
// on disk is not counted, so a gate on Written() means files exist.
func TestBundleWriterCountsOnlyWrittenFiles(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bundles")
	bw, err := NewBundleWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	bw.reg = NewRegistry()
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	bw.MaybeWrite(WideEvent{Method: "m", Outcome: OutcomeError}, nil)
	if got := bw.Written(); got != 0 {
		t.Errorf("Written() = %d with no file on disk, want 0", got)
	}
}

func TestWriteTextOmitsEmptyHistogramStats(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c.count").Add(2)
	reg.Gauge("g.level").Set(-1)
	reg.Histogram("empty.seconds")
	h := reg.Histogram("busy.seconds")
	h.ObserveExemplar(0.5, 0xbeef)

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// The full line set: an empty histogram has no min/max/percentile
	// lines, a traced one adds its tail exemplar.
	want := []string{
		"busy.seconds.count 1",
		"busy.seconds.max 0.5",
		"busy.seconds.min 0.5",
		"busy.seconds.p50 0.5",
		"busy.seconds.p95 0.5",
		"busy.seconds.p99 0.5",
		"busy.seconds.sum 0.5",
		"busy.seconds.tail.exemplar 000000000000beef",
		"c.count 2",
		"empty.seconds.count 0",
		"empty.seconds.sum 0",
		"g.level -1",
	}
	if got := strings.Split(strings.TrimSuffix(out, "\n"), "\n"); strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("/metrics lines:\n%s\nwant:\n%s", out, strings.Join(want, "\n"))
	}

	// The JSON snapshot behaves the same: zero stats, not garbage.
	snap := reg.Snapshot()
	es := snap.Histograms["empty.seconds"]
	if es.Count != 0 || es.Min != 0 || es.Max != 0 || es.P50 != 0 {
		t.Errorf("empty histogram snapshot carries stats: %+v", es)
	}
	if snap.Histograms["busy.seconds"].TailExemplar != "000000000000beef" {
		t.Errorf("snapshot tail exemplar = %q", snap.Histograms["busy.seconds"].TailExemplar)
	}
}

// TestEventsCostDoesNotDependOnWrapPoint pins the ring read's cost: a
// ring that has wrapped to its midpoint is a rotation of sorted slots,
// which an insertion sort orders in a quadratic number of moves (~100ms
// at the default capacity, inline in every debug-bundle write). Reading
// it must cost about what reading a ring that ends on a slot boundary
// does.
func TestEventsCostDoesNotDependOnWrapPoint(t *testing.T) {
	read := func(records int) time.Duration {
		rec := newFlightRecorder(ringCapacity)
		for i := 0; i < records; i++ {
			rec.Begin(KindServer, "ndp.fetch").Finish(nil)
		}
		best := time.Hour
		for trial := 0; trial < 3; trial++ {
			start := time.Now()
			evs := rec.Events(EventFilter{})
			if d := time.Since(start); d < best {
				best = d
			}
			for i := 1; i < len(evs); i++ {
				if evs[i].Seq != evs[i-1].Seq+1 {
					t.Fatalf("after %d records, event %d has seq %d after %d", records, i, evs[i].Seq, evs[i-1].Seq)
				}
			}
		}
		return best
	}
	aligned, rotated := read(2*ringCapacity), read(2*ringCapacity+ringCapacity/2)
	if rotated > 10*aligned+5*time.Millisecond {
		t.Errorf("reading a half-wrapped ring took %v, an aligned one %v", rotated, aligned)
	}
}
