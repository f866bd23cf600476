package main

import (
	"runtime"
	"sync"
	"time"

	"vizndp/internal/stats"
	"vizndp/internal/telemetry"
)

// counterNames are the program's own counters the benchmark reads; the
// per-layer ratios are their deltas over the untraced timed window.
var counterNames = []string{
	"objstore.requests.get", "objstore.requests.head",
	"arraycache.hits", "arraycache.misses", "arraycache.evictions", "arraycache.coalesced",
	"core.payloadcache.hits", "core.payloadcache.misses", "core.payloadcache.evictions",
	"core.scan.requests", "core.scan.passes", "core.scan.coalesced",
	"rpc.server.requests", "rpc.server.shed", "rpc.server.deadline.expired",
}

func readCounters() map[string]int64 {
	out := make(map[string]int64, len(counterNames))
	for _, name := range counterNames {
		out[name] = telemetry.Default().Counter(name).Value()
	}
	return out
}

func last(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return xs[len(xs)-1]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 { return stats.Percentile(xs, 0.5) }

// tail returns the highest percentile of xs that still has at least ten
// samples beyond it, and which percentile that is (0.9 for 100 samples,
// 0.99 for 1000). Below 20 samples that is the median.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	pct = 1 - 10/float64(len(xs))
	if pct < 0.5 {
		pct = 0.5
	}
	return stats.Percentile(xs, pct), pct
}

// measurement accumulates one timed window: every op attempted in it,
// bracketed by snapshots of the allocator, the program's counters, the
// link and the clock.
type measurement struct {
	w  *workload
	mu sync.Mutex

	attempted, failed          int
	primaryAttempted, withinOK int

	// Closed loop: every op's time by sweep, in schedule order (0 for a
	// failed op); curMs is the sweep under way.
	opMs  [][]float64
	curMs []float64

	// crowd: phase A's latencies by arrival (0 for a failure), and when each
	// verified op of phases B and C completed, in ms since its phase began.
	latMs, doneMs, baseDoneMs []float64

	// One entry per verified op.
	byClass               map[string][]float64
	primaryMs, baselineMs []float64
	okOps                 int
	readMs, filterMs      []float64
	transferMs            []float64
	selectivity           []float64

	// Link bytes by op kind; exact with one client, totals per phase with many.
	primaryWire, baselineWire       int64
	primaryWireOps, baselineWireOps int

	mem0, mem1   runtime.MemStats
	ctr0, ctr1   map[string]int64
	link0, link1 int64
	host0, host1 hostSample
	t0           time.Time
	wall         time.Duration
	truncated    bool
}

func newMeasurement(w *workload) *measurement {
	return &measurement{w: w, byClass: make(map[string][]float64)}
}

func (m *measurement) begin(tb *testbed) {
	runtime.GC()
	runtime.ReadMemStats(&m.mem0)
	m.ctr0 = readCounters()
	m.link0 = tb.link.BytesSent()
	m.host0 = sampleHost()
	m.t0 = time.Now()
}

func (m *measurement) end(tb *testbed) {
	m.wall = time.Since(m.t0)
	m.host1 = sampleHost()
	m.link1 = tb.link.BytesSent()
	m.ctr1 = readCounters()
	runtime.ReadMemStats(&m.mem1)
}

func (m *measurement) counter(name string) float64 { return float64(m.ctr1[name] - m.ctr0[name]) }

// record counts one attempted op. ok means it returned without error and
// its outputs matched the verification sweep's; lat is the latency that
// counts against the workload's limit (the op's own duration in a closed
// loop, the time since its due moment in an open one).
func (m *measurement) record(o *op, res *opResult, ok bool, lat time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.attempted++
	if !o.baseline() {
		m.primaryAttempted++
	}
	if !ok {
		m.failed++
		m.curMs = append(m.curMs, 0)
		return
	}
	m.curMs = append(m.curMs, ms(res.dur))
	m.okOps++
	d := ms(lat)
	m.byClass[o.class] = append(m.byClass[o.class], d)
	if o.baseline() {
		m.baselineMs = append(m.baselineMs, d)
		return
	}
	m.primaryMs = append(m.primaryMs, d)
	if lat <= m.w.limit {
		m.withinOK++
	}
	if st := res.stats; st != nil {
		m.readMs = append(m.readMs, ms(st.ReadTime))
		m.filterMs = append(m.filterMs, ms(st.FilterTime))
		m.transferMs = append(m.transferMs, ms(st.TransferTime))
	}
	if p := res.payload; p != nil {
		m.selectivity = append(m.selectivity, p.Selectivity())
	}
}

// addWire attributes link bytes to ops of one kind.
func (m *measurement) addWire(baseline bool, bytes int64, ops int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if baseline {
		m.baselineWire, m.baselineWireOps = m.baselineWire+bytes, m.baselineWireOps+ops
	} else {
		m.primaryWire, m.primaryWireOps = m.primaryWire+bytes, m.primaryWireOps+ops
	}
}

// endSweep closes the sweep under way.
func (m *measurement) endSweep() {
	m.opMs, m.curMs = append(m.opMs, m.curMs), nil
}

// quiet is the quantile a timing metric reads from repeated measurements
// of the same work: a slot of the sweep across the timed sweeps, a chunk of
// a crowd phase across the chunks. The host this runs on (a few cores of a
// shared machine) only ever adds time, in bursts that last from one op to
// tens of seconds; between the same binary's runs that moved a median by
// 10-40 %. The lowest tenth is not one lucky sample (of nine it weighs the
// two fastest), yet most of a run may be disturbed before it moves.
const quiet = 0.1

// slotTimes condenses the timed sweeps to one time per slot of the sweep:
// the quiet quantile of the slot's times over the sweeps. Every slot is the
// same operation on the same data in every sweep, so its times differ only
// by what the host and the collector added.
func (m *measurement) slotTimes() []float64 {
	if len(m.opMs) == 0 {
		return nil
	}
	out := make([]float64, len(m.opMs[0]))
	var xs []float64
	for i := range out {
		xs = xs[:0]
		for _, sweep := range m.opMs {
			if i < len(sweep) && sweep[i] > 0 {
				xs = append(xs, sweep[i])
			}
		}
		out[i] = stats.Percentile(xs, quiet)
	}
	return out
}

// chunks cuts xs into consecutive chunks of n; a shorter tail is dropped,
// unless it is all there is.
func chunks(xs []float64, n int) [][]float64 {
	if len(xs) <= n {
		return [][]float64{xs}
	}
	var out [][]float64
	for ; len(xs) >= n; xs = xs[n:] {
		out = append(out, xs[:n])
	}
	return out
}

// each applies f to every chunk.
func each(cs [][]float64, f func([]float64) float64) []float64 {
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = f(c)
	}
	return out
}

// chunkRates returns completions per second over consecutive chunks of n
// completions, from their sorted completion times in ms; a chunk runs from
// the completion before its first to its last.
func chunkRates(doneMs []float64, n int) []float64 {
	prev := 0.0
	return each(chunks(doneMs, n), func(c []float64) float64 {
		r := ratio(1000*float64(len(c)), last(c)-prev)
		prev = last(c)
		return r
	})
}

// summary holds the workload-specific end-to-end numbers; the rest derive
// from the measurement the same way on every workload.
type summary struct {
	opMs, baselineMs, speedup, satOpsPerS, withinLimit float64
	opN, baselineN                                     int // samples behind opMs and baselineMs
}

// closedSummary is the summary of a closed-loop workload whose sweep is
// ops. A timing metric is the mean over the sweep's slots of the slot's
// quiet time: the op mix is multi-modal (a RAW load takes twice an LZ4
// one), so a quantile over ops would sit between modes, while a slot is
// only ever compared with itself.
func (m *measurement) closedSummary(ops []op) summary {
	var prim, base, num, den, all []float64
	for i, t := range m.slotTimes() {
		if t <= 0 {
			continue // the slot never succeeded; ok_ratio says so
		}
		o := &ops[i]
		all = append(all, t)
		if o.baseline() {
			base = append(base, t)
		} else {
			prim = append(prim, t)
		}
		// speedup_x is every baseline op over every primary op, but on cold
		// Table II's headline cell: baseline on RAW data over NDP on LZ4.
		over, under := o.baseline(), !o.baseline()
		if m.w.name == wlCold {
			over, under = o.class == clsBaseRaw, o.class == clsNDPLZ4
		}
		if over {
			num = append(num, t)
		}
		if under {
			den = append(den, t)
		}
	}
	return summary{
		opMs: stats.Mean(prim), opN: len(prim) * len(m.opMs),
		baselineMs: stats.Mean(base), baselineN: len(base) * len(m.opMs),
		speedup: ratio(stats.Mean(num), stats.Mean(den)),
		// What one client working through the sweep completes per second.
		satOpsPerS:  ratio(1000, stats.Mean(all)),
		withinLimit: ratio(float64(m.withinOK), float64(m.primaryAttempted)),
	}
}

// ratio is num/den, and 0 where there is nothing to divide by; every
// denominator here is a count or a duration.
func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// endToEnd assembles the ten end-to-end metrics.
func (m *measurement) endToEnd(s summary, setup time.Duration) map[string]metric {
	ops := float64(m.okOps)
	return map[string]metric{
		"setup_s":            {Value: setup.Seconds(), Unit: "s", N: 1},
		"op_ms":              {Value: s.opMs, Unit: "ms", N: s.opN},
		"baseline_op_ms":     {Value: s.baselineMs, Unit: "ms", N: s.baselineN},
		"speedup_x":          {Value: s.speedup, Unit: "x", N: s.opN},
		"sat_ops_per_s":      {Value: s.satOpsPerS, Unit: "1/s", N: m.okOps},
		"within_limit_ratio": {Value: ratio(float64(m.withinOK), float64(m.primaryAttempted)), Unit: "ratio", N: m.primaryAttempted},
		"wire_bytes_per_op":  {Value: ratio(float64(m.primaryWire), float64(m.primaryWireOps)), Unit: "B", N: m.primaryWireOps},
		"alloc_mb_per_op":    {Value: ratio(float64(m.mem1.TotalAlloc-m.mem0.TotalAlloc)/1e6, ops), Unit: "MB", N: m.okOps},
		"allocs_per_op":      {Value: ratio(float64(m.mem1.Mallocs-m.mem0.Mallocs), ops), Unit: "count", N: m.okOps},
		"ok_ratio":           {Value: ratio(float64(m.attempted-m.failed), float64(m.attempted)), Unit: "ratio", N: m.attempted},
	}
}

// windowLayers are the per-layer metrics that come from the untraced
// window: counter deltas, the server's own fetch statistics, the
// generator's per-op samples and the runtime's allocator figures.
func (m *measurement) windowLayers(lateMs []float64) map[string]metric {
	ops := float64(m.okOps)
	out := make(map[string]metric)
	put := func(name string, v float64, unit string, n int) { out[name] = metric{Value: v, Unit: unit, N: n} }

	put("objstore.requests_per_op", ratio(m.counter("objstore.requests.get")+m.counter("objstore.requests.head"), ops), "count", m.okOps)
	lookups := m.counter("arraycache.hits") + m.counter("arraycache.misses") + m.counter("arraycache.coalesced")
	put("arraycache.hit_ratio", ratio(m.counter("arraycache.hits"), lookups), "ratio", int(lookups))
	put("arraycache.evictions_per_op", ratio(m.counter("arraycache.evictions"), ops), "count", m.okOps)
	put("arraycache.coalesced_per_op", ratio(m.counter("arraycache.coalesced"), ops), "count", m.okOps)
	pc := m.counter("core.payloadcache.hits") + m.counter("core.payloadcache.misses")
	put("core.payloadcache.hit_ratio", ratio(m.counter("core.payloadcache.hits"), pc), "ratio", int(pc))
	put("core.payloadcache.evictions_per_op", ratio(m.counter("core.payloadcache.evictions"), ops), "count", m.okOps)
	reqs := m.counter("core.scan.requests")
	put("core.coalesce.scans_per_req", ratio(m.counter("core.scan.passes"), reqs), "count", int(reqs))
	put("core.coalesce.coalesced_ratio", ratio(m.counter("core.scan.coalesced"), reqs), "ratio", int(reqs))
	calls := m.counter("rpc.server.requests")
	put("rpc.shed_ratio", ratio(m.counter("rpc.server.shed"), calls), "ratio", int(calls))
	put("rpc.expired_per_op", ratio(m.counter("rpc.server.deadline.expired"), ops), "count", m.okOps)

	put("contour.selectivity", stats.Mean(m.selectivity), "ratio", len(m.selectivity))
	put("core.fetch.read_ms", median(m.readMs), "ms", len(m.readMs))
	put("core.fetch.filter_ms", median(m.filterMs), "ms", len(m.filterMs))
	put("core.fetch.transfer_ms", median(m.transferMs), "ms", len(m.transferMs))

	capacity := linkBits / 8 * m.wall.Seconds()
	put("netsim.link_util", ratio(float64(m.link1-m.link0), capacity), "ratio", 1)
	put("netsim.baseline_bytes_per_op", ratio(float64(m.baselineWire), float64(m.baselineWireOps)), "B", m.baselineWireOps)

	put("client.op_ms_p50", median(m.primaryMs), "ms", len(m.primaryMs))
	t, pct := tail(m.primaryMs)
	put("client.op_ms_tail", t, "ms", len(m.primaryMs))
	put("client.op_tail_pct", 100*pct, "%", len(m.primaryMs))
	put("client.op_samples", float64(len(m.primaryMs)), "count", len(m.primaryMs))
	late, _ := tail(lateMs)
	put("client.late_ms_tail", late, "ms", len(lateMs))

	put("runtime.gc_cycles_per_op", ratio(float64(m.mem1.NumGC-m.mem0.NumGC), ops), "count", m.okOps)
	put("runtime.gc_pause_ms_per_op", ratio(float64(m.mem1.PauseTotalNs-m.mem0.PauseTotalNs)/1e6, ops), "ms", m.okOps)
	put("runtime.heap_peak_mb", float64(m.mem1.HeapSys)/1e6, "MB", 1)
	return out
}

// classDiagnostics are the per-class and fixed-percentile latencies of
// the generator's view. They are printed and stored with -o but are not
// contract metrics: which classes exist depends on the workload, and a
// percentile is only given with at least ten samples beyond it.
func (m *measurement) classDiagnostics() map[string]metric {
	out := make(map[string]metric)
	for class, xs := range m.byClass {
		out["client."+class+"_ms_p50"] = metric{Value: median(xs), Unit: "ms", N: len(xs)}
	}
	for _, p := range []struct {
		name string
		pct  float64
	}{{"p90", 0.90}, {"p99", 0.99}} {
		if float64(len(m.primaryMs))*(1-p.pct) >= 10 {
			out["client.op_ms_"+p.name] = metric{Value: stats.Percentile(m.primaryMs, p.pct), Unit: "ms", N: len(m.primaryMs)}
		}
	}
	return out
}
