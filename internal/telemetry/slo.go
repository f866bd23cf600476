package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SLO burn-rate monitor. Each RPC method gets a latency objective
// ("99% of requests under 50ms") and an availability objective ("99.9%
// of requests succeed"); the monitor consumes every wide event the
// flight recorder records and maintains multi-window burn rates:
//
//	burn = (observed bad fraction) / (allowed bad fraction)
//
// so burn 1.0 means "exactly spending the error budget", 10 means
// "burning it 10x too fast". Two windows — fast (detects acute
// incidents) and slow (detects slow leaks) — follow the standard
// multiwindow alerting shape. Burn rates are exported as milli-unit
// gauges (telemetry.slo.<method>.latency.burn.fast = 2500 means burn
// 2.5) so they ride the existing int64 gauge type, and the full status
// is served as JSON at /slo.

// Objective is one method's service-level objective.
type Objective struct {
	// Method the objective applies to; "*" is the default for methods
	// without their own entry.
	Method string `json:"method"`
	// Latency is the per-request threshold; a request slower than this
	// counts against the latency budget.
	Latency time.Duration `json:"latencyNs"`
	// LatencyTarget is the fraction of executed requests that must meet
	// Latency (e.g. 0.99).
	LatencyTarget float64 `json:"latencyTarget"`
	// AvailTarget is the fraction of requests that must not fail, be
	// shed, or expire (e.g. 0.999).
	AvailTarget float64 `json:"availTarget"`
}

// sloBucket is one time-step's worth of per-method tallies.
type sloBucket struct {
	start   time.Time
	total   int64 // all requests (availability denominator)
	bad     int64 // failed/shed/expired (availability numerator)
	execed  int64 // requests that actually ran (latency denominator)
	latSlow int64 // executed requests over the latency threshold
}

type sloSeries struct {
	obj     Objective
	buckets []sloBucket // ring, one per step
	pos     int
	// lifetime tallies, for reconciliation in tests/experiments
	total, bad, execed, latSlow, breaches int64
}

// The monitor's windows: one bucket per sloStep, a fast window of
// sloFastN steps and a slow one of sloSlowN.
const (
	sloStep  = time.Minute
	sloFastN = 5
	sloSlowN = 60
)

// SLOMonitor tracks objectives over wide events. Attach to a
// FlightRecorder with SetSLO; every recorded event is Observed and
// stamped with its per-request breach verdict.
type SLOMonitor struct {
	mu     sync.Mutex
	kind   string
	series map[string]*sloSeries
	reg    *Registry        // receives the burn gauges
	now    func() time.Time // a test seam
}

// NewSLOMonitor returns a monitor with the given objectives over the
// events of one kind (KindServer or KindClient), so a process that both
// serves and calls does not count its requests twice.
func NewSLOMonitor(kind string, objectives ...Objective) *SLOMonitor {
	m := &SLOMonitor{kind: kind, series: make(map[string]*sloSeries), reg: Default(), now: time.Now}
	for _, o := range objectives {
		m.AddObjective(o)
	}
	return m
}

// AddObjective installs (or replaces) one method's objective.
func (m *SLOMonitor) AddObjective(o Objective) {
	if o.Method == "" {
		o.Method = "*"
	}
	if o.LatencyTarget <= 0 || o.LatencyTarget >= 1 {
		o.LatencyTarget = 0.99
	}
	if o.AvailTarget <= 0 || o.AvailTarget >= 1 {
		o.AvailTarget = 0.999
	}
	m.mu.Lock()
	m.series[o.Method] = &sloSeries{
		obj:     o,
		buckets: make([]sloBucket, sloFastN+sloSlowN),
	}
	m.mu.Unlock()
}

// objectiveFor returns the series for a method, falling back to "*".
// Caller holds m.mu.
func (m *SLOMonitor) objectiveFor(method string) *sloSeries {
	if s := m.series[method]; s != nil {
		return s
	}
	return m.series["*"]
}

// bucketNow returns the current bucket for s, rotating the ring
// forward as wall time crosses step boundaries. Caller holds m.mu.
func (s *sloSeries) bucketNow(now time.Time) *sloBucket {
	start := now.Truncate(sloStep)
	b := &s.buckets[s.pos]
	if b.start.IsZero() {
		b.start = start
		return b
	}
	for b.start.Before(start) {
		s.pos = (s.pos + 1) % len(s.buckets)
		b = &s.buckets[s.pos]
		*b = sloBucket{start: b.start}
		// step forward one bucket at a time so a long idle gap clears
		// the whole ring instead of reusing stale tallies
		b.start = s.buckets[(s.pos-1+len(s.buckets))%len(s.buckets)].start.Add(sloStep)
		if b.start.After(start) {
			b.start = start
		}
	}
	return b
}

// Observe consumes one finished wide event, updates burn accounting,
// refreshes the gauges, and returns whether this request individually
// breached its objective. Called by FlightRecorder.record.
func (m *SLOMonitor) Observe(ev *WideEvent) bool {
	if ev.Kind != m.kind {
		return false
	}
	m.mu.Lock()
	s := m.objectiveFor(ev.Method)
	if s == nil {
		m.mu.Unlock()
		return false
	}
	now := m.now()
	b := s.bucketNow(now)

	availBad := ev.Outcome != OutcomeOK
	executed := !ev.Shed
	latSlow := executed && s.obj.Latency > 0 &&
		ev.DurMS > float64(s.obj.Latency)/float64(time.Millisecond)

	b.total++
	s.total++
	if availBad {
		b.bad++
		s.bad++
	}
	if executed {
		b.execed++
		s.execed++
		if latSlow {
			b.latSlow++
			s.latSlow++
		}
	}
	breached := availBad || latSlow
	if breached {
		s.breaches++
	}
	method := s.obj.Method
	fa, sa, fl, sl := m.burns(s, now)
	// Published under the lock: an Observe that published after a later
	// one would leave the gauges at its older burn.
	m.publish(method, fa, sa, fl, sl)
	m.mu.Unlock()

	if breached {
		m.reg.Counter("telemetry.slo." + method + ".breaches").Inc()
	}
	return breached
}

// burns computes (availFast, availSlow, latFast, latSlow) burn rates
// over the fast and slow windows ending now. Caller holds m.mu.
func (m *SLOMonitor) burns(s *sloSeries, now time.Time) (fa, sa, fl, sl float64) {
	fastCut := now.Add(-sloStep * sloFastN)
	slowCut := now.Add(-sloStep * sloSlowN)
	var ft, fb, fe, fs2 int64 // fast window tallies
	var st, sb, se, ss int64  // slow window tallies
	for i := range s.buckets {
		b := &s.buckets[i]
		if b.start.IsZero() || b.start.Before(slowCut) {
			continue
		}
		st += b.total
		sb += b.bad
		se += b.execed
		ss += b.latSlow
		if !b.start.Before(fastCut) {
			ft += b.total
			fb += b.bad
			fe += b.execed
			fs2 += b.latSlow
		}
	}
	fa = burnRate(fb, ft, s.obj.AvailTarget)
	sa = burnRate(sb, st, s.obj.AvailTarget)
	fl = burnRate(fs2, fe, s.obj.LatencyTarget)
	sl = burnRate(ss, se, s.obj.LatencyTarget)
	return
}

// burnRate is (bad/total) / (1-target); 0 when nothing was observed.
func burnRate(bad, total int64, target float64) float64 {
	if total == 0 {
		return 0
	}
	budget := 1 - target
	if budget <= 0 {
		return math.Inf(1)
	}
	return (float64(bad) / float64(total)) / budget
}

// publish exports the four burn rates as milli-unit gauges.
func (m *SLOMonitor) publish(method string, fa, sa, fl, sl float64) {
	set := func(name string, v float64) {
		if math.IsInf(v, 1) {
			v = math.MaxInt32
		}
		m.reg.Gauge("telemetry.slo." + method + "." + name).Set(int64(math.Round(v * 1000)))
	}
	set("avail.burn.fast", fa)
	set("avail.burn.slow", sa)
	set("latency.burn.fast", fl)
	set("latency.burn.slow", sl)
}

// SLOStatus is one method's current objective state, as served by /slo.
type SLOStatus struct {
	Method        string  `json:"method"`
	Latency       string  `json:"latency"`
	LatencyTarget float64 `json:"latencyTarget"`
	AvailTarget   float64 `json:"availTarget"`
	// Lifetime tallies since the monitor was created.
	Total    int64 `json:"total"`
	Bad      int64 `json:"bad"`
	Executed int64 `json:"executed"`
	LatSlow  int64 `json:"latSlow"`
	Breaches int64 `json:"breaches"`
	// Current burn rates (1.0 = spending budget exactly on schedule).
	AvailBurnFast   float64 `json:"availBurnFast"`
	AvailBurnSlow   float64 `json:"availBurnSlow"`
	LatencyBurnFast float64 `json:"latencyBurnFast"`
	LatencyBurnSlow float64 `json:"latencyBurnSlow"`
}

// Status returns every objective's current state, sorted by method.
func (m *SLOMonitor) Status() []SLOStatus {
	m.mu.Lock()
	now := m.now()
	out := make([]SLOStatus, 0, len(m.series))
	for _, s := range m.series {
		fa, sa, fl, sl := m.burns(s, now)
		out = append(out, SLOStatus{
			Method:          s.obj.Method,
			Latency:         s.obj.Latency.String(),
			LatencyTarget:   s.obj.LatencyTarget,
			AvailTarget:     s.obj.AvailTarget,
			Total:           s.total,
			Bad:             s.bad,
			Executed:        s.execed,
			LatSlow:         s.latSlow,
			Breaches:        s.breaches,
			AvailBurnFast:   fa,
			AvailBurnSlow:   sa,
			LatencyBurnFast: fl,
			LatencyBurnSlow: sl,
		})
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Method < out[j].Method })
	return out
}

// StatusJSON renders Status as indented JSON.
func (m *SLOMonitor) StatusJSON() []byte {
	b, err := json.MarshalIndent(m.Status(), "", "  ")
	if err != nil {
		return []byte("[]")
	}
	return b
}

// Summary renders a one-line-per-objective text table for CLI output.
func (m *SLOMonitor) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-24s %8s %8s %10s %10s %10s %10s\n",
		"method", "total", "breach", "availFast", "availSlow", "latFast", "latSlow")
	for _, s := range m.Status() {
		fmt.Fprintf(&sb, "%-24s %8d %8d %10.2f %10.2f %10.2f %10.2f\n",
			s.Method, s.Total, s.Breaches,
			s.AvailBurnFast, s.AvailBurnSlow, s.LatencyBurnFast, s.LatencyBurnSlow)
	}
	return sb.String()
}

// ParseSLOSpec parses a command-line objective list of the form
//
//	method=latency@latPct/availPct[,...]
//
// e.g. "ndp.fetch=50ms@99/99.9,*=250ms@99/99.9". Percent values are
// given as percentages (99.9 means target 0.999). The availability
// part is optional: "ndp.fetch=50ms@99" sets only latency targets and
// leaves availability at the 99.9% default.
func ParseSLOSpec(spec string) ([]Objective, error) {
	var out []Objective
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		method, rest, ok := strings.Cut(part, "=")
		if !ok || method == "" {
			return nil, fmt.Errorf("slo spec %q: want method=latency@pct[/pct]", part)
		}
		latStr, pcts, ok := strings.Cut(rest, "@")
		if !ok {
			return nil, fmt.Errorf("slo spec %q: missing @targets", part)
		}
		lat, err := time.ParseDuration(latStr)
		if err != nil {
			return nil, fmt.Errorf("slo spec %q: bad latency: %w", part, err)
		}
		o := Objective{Method: method, Latency: lat, LatencyTarget: 0.99, AvailTarget: 0.999}
		latPct, availPct, hasAvail := strings.Cut(pcts, "/")
		if latPct != "" {
			p, err := strconv.ParseFloat(latPct, 64)
			if err != nil || p <= 0 || p >= 100 {
				return nil, fmt.Errorf("slo spec %q: bad latency pct %q", part, latPct)
			}
			o.LatencyTarget = p / 100
		}
		if hasAvail && availPct != "" {
			p, err := strconv.ParseFloat(availPct, 64)
			if err != nil || p <= 0 || p >= 100 {
				return nil, fmt.Errorf("slo spec %q: bad avail pct %q", part, availPct)
			}
			o.AvailTarget = p / 100
		}
		out = append(out, o)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("slo spec %q: no objectives", spec)
	}
	return out, nil
}
