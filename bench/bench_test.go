package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// smokePlan runs a workload at a tiny scale: a 24^3 grid, 64x64 frames,
// one timed sweep, 100 arrivals.
func smokePlan(trace bool) *plan {
	p := &plan{n: 24, pixels: 64, setups: 1, sweeps: 1, conns: 2, rate: 400,
		arrivals: 100, warmOps: crowdKeys, satOps: 60, baseOps: 20,
		wallLimit: time.Minute}
	if trace {
		p.tracedSweeps, p.tracedArrivals = 1, 30
	}
	return p
}

func specNames(specs []metricSpec) []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	sort.Strings(names)
	return names
}

func reportNames(r *report) []string {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Every workload, in both modes, emits exactly the metric names
// BENCHMARK.json lists, with no failed op.
func TestSmokeEmitsTheContractMetrics(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, w := range spec.Workloads {
		listed = append(listed, w.Name)
	}
	if !reflect.DeepEqual(listed, workloadNames) {
		t.Fatalf("BENCHMARK.json lists workloads %v, the program has %v", listed, workloadNames)
	}
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, trace), func(t *testing.T) {
				rep, err := runBench(config{workload: name, seed: 1, seconds: 1, trace: trace,
					out:   filepath.Join(t.TempDir(), "report.json"),
					start: time.Now(), storeDir: t.TempDir(), plan: smokePlan(trace)})
				if err != nil {
					t.Fatal(err)
				}
				want := specNames(spec.EndToEnd)
				if trace {
					want = specNames(spec.PerLayer)
				}
				if got := reportNames(rep); !reflect.DeepEqual(got, want) {
					t.Errorf("metric names differ from BENCHMARK.json:\n got %v\nwant %v", got, want)
				}
				if rep.Failed != 0 || !rep.Correct || rep.Attempted == 0 {
					t.Errorf("attempted %d, failed %d, correct %v", rep.Attempted, rep.Failed, rep.Correct)
				}
				if !trace && rep.Metrics["ok_ratio"].Value != 1 {
					t.Errorf("ok_ratio = %v, want 1", rep.Metrics["ok_ratio"].Value)
				}
				var out bytes.Buffer
				if err := rep.print(&out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				if last := lines[len(lines)-1]; !strings.HasPrefix(last, `{"correct":true,"attempted":`) {
					t.Errorf("last line is not the result object: %s", last)
				}
			})
		}
	}
}

// The op schedule and the crowd key sequence are pure functions of the
// seed.
func TestSchedulesAreAFunctionOfTheSeed(t *testing.T) {
	steps := []int{0, 24006, 48013}
	heads := map[string][]string{
		wlCold: {
			"ndp_raw asteroid/raw/ts48013.vnd/v02 iso=[0.7]",
			"ndp_raw asteroid/raw/ts00000.vnd/v02 iso=[0.7]",
			"ndp_lz4 asteroid/lz4/ts00000.vnd/v02 iso=[0.1]",
		},
		wlFrame: {
			"ndp_lz4 asteroid/lz4/ts24006.vnd/v03 iso=[0.7] frame",
			"ndp_lz4 asteroid/lz4/ts24006.vnd/v02 iso=[0.3] frame",
			"base_lz4 asteroid/lz4/ts48013.vnd/v03 iso=[0.1] frame",
		},
		wlWide: {
			"ndp_lz4 nyx/lz4/ts00000.vnd/baryon_density iso=[0.5 1 2 4 8]",
			"slice asteroid/lz4/ts48013.vnd/v02 z=64",
			"slice asteroid/lz4/ts48013.vnd/v02 y=64",
		},
	}
	sizes := map[string]int{wlCold: 72, wlFrame: 36, wlWide: 16}
	for name, want := range heads {
		ops := sweepOps(workloads[name], steps, 128, 1)
		if len(ops) != sizes[name] {
			t.Errorf("%s: sweep of %d ops, want %d", name, len(ops), sizes[name])
		}
		for i := range want {
			if got := ops[i].String(); got != want[i] {
				t.Errorf("%s seed 1 op %d = %q, want %q", name, i, got, want[i])
			}
		}
		again, other := sweepOps(workloads[name], steps, 128, 1), sweepOps(workloads[name], steps, 128, 2)
		if !reflect.DeepEqual(ops, again) {
			t.Errorf("%s: the same seed gave two schedules", name)
		}
		if reflect.DeepEqual(ops, other) {
			t.Errorf("%s: seeds 1 and 2 gave the same schedule", name)
		}
		// Whatever the order, the composition is fixed.
		count := func(ops []op) map[string]int {
			c := make(map[string]int)
			for i := range ops {
				c[ops[i].String()]++
			}
			return c
		}
		if !reflect.DeepEqual(count(ops), count(other)) {
			t.Errorf("%s: seeds 1 and 2 gave sweeps of different composition", name)
		}
	}

	seq := crowdSequence(crowdKeys, 130, 1)
	if want := []int{52, 41, 35, 0, 43, 47, 31, 18, 33, 39}; !reflect.DeepEqual(seq[:10], want) {
		t.Errorf("crowd seed 1 starts %v, want %v", seq[:10], want)
	}
	if reflect.DeepEqual(seq, crowdSequence(crowdKeys, 130, 2)) {
		t.Error("crowd: seeds 1 and 2 gave the same sequence")
	}
	for deck := 0; deck+crowdKeys <= len(seq); deck += crowdKeys {
		seen := make(map[int]bool)
		for _, k := range seq[deck : deck+crowdKeys] {
			seen[k] = true
		}
		if len(seen) != crowdKeys {
			t.Errorf("arrivals %d..%d visit %d distinct keys, want all %d", deck, deck+crowdKeys, len(seen), crowdKeys)
		}
	}
}

// A run's length is a count fixed by -seconds, not by the clock, and every
// crowd phase is a whole number of the chunks it is read by.
func TestPlanIsFixedBySeconds(t *testing.T) {
	if p := planFor(workloads[wlCold], 20, false); p.sweeps != 9 || p.setups != 3 {
		t.Errorf("cold at 20 s: %d sweeps, %d set-ups", p.sweeps, p.setups)
	}
	if p := planFor(workloads[wlCrowd], 20, false); p.warmOps != 378 || p.arrivals != 486 || p.satOps != 1080 || p.baseOps != 270 {
		t.Errorf("crowd at 20 s: %+v", p)
	}
	if p := planFor(workloads[wlWide], 20, true); p.sweeps != 6 || p.tracedSweeps != 1 || p.setups != 1 {
		t.Errorf("wide traced at 20 s: %+v", p)
	}
}

// A timing metric reads the quiet quantile of each slot over the sweeps,
// so sweeps the host disturbed do not move it, and a slot that failed in
// one sweep is read from the others.
func TestSlotTimesIgnoreDisturbedSweeps(t *testing.T) {
	m := newMeasurement(workloads[wlCold])
	for sweep := 0; sweep < 10; sweep++ {
		slow := 1.0
		if sweep >= 3 { // seven sweeps of ten run at half speed
			slow = 2
		}
		m.opMs = append(m.opMs, []float64{10 * slow, 40 * slow})
	}
	m.opMs[0][1] = 0 // a failed op
	if got := m.slotTimes(); len(got) != 2 || got[0] != 10 || got[1] != 40 {
		t.Errorf("slot times %v, want [10 40]", got)
	}
	ops := []op{{class: clsNDPLZ4, kind: kindContour}, {class: clsBaseRaw, kind: kindBaseline}}
	s := m.closedSummary(ops)
	if s.opMs != 10 || s.baselineMs != 40 || s.speedup != 4 || s.satOpsPerS != 40 {
		t.Errorf("summary %+v", s)
	}
}

func TestChunks(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7}
	if got := chunks(xs, 3); !reflect.DeepEqual(got, [][]float64{{1, 2, 3}, {4, 5, 6}}) {
		t.Errorf("chunks of 3: %v", got)
	}
	if got := chunks(xs[:2], 3); !reflect.DeepEqual(got, [][]float64{{1, 2}}) {
		t.Errorf("a short input is one chunk: %v", got)
	}
	// Four completions at 100, 200, 400 and 600 ms: 2 in the first 200 ms,
	// 2 in the next 400.
	if got := chunkRates([]float64{100, 200, 400, 600}, 2); !reflect.DeepEqual(got, []float64{10, 5}) {
		t.Errorf("chunk rates %v, want [10 5]", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", ID: 1, StartNS: 0, EndNS: 100},
		{Name: "a", ID: 2, Parent: 1, StartNS: 10, EndNS: 40},
		{Name: "b", ID: 3, Parent: 1, StartNS: 30, EndNS: 60},   // overlaps a: 10..60 covered once
		{Name: "c", ID: 4, Parent: 1, StartNS: 90, EndNS: 130},  // sticks out: only 90..100 counts
		{Name: "d", ID: 5, Parent: 1, StartNS: 150, EndNS: 170}, // wholly outside: counts for nothing
		{Name: "a1", ID: 6, Parent: 2, StartNS: 15, EndNS: 25},
	}
	want := map[int]int64{1: 100 - 50 - 10, 2: 30 - 10, 3: 30, 4: 40, 5: 20, 6: 10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of 1,2 = %v %v %v", q1, q2, q3)
	}
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	if v, pct := tail(xs); pct != 0.9 || v < 89 || v > 90 {
		t.Errorf("tail of 100 samples = %v at %v, want the p90", v, pct)
	}
	if _, pct := tail(xs[:12]); pct != 0.5 {
		t.Errorf("tail of 12 samples sits at %v, want the median", pct)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricSpec{Name: "op_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "speedup_x", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		name string
		spec metricSpec
		a, b []float64
		want string
	}{
		{"same", lower, steady, []float64{101, 100, 102, 99, 100}, verdictSame},
		{"worse", lower, steady, []float64{115, 116, 114, 115, 117}, verdictWorse},
		{"better", lower, steady, []float64{80, 81, 79, 80, 82}, verdictBetter},
		{"higher is better: a drop is worse", higher, steady, []float64{85, 86, 84, 85, 87}, verdictWorse},
		{"higher is better: a rise is better", higher, steady, []float64{120, 121, 119, 120, 122}, verdictBetter},
		{"noisy parent", lower, []float64{80, 100, 120, 90, 110}, []float64{101, 99, 100, 102, 98}, verdictUnresolved},
		{"noisy parent, clean win", lower, []float64{80, 100, 120, 90, 110}, []float64{50, 51, 52, 49, 50}, verdictBetter},
	} {
		if got := judge(tc.spec, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}

	spec := &benchSpec{Workloads: []workloadSpec{{Name: wlCold}}, EndToEnd: []metricSpec{lower}}
	reports := func(failed int, xs ...float64) map[string][]*report {
		var out []*report
		for _, x := range xs {
			out = append(out, &report{Workload: wlCold, Failed: failed, Metrics: map[string]metric{"op_ms": {Value: x}}})
		}
		return map[string][]*report{wlCold: out}
	}
	var out bytes.Buffer
	if code := compareReports(spec, reports(0, steady...), reports(0, 101, 100, 99), &out); code != 0 {
		t.Errorf("equal sets exit %d:\n%s", code, out.String())
	}
	if code := compareReports(spec, reports(0, steady...), reports(0, 120, 121, 122), &out); code != 1 {
		t.Errorf("a worse set exits %d", code)
	}
	if code := compareReports(spec, reports(0, steady...), reports(1, 101, 100, 99), &out); code != 1 {
		t.Errorf("a set with more failed ops exits %d", code)
	}
}

// The verification sweep's oracle notices a single flipped payload byte,
// and the cheap signature check of the timed sweeps does too.
func TestOracleRejectsAFlippedByte(t *testing.T) {
	w := workloads[wlCold]
	tb, err := newTestbed(w, *smokePlan(false), 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer tb.close()
	ops := sweepOps(w, tb.steps, 24, 1)
	for i := range ops {
		o := &ops[i]
		if o.kind != kindContour {
			continue
		}
		res, err := tb.exec(context.Background(), tb.clients[0], o, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.verify(o, res); err != nil {
			t.Fatalf("clean result rejected: %v", err)
		}
		good := res.sig
		res.payload.Data[len(res.payload.Data)/2] ^= 0x01
		if err := tb.verify(o, res); err == nil {
			t.Error("the oracle accepted a payload with one bit flipped")
		}
		if sign(res) == good {
			t.Error("the signature did not change with the payload")
		}
		return
	}
	t.Fatal("the cold sweep has no contour op")
}
