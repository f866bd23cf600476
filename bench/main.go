// Command bench is the repository's benchmark: four workloads over the
// whole near-data pipeline, ten end-to-end metrics, and a traced run that
// breaks a fetch down by layer. It measures every layer from outside, by
// timing calls into its public functions and reading its public counters.
//
//	go run ./bench -workload cold|frame|wide|crowd -seed N [-seconds S] [-trace 1] [-o out.json]
//	go run ./bench compare A/ B/
//
// See README.md in this directory for what each workload and metric is.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"vizndp/internal/stats"
)

// processStart is as close to the process's start as the program sees;
// setup_s counts from here.
var processStart = time.Now()

// config is one run's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	out      string    // where the full report goes; empty for nowhere
	start    time.Time // when set-up began
	// storeDir is an empty directory for the object store.
	storeDir string
	// plan overrides the plan derived from seconds; tests use it to run
	// every workload at a tiny scale.
	plan *plan
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	cfg := config{start: processStart}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "one of cold, frame, wide, crowd")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seeds the data sets and the op schedule")
	fs.IntVar(&cfg.seconds, "seconds", 20, "sizes the run: a fixed amount of work that took about this long at the defining commit")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
	fs.StringVar(&cfg.out, "o", "", "write the full report as JSON here (compare reads these)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *trace != 0
	if workloads[cfg.workload] == nil || cfg.seconds < 1 || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "usage: bench -workload %s -seed N [-seconds S] [-trace 1] [-o out.json]\n       bench compare A/ B/\n",
			strings.Join(workloadNames, "|"))
		return 2
	}
	dir, err := makeStoreDir(".")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	// An interrupted run must not leave half a gigabyte in /dev/shm.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(dir)
		os.Exit(1)
	}()
	cfg.storeDir = dir
	rep, err := runBench(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

// runBench sets the testbed up, runs the workload, and assembles the
// report. Any failure of set-up or of the verification sweep is an error;
// failures of timed ops are counted in the report.
func runBench(cfg config) (*report, error) {
	w := workloads[cfg.workload]
	p := planFor(w, cfg.seconds, cfg.trace)
	if cfg.plan != nil {
		p = *cfg.plan
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	tb, err := newTestbed(w, p, cfg.seed, cfg.storeDir)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer tb.close()
	var tr *tracer
	var rp *replayer
	if cfg.trace {
		tr, rp = newTracer(), newReplayer(tb)
		defer rp.close()
	}

	rep := &report{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Env: hostEnv(tb.storeDir),
		Plan: planInfo{GridEdge: p.n, Setups: p.setups, Sweeps: p.sweeps, TracedSweeps: p.tracedSweeps,
			Conns: len(tb.clients)},
	}
	var (
		m, traced *measurement
		s         summary
		lateMs    []float64
		setupWall time.Duration
	)
	if w.name == wlCrowd {
		rep.Plan.Arrivals, rep.Plan.SatOps, rep.Plan.BaselineOps, rep.Plan.TracedArrivals =
			p.arrivals, p.satOps, p.baseOps, p.tracedArrivals
		cr, err := newCrowdRun(tb, p)
		if err != nil {
			return nil, err
		}
		setupWall = time.Since(cfg.start)
		if m, s, lateMs, traced, err = cr.run(cfg.seed, tr, rp); err != nil {
			return nil, err
		}
	} else {
		cr, err := newClosedRun(tb, p, cfg.seed)
		if err != nil {
			return nil, err
		}
		setupWall = time.Since(cfg.start)
		rep.Plan.OpsPerSweep, rep.Notes = len(cr.ops), cr.notes
		for i := range cr.ops {
			rep.Ops = append(rep.Ops, cr.ops[i].String())
		}
		if m, traced, err = cr.run(tr, rp); err != nil {
			return nil, err
		}
		s = m.closedSummary(cr.ops)
	}
	// The data set was built several times for a steadier figure; count
	// the median build once.
	setup := setupWall
	for _, b := range tb.builds {
		setup -= b.total()
	}
	setup += tb.build.total()

	rep.Attempted, rep.Failed, rep.Truncated = m.attempted, m.failed, m.truncated
	if traced != nil {
		rep.Attempted, rep.Failed = rep.Attempted+traced.attempted, rep.Failed+traced.failed
	}
	rep.Correct = rep.Failed == 0
	rep.Extra, rep.OpMs = m.classDiagnostics(), m.opMs
	rep.LatMs, rep.DoneMs, rep.BaseDoneMs = m.latMs, m.doneMs, m.baseDoneMs
	for name, v := range m.hostDiagnostics() {
		rep.Extra[name] = v
	}
	endToEnd := m.endToEnd(s, setup)
	if !cfg.trace {
		rep.Metrics = endToEnd
		err = checkNames(rep.Metrics, endToEndNames)
		// The window's counters cost nothing to read; as diagnostics they
		// say, for one, whether a slow crowd run was a run of cache misses.
		for name, v := range m.windowLayers(lateMs) {
			rep.Extra[name] = v
		}
	} else {
		// A traced run's window is short; its end-to-end figures are kept
		// as diagnostics only. The contract's come from untraced runs.
		for name, v := range endToEnd {
			rep.Extra["untraced_window."+name] = v
		}
		rep.Metrics = tracedMetrics(tb, m, traced, lateMs, tr, rp)
		err = checkNames(rep.Metrics, perLayerNames)
		if err == nil {
			err = tr.write(tracePath(cfg))
		}
	}
	if err != nil {
		return nil, err
	}
	if cfg.out != "" {
		if err := writeJSON(cfg.out, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// tracedMetrics assembles the per-layer metrics of a traced run: counters
// and samples of its untraced window, the replay's layer samples, the
// set-up split, and the tracing overhead.
func tracedMetrics(tb *testbed, m, traced *measurement, lateMs []float64, tr *tracer, rp *replayer) map[string]metric {
	out := m.windowLayers(lateMs)
	for name, v := range rp.layers(tr.spans) {
		out[name] = v
	}
	out["sim.generate_s"] = metric{Value: tb.build.generate.Seconds(), Unit: "s", N: len(tb.builds)}
	out["vtkio.write_s"] = metric{Value: tb.build.write.Seconds(), Unit: "s", N: len(tb.builds)}
	out["objstore.put_s"] = metric{Value: tb.build.put.Seconds(), Unit: "s", N: len(tb.builds)}
	out["telemetry.event_ns"] = metric{Value: telemetryEventNS(), Unit: "ns", N: 20000}
	// Traced over untraced primary-op time, the same statistic on both
	// sides: the mean over a closed loop's ops, the median of crowd's phase A.
	// The traced side is one sweep, too few for op_ms's quiet quantile.
	center := stats.Mean
	if tb.w.name == wlCrowd {
		center = median
	}
	out["trace.overhead_ratio"] = metric{Value: ratio(center(traced.primaryMs), center(m.primaryMs)) - 1, Unit: "ratio", N: len(traced.primaryMs)}
	return out
}

// tracePath is where a traced run's spans go: beside -o's file, or under
// .bench_out/ in the working directory.
func tracePath(cfg config) string {
	if cfg.out != "" {
		return strings.TrimSuffix(cfg.out, ".json") + ".trace.json"
	}
	const dir = ".bench_out"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "trace.json"
	}
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d.trace.json", cfg.workload, cfg.seed))
}
