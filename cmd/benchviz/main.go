// Command benchviz regenerates every table and figure of the paper's
// evaluation by standing up the emulated two-node testbed (object store
// on a storage node, shaped 1 GbE link, NDP pre-filter service) and
// sweeping the experiments. Results print as aligned text tables; see
// EXPERIMENTS.md for the recorded paper-vs-measured comparison.
//
// Examples:
//
//	benchviz                      # full sweep at the default scale
//	benchviz -exp fig13,tab2      # only the named experiments
//	benchviz -n 64 -steps 5 -quick
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"vizndp/internal/compress"
	"vizndp/internal/harness"
	"vizndp/internal/netsim"
	"vizndp/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchviz: ")
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run is the whole command: results go to stdout (or -o), progress and
// flag errors to stderr.
func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("benchviz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp     = fs.String("exp", "all", "comma-separated experiments: "+harness.ExperimentNames()+" or all")
		n       = fs.Int("n", 0, "asteroid/nyx grid edge length (0 = config default)")
		steps   = fs.Int("steps", 0, "asteroid timesteps (0 = config default)")
		gbps    = fs.Float64("gbps", 0, "inter-node link capacity in Gb/s (0 = config default)")
		repeats = fs.Int("repeats", 0, "measurement repetitions (0 = config default)")
		cacheB  = fs.Int64("cache-bytes", 0, "array cache budget in bytes of the repeat experiment's server and the chaos replicas (0 = config default)")
		quick   = fs.Bool("quick", false, "use the small quick configuration")
		csv     = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		jsonOut = fs.Bool("json", false, "emit one machine-readable JSON document instead of text tables")
		outFile = fs.String("o", "", "write results to this file instead of stdout")
		dataDir = fs.String("data", "", "scratch directory for the object store (temp dir if empty)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Resolve -exp before anything is built: a typo must fail in
	// milliseconds, not after the testbed is up having run nothing.
	selected, err := harness.SelectExperiments(*exp)
	if err != nil {
		return err
	}

	// Result destination. In -json mode every human-oriented line
	// (progress, summary) moves to stderr so the document on the result
	// stream stays parseable.
	out, progress := stdout, stdout
	if *outFile != "" {
		f, ferr := os.Create(*outFile)
		if ferr != nil {
			return ferr
		}
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		out = f
	}
	if *jsonOut || *outFile != "" {
		progress = stderr
	}

	dir := *dataDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "benchviz-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}

	cfg := harness.DefaultConfig(dir)
	if *quick {
		cfg = harness.QuickConfig(dir)
	}
	if *n > 0 {
		cfg.AsteroidN = *n
		cfg.NyxN = *n
	}
	if *steps > 0 {
		cfg.NumTimesteps = *steps
	}
	if *gbps > 0 {
		cfg.LinkBits = *gbps * netsim.Gbps
	}
	if *repeats > 0 {
		cfg.Repeats = *repeats
	}
	if *cacheB > 0 {
		cfg.CacheBytes = *cacheB
	}

	fmt.Fprintf(progress, "building testbed: %d^3 grids, %d timesteps, %g Gb/s link, %d repeats\n",
		cfg.AsteroidN, cfg.NumTimesteps, cfg.LinkBits/netsim.Gbps, cfg.Repeats)
	start := time.Now()
	env, err := harness.NewEnv(cfg)
	if err != nil {
		return err
	}
	defer env.Close()
	fmt.Fprintf(progress, "testbed ready in %s\n\n", time.Since(start).Round(time.Millisecond))

	var collected []*stats.Table
	headline := false
	for _, x := range selected {
		tables, err := x.Run(env)
		if err != nil {
			return fmt.Errorf("%s: %w", x.Name, err)
		}
		headline = headline || x.Name == "tab2"
		for _, t := range tables {
			switch {
			case *jsonOut:
				collected = append(collected, t)
				fmt.Fprintf(progress, "done: %s\n", t.Title)
			case *csv:
				fmt.Fprintf(out, "# %s\n%s\n", t.Title, t.CSV())
			default:
				fmt.Fprintln(out, t.String())
			}
		}
	}

	if *jsonOut {
		doc := struct {
			Config      harness.Config `json:"config"`
			Experiments []*stats.Table `json:"experiments"`
		}{Config: cfg, Experiments: collected}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			return err
		}
	}

	// A final sanity line mirroring the headline claim.
	if headline {
		return summarize(env, progress)
	}
	return nil
}

// summarize prints the headline speedups like the paper's abstract: NDP
// alone and NDP combined with compression, on the last contour value.
func summarize(env *harness.Env, w io.Writer) error {
	step := env.Steps()[len(env.Steps())-1]
	iso := env.Cfg.ContourValues[len(env.Cfg.ContourValues)-1]
	base, err := env.BaselineLoad("asteroid", compress.None, step, "v03")
	if err != nil {
		return err
	}
	ndp, err := env.NDPLoad("asteroid", compress.None, step, "v03", []float64{iso})
	if err != nil {
		return err
	}
	combo, err := env.NDPLoad("asteroid", compress.LZ4, step, "v03", []float64{iso})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "headline (v03, iso %.1f, step %d): NDP alone %.2fx, LZ4+NDP %.2fx\n",
		iso, step,
		stats.Speedup(base.LoadTime, ndp.LoadTime),
		stats.Speedup(base.LoadTime, combo.LoadTime))
	return nil
}
