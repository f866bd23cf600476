package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(xs, n=4) gives them (the exclusive
// method), which is what the benchmark's driver uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// Verdicts of one (workload, metric) pairing.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares the runs of a change (b) with the runs of its parent (a)
// for one metric:
//
//	worse       the change's median is worse than the parent's by more
//	            than the bound
//	unresolved  the parent's own spread (q3-q1 over its median) is wider
//	            than the bound, so "no worse" cannot be told from noise,
//	            unless every run of the change beats every run of the parent
//	better      the change's median is better by more than that spread
//	same        otherwise
func judge(spec metricSpec, a, b []float64) string {
	q1, medA, q3 := quartiles(a)
	_, medB, _ := quartiles(b)
	sign := 1.0 // positive delta = worse
	if spec.Better == "higher" {
		sign = -1
	}
	scale := math.Abs(medA)
	if scale <= 0 {
		scale = 1
	}
	worsening := sign * (medB - medA) / scale
	spread := (q3 - q1) / scale
	if worsening > spec.Bound {
		return verdictWorse
	}
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}
	if allBetter {
		return verdictBetter
	}
	if spread > spec.Bound {
		return verdictUnresolved
	}
	if -worsening > spread && worsening < 0 {
		return verdictBetter
	}
	return verdictSame
}

// loadReports reads every untraced report in dir, by workload.
func loadReports(dir string) (map[string][]*report, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := make(map[string][]*report)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil || rep.Workload == "" || rep.Trace {
			continue // a span file, a traced run, or not a report at all
		}
		out[rep.Workload] = append(out[rep.Workload], &rep)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no untraced reports in %s", dir)
	}
	return out, nil
}

func values(reps []*report, name string) []float64 {
	var xs []float64
	for _, r := range reps {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// compareMain is `bench compare A/ B/`: A holds the parent's reports, B
// the change's. It prints one row per workload and end-to-end metric and
// returns 1 when any row is worse or any run of B failed more ops.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark's description, for bounds and directions")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: bench compare [-spec BENCHMARK.json] A/ B/")
		return 2
	}
	spec, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	a, err := loadReports(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	b, err := loadReports(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	return compareReports(spec, a, b, stdout)
}

func compareReports(spec *benchSpec, a, b map[string][]*report, w io.Writer) int {
	exit := 0
	fmt.Fprintf(w, "%-6s %-20s %3s %12s %25s %3s %12s %25s %8s %6s  %s\n",
		"wkld", "metric", "nA", "median A", "[q1, q3] A", "nB", "median B", "[q1, q3] B", "change", "bound", "verdict")
	for _, wl := range spec.Workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, ms := range spec.EndToEnd {
			xa, xb := values(ra, ms.Name), values(rb, ms.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(xa)
			b1, b2, b3 := quartiles(xb)
			verdict := judge(ms, xa, xb)
			if verdict == verdictWorse {
				exit = 1
			}
			change := 0.0
			if math.Abs(a2) > 0 {
				change = 100 * (b2 - a2) / math.Abs(a2)
			}
			fmt.Fprintf(w, "%-6s %-20s %3d %12.6g %25s %3d %12.6g %25s %+7.2f%% %6.3f  %s\n",
				wl.Name, ms.Name, len(xa), a2, fmt.Sprintf("[%.6g, %.6g]", a1, a3),
				len(xb), b2, fmt.Sprintf("[%.6g, %.6g]", b1, b3), change, ms.Bound, verdict)
		}
		// More failed operations is a regression whatever the medians say.
		failed := func(reps []*report) (n int) {
			for _, r := range reps {
				n += r.Failed
			}
			return n
		}
		if fa, fb := failed(ra), failed(rb); fb*len(ra) > fa*len(rb) {
			fmt.Fprintf(w, "%-6s failed ops per run rose from %d/%d to %d/%d: worse\n", wl.Name, fa, len(ra), fb, len(rb))
			exit = 1
		}
	}
	return exit
}
