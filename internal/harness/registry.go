package harness

import (
	"fmt"
	"slices"
	"strings"

	"vizndp/internal/netsim"
	"vizndp/internal/stats"
)

// Experiment is one entry of the registry: what `benchviz -exp <Name>`,
// `BenchmarkExperiment/<Name>` and the package tests run.
type Experiment struct {
	Name string
	// Desc is one line: what the tables show, or what the experiment
	// hard-errors on (for those, a nil error is the assertion).
	Desc string
	Run  func(*Env) ([]*stats.Table, error)
}

// Experiments lists every experiment in the order `-exp all` runs them.
var Experiments = []Experiment{
	{"fig1", "Fig. 1: data-reduction ratio ranges of GZip, LZ4 and contour selection", one((*Env).Fig1)},
	{"fig5", "Fig. 5: stored sizes plus remote and local load times under RAW/GZip/LZ4 (v02, v03)", perArray((*Env).Fig5, asteroidArrays...)},
	{"fig6", "Fig. 6: contour selection rates in permillage per timestep and contour value (v02, v03)", perArray((*Env).Fig6, asteroidArrays...)},
	{"fig13", "Fig. 13: baseline vs NDP load times per timestep, for each array and codec", func(e *Env) ([]*stats.Table, error) {
		var run []func() (*stats.Table, error)
		for _, array := range asteroidArrays {
			for _, codec := range Codecs {
				run = append(run, func() (*stats.Table, error) { return e.Fig13(array, codec) })
			}
		}
		return inOrder(run...)
	}},
	{"tab2", "Table II: load-time speedups of every NDP/compression combination over the RAW baseline", one((*Env).Table2)},
	{"fig14", "Fig. 14: Nyx baryon-density load times, baseline vs NDP, per codec", one((*Env).Fig14)},
	{"ablations", "ablations: NDP speedup vs link speed, payload encoding sizes, multi-isovalue single pass", func(e *Env) ([]*stats.Table, error) {
		return inOrder(
			func() (*stats.Table, error) {
				return e.AblationLinkSpeed("v02", 0.1, []float64{
					0.1 * netsim.Gbps, 0.5 * netsim.Gbps, 1 * netsim.Gbps, 2 * netsim.Gbps, 10 * netsim.Gbps})
			},
			func() (*stats.Table, error) { return e.AblationEncoding("v02") },
			func() (*stats.Table, error) { return e.AblationMultiIso("v03") })
	}},
	{"e2e", "extension: full pipeline time (load + contour + render), baseline vs NDP; errors unless the meshes agree", func(e *Env) ([]*stats.Table, error) {
		return inOrder(func() (*stats.Table, error) { return e.EndToEnd("v02", 0.1) })
	}},
	{"slice", "extension: split slice filter against full-array loads; errors unless the plane is bit-identical", perArray((*Env).ExtensionSlice, "v02")},
	{"lossy", "extension: error-bounded lossy storage of the Nyx baryon density at three bounds", func(e *Env) ([]*stats.Table, error) {
		return inOrder(func() (*stats.Table, error) { return e.AblationLossy([]float64{1.0, 0.1, 0.01}) })
	}},
	{"shard", "errors unless every sharded gather is byte-identical to the single-node payload clean, with one shard degraded and with one shard killed mid-sweep, and the failover/degraded counters fired", perArray((*Env).ShardExperiment, "v03")},
	{"chaos", "errors unless a three-replica burst under composed dial refusals, conn kills, mid-frame truncations, wire flips, storage corruption, shedding, a replica kill and a graceful drain returns zero wrong bytes and zero errors with every class fired (payload-cache hits among them) and nothing the drain accepted lost, the caching replicas scan fewer times than they answered while the uncached reference scans once per request, every round's shed/degraded/breached/coalesced/cache-hit counters are correctly flagged wide events, the burn gauges match the monitor and first principles, and a directed breach's bundle holds its span tree", perArray((*Env).ChaosExperiment, "v03")},
	{"repeat", "repeat fetch: cold vs warm load times through the storage-side array cache, per codec; errors unless cold, warm and uncached payloads agree", func(e *Env) ([]*stats.Table, error) {
		var run []func() (*stats.Table, error)
		for _, codec := range Codecs {
			run = append(run, func() (*stats.Table, error) { return e.RepeatFetch("asteroid", codec, e.steps[0], "v03") })
		}
		return inOrder(run...)
	}},
}

// SelectExperiments resolves a comma-separated -exp value ("all", or
// registry names) to registry entries in registry order. An unknown name
// is an error that lists the valid ones.
func SelectExperiments(spec string) ([]Experiment, error) {
	want := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		known := slices.ContainsFunc(Experiments, func(x Experiment) bool { return x.Name == name })
		if name != "all" && !known {
			return nil, fmt.Errorf("harness: unknown experiment %q (want all or any of %s)", name, ExperimentNames())
		}
		want[name] = true
	}
	var out []Experiment
	for _, x := range Experiments {
		if want["all"] || want[x.Name] {
			out = append(out, x)
		}
	}
	return out, nil
}

// ExperimentNames is the registry's names, comma-separated in order.
func ExperimentNames() string {
	names := make([]string, len(Experiments))
	for i, x := range Experiments {
		names[i] = x.Name
	}
	return strings.Join(names, ",")
}

// inOrder runs the table builders in order, stopping at the first error.
func inOrder(run ...func() (*stats.Table, error)) ([]*stats.Table, error) {
	var out []*stats.Table
	for _, f := range run {
		t, err := f()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// one adapts an experiment that takes no argument.
func one(f func(*Env) (*stats.Table, error)) func(*Env) ([]*stats.Table, error) {
	return func(e *Env) ([]*stats.Table, error) {
		return inOrder(func() (*stats.Table, error) { return f(e) })
	}
}

// perArray adapts an experiment that takes the array to contour, running
// it once per named array.
func perArray(f func(*Env, string) (*stats.Table, error), arrays ...string) func(*Env) ([]*stats.Table, error) {
	return func(e *Env) ([]*stats.Table, error) {
		var run []func() (*stats.Table, error)
		for _, array := range arrays {
			run = append(run, func() (*stats.Table, error) { return f(e, array) })
		}
		return inOrder(run...)
	}
}
