package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// metric is one reported number; N is the sample count behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// endToEndNames are the ten end-to-end metrics, reported by every
// workload in an untraced run. BENCHMARK.json carries their units,
// directions and bounds; a test keeps the two lists equal.
var endToEndNames = []string{
	"setup_s", "op_ms", "baseline_op_ms", "speedup_x", "sat_ops_per_s",
	"within_limit_ratio", "wire_bytes_per_op", "alloc_mb_per_op", "allocs_per_op", "ok_ratio",
}

// perLayerNames are the per-layer metrics, reported by every workload in
// a traced run. The prefix is the module the metric belongs to.
var perLayerNames = []string{
	"sim.generate_s", "vtkio.write_s", "objstore.put_s",
	"objstore.get_ms", "objstore.get_mb_per_s", "objstore.alloc_b_per_b", "objstore.requests_per_op",
	"s3fs.read_ms", "s3fs.read_mb_per_s", "s3fs.gets_per_read",
	"vtkio.read_array_ms", "vtkio.read_array_mb_per_s", "vtkio.alloc_b_per_b", "vtkio.verify_ms",
	"lz4.decode_ms", "lz4.decode_mb_per_s",
	"arraycache.hit_ratio", "arraycache.evictions_per_op", "arraycache.coalesced_per_op",
	"contour.select_ms", "contour.select_mb_per_s", "contour.selectivity",
	"core.encode_ms", "core.encode_mb_per_s", "core.encode_allocs",
	"core.fetch.read_ms", "core.fetch.filter_ms", "core.fetch.transfer_ms",
	"core.payloadcache.hit_ratio", "core.payloadcache.evictions_per_op",
	"core.coalesce.scans_per_req", "core.coalesce.coalesced_ratio",
	"msgpack.marshal_ms", "msgpack.unmarshal_ms",
	"rpc.echo_ms", "rpc.echo_mb_per_s", "rpc.alloc_b_per_b", "rpc.shed_ratio", "rpc.expired_per_op",
	"netsim.transfer_ms", "netsim.link_util", "netsim.baseline_bytes_per_op",
	"core.decode_ms", "core.reconstruct_ms", "core.reconstruct_mb_per_s",
	"contour.mtet_ms", "contour.mtet_mtris_per_s", "contour.mtet_alloc_mb",
	"render.mesh_ms", "render.mtris_per_s",
	"telemetry.event_ns",
	"client.op_ms_p50", "client.op_ms_tail", "client.op_tail_pct", "client.op_samples", "client.late_ms_tail",
	"runtime.gc_cycles_per_op", "runtime.gc_pause_ms_per_op", "runtime.heap_peak_mb",
	"trace.coverage_ratio", "trace.overhead_ratio",
}

// report is one run's full result: what -o stores and compare reads.
type report struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Seconds   int      `json:"seconds"`
	Trace     bool     `json:"trace"`
	Env       envInfo  `json:"env"`
	Plan      planInfo `json:"plan"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	// Truncated says the run hit its wall limit before finishing its
	// planned work; its counts then do not repeat.
	Truncated bool `json:"truncated,omitempty"`
	// Metrics are the contract metrics of the run's mode: every
	// end-to-end metric untraced, every per-layer metric traced.
	Metrics map[string]metric `json:"metrics"`
	// Extra are diagnostics outside the contract.
	Extra map[string]metric `json:"extra,omitempty"`
	// OpMs is every timed op's time by sweep, in schedule order (0 for a
	// failed op), for looking into a run after the fact: a burst of host
	// noise shows as one or two slow sweeps.
	OpMs [][]float64 `json:"op_ms_samples,omitempty"`
	// crowd's samples: phase A's latencies by arrival, and the completion
	// times of phases B and C in ms since the phase began.
	LatMs      []float64 `json:"lat_ms,omitempty"`
	DoneMs     []float64 `json:"done_ms,omitempty"`
	BaseDoneMs []float64 `json:"base_done_ms,omitempty"`
	// Ops is the sweep's schedule, naming the columns of OpMs.
	Ops   []string `json:"ops,omitempty"`
	Notes []string `json:"notes,omitempty"`
}

// planInfo is the run length, printed beside the metrics it produced.
type planInfo struct {
	GridEdge       int `json:"grid_edge"`
	Setups         int `json:"setups"`
	Sweeps         int `json:"sweeps,omitempty"`
	OpsPerSweep    int `json:"ops_per_sweep,omitempty"`
	TracedSweeps   int `json:"traced_sweeps,omitempty"`
	Conns          int `json:"conns,omitempty"`
	Arrivals       int `json:"arrivals,omitempty"`
	SatOps         int `json:"sat_ops,omitempty"`
	BaselineOps    int `json:"baseline_ops,omitempty"`
	TracedArrivals int `json:"traced_arrivals,omitempty"`
}

// checkNames fails when the assembled metrics are not exactly the names
// the contract lists; that would be a bug in the benchmark.
func checkNames(got map[string]metric, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("bench: assembled %d metrics, the contract lists %d", len(got), len(want))
	}
	for _, name := range want {
		if _, ok := got[name]; !ok {
			return fmt.Errorf("bench: metric %s was not assembled", name)
		}
	}
	return nil
}

// print writes the human-readable report, then, as the last line, the
// one JSON object the driver parses.
func (r *report) print(w io.Writer) error {
	fmt.Fprintf(w, "workload %s  seed %d  seconds %d  trace %v\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	fmt.Fprintf(w, "env  nproc=%d GOMAXPROCS=%d %s LLC=%s store=%s\n     %s\n",
		r.Env.NProc, r.Env.GOMAXPROCS, r.Env.GoVersion, r.Env.LLC, r.Env.Store, r.Env.CacheResident)
	plan, err := json.Marshal(r.Plan)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "plan %s\n", plan)
	if r.Truncated {
		fmt.Fprintln(w, "TRUNCATED: the run hit its wall limit; counts do not repeat")
	}
	table := func(title string, ms map[string]metric, order []string) {
		fmt.Fprintf(w, "%s\n", title)
		for _, name := range order {
			m := ms[name]
			fmt.Fprintf(w, "  %-36s %14.6g %-6s n=%d\n", name, m.Value, m.Unit, m.N)
		}
	}
	if r.Trace {
		table("per-layer metrics", r.Metrics, perLayerNames)
	} else {
		table("end-to-end metrics", r.Metrics, endToEndNames)
	}
	extra := make([]string, 0, len(r.Extra))
	for name := range r.Extra {
		extra = append(extra, name)
	}
	sort.Strings(extra)
	table("diagnostics", r.Extra, extra)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	fmt.Fprintf(w, "attempted %d  failed %d  correct %v\n", r.Attempted, r.Failed, r.Correct)

	type wireMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]wireMetric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]wireMetric, len(r.Metrics))}
	for name, m := range r.Metrics {
		last.Metrics[name] = wireMetric{m.Value, m.Unit}
	}
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
