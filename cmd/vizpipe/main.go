// Command vizpipe runs a client-side visualization pipeline against
// stored datasets, in either of the paper's two configurations:
//
//   - baseline: read the full selected arrays from an object store
//     (through the s3fs layer) or a local directory, then filter;
//   - ndp: ask a remote ndpserver to pre-filter near the data, then
//     complete the filter locally from the sparse payload.
//
// The filter is a contour (the default), a threshold (-filter threshold
// -lo L -hi H), or in ndp mode an isovalue sweep (-sweep), which fetches
// every (array, isovalue) pair as its own request and reports the
// points each selected. All three share one run loop: each run prints
// its measured data load time (the paper's metric), then the report
// gives each request's triangles, cells or points and the bytes it
// needed, and -v the trace trees and metric deltas. A contour can be
// rendered to a PNG (-render) or exported to OBJ (-obj).
//
// Examples:
//
//	vizpipe -mode baseline -store 127.0.0.1:9000 -bucket sim \
//	    -path asteroid/lz4/ts24006.vnd -arrays v02,v03 -iso 0.1 -render out.png
//	vizpipe -mode ndp -ndp 127.0.0.1:9100 \
//	    -path asteroid/lz4/ts24006.vnd -arrays v02,v03 -iso 0.1
//	vizpipe -mode ndp -ndp 127.0.0.1:9100 -filter threshold \
//	    -path asteroid/lz4/ts24006.vnd -arrays v02,v03 -lo 0.1 -hi 0.5
//	vizpipe -mode ndp -ndp 127.0.0.1:9100 -sweep \
//	    -path asteroid/lz4/ts24006.vnd -arrays v02 -iso 0.1,0.5,0.9
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"image/color"
	"io"
	"io/fs"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"vizndp/internal/contour"
	"vizndp/internal/core"
	"vizndp/internal/grid"
	"vizndp/internal/objstore"
	"vizndp/internal/render"
	"vizndp/internal/rpc"
	"vizndp/internal/s3fs"
	"vizndp/internal/stats"
	"vizndp/internal/telemetry"
	"vizndp/internal/vtkio"
)

// layerColors cycles through display colors for multi-array renders
// (cyan water, yellow asteroid, as in the paper's Fig. 4).
var layerColors = []color.RGBA{
	{R: 40, G: 210, B: 210, A: 255},
	{R: 235, G: 210, B: 40, A: 255},
	{R: 220, G: 90, B: 90, A: 255},
	{R: 120, G: 220, B: 90, A: 255},
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("vizpipe: ")
	// -h has already printed the usage; it is not a failure.
	if err := run(os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run is main without the process exit, so tests can drive the whole
// command line in-process.
func run(args []string) error {
	flags := flag.NewFlagSet("vizpipe", flag.ContinueOnError)
	var (
		mode      = flags.String("mode", "baseline", "pipeline mode: baseline or ndp")
		dir       = flags.String("dir", "", "baseline: read files from this directory")
		store     = flags.String("store", "", "baseline: object store address")
		bucket    = flags.String("bucket", "sim", "object store bucket")
		ndpAddr   = flags.String("ndp", "", "ndp: address of the ndpserver")
		replicas  = flags.String("replicas", "", "ndp: comma-separated replica ndpserver addresses (contour, threshold and sweep); calls route to the healthiest and fail over on busy/dead replicas")
		shardsCSV = flags.String("shards", "", "ndp contour: comma-separated shard ndpserver addresses for brick-sharded scatter-gather (needs -manifest; -path names the per-timestep brick directory)")
		manifest  = flags.String("manifest", "", "ndp contour: brick manifest key, fetched through the first -shards address")
		path      = flags.String("path", "", "dataset file path/key")
		arraysCSV = flags.String("arrays", "v02", "comma-separated data arrays to contour")
		isoCSV    = flags.String("iso", "0.1", "comma-separated contour values")
		filter    = flags.String("filter", "contour", "filter type: contour or threshold")
		loFlag    = flags.Float64("lo", 0, "threshold: lower bound")
		hiFlag    = flags.Float64("hi", 1, "threshold: upper bound")
		encName   = flags.String("encoding", "auto", "ndp payload encoding: auto, indexvalue, blockbitmap")
		renderOut = flags.String("render", "", "render the contours to this PNG file")
		objOut    = flags.String("obj", "", "export the first contour mesh to this OBJ file")
		sweep     = flags.Bool("sweep", false, "ndp: fetch every (array, isovalue) pair as its own concurrent request")
		retries   = flags.Int("retries", 1, "ndp: attempts per call across all addresses; >1 (or any -replicas/-shards list) uses the fault-tolerant client, which re-dials, retries and degrades to a raw transfer")
		repeats   = flags.Int("repeats", 1, "measurement repetitions")
		sloSpec   = flags.String("slo", "", `client-side SLO objectives as "method=latency@latPct[/availPct]" entries, e.g. "ndp.fetch=50ms@99/99.9"; prints a burn-rate summary after the run`)
		verbose   = flags.Bool("v", false, "print the run's trace tree and metric deltas")
	)
	if err := flags.Parse(args); err != nil {
		return err
	}
	// The flag matrix, decided once before any dial or read: a flag the
	// chosen run has no use for is an error, not silently dropped.
	switch {
	case *repeats < 1:
		return fmt.Errorf("-repeats %d: want at least 1", *repeats)
	case *mode != "baseline" && *mode != "ndp":
		return fmt.Errorf("unknown mode %q", *mode)
	case *filter != "contour" && *filter != "threshold":
		return fmt.Errorf("unknown filter %q (want contour or threshold)", *filter)
	case (*shardsCSV != "" || *manifest != "") && (*mode != "ndp" || *filter != "contour" || *sweep):
		return fmt.Errorf("-shards and -manifest need -mode ndp, -filter contour and no -sweep")
	case *manifest != "" && *shardsCSV == "":
		return fmt.Errorf("-manifest needs -shards")
	case *sweep && (*mode != "ndp" || *filter != "contour"):
		return fmt.Errorf("-sweep needs -mode ndp and -filter contour")
	case (*renderOut != "" || *objOut != "") && (*filter != "contour" || *sweep):
		return fmt.Errorf("-render and -obj need -filter contour and no -sweep")
	case *mode == "ndp" && *ndpAddr == "" && *replicas == "" && *shardsCSV == "":
		return fmt.Errorf("ndp mode needs an -ndp, -replicas, or -shards address")
	case *path == "":
		return fmt.Errorf("-path is required")
	}

	if *sloSpec != "" {
		objs, err := telemetry.ParseSLOSpec(*sloSpec)
		if err != nil {
			return err
		}
		// vizpipe observes from the client side, so the monitor scores the
		// client's wide events (which include degraded fallbacks and
		// retries) rather than a server's.
		mon := telemetry.NewSLOMonitor(telemetry.KindClient, objs...)
		rec := telemetry.DefaultFlightRecorder()
		rec.SetSLO(mon)
		defer func() {
			fmt.Print("\n" + mon.Summary())
		}()
	}

	arrays := strings.Split(*arraysCSV, ",")
	isovalues, err := parseFloats(*isoCSV)
	if err != nil {
		return err
	}
	enc, err := core.ParseEncoding(*encName)
	if err != nil {
		return err
	}
	// One request per array, or with -sweep one per (array, isovalue)
	// pair; names label each in errors and the report.
	var reqs []core.MultiRequest
	var names []string
	for _, a := range arrays {
		if !*sweep {
			reqs = append(reqs, core.MultiRequest{Path: *path, Array: a, Isovalues: isovalues, Encoding: enc})
			names = append(names, a)
			continue
		}
		for _, iso := range isovalues {
			reqs = append(reqs, core.MultiRequest{Path: *path, Array: a, Isovalues: []float64{iso}, Encoding: enc})
			names = append(names, fmt.Sprintf("%s iso %g", a, iso))
		}
	}

	var load loadFunc
	switch *mode {
	case "baseline":
		fsys, err := baselineFS(*dir, *store, *bucket)
		if err != nil {
			return err
		}
		load = func(context.Context) (*grid.Uniform, []loaded, error) {
			ds, err := readArrays(fsys, *path, arrays)
			if err != nil {
				return nil, nil, err
			}
			out := make([]loaded, len(arrays))
			for i, a := range arrays {
				out[i].values = ds.Field(a).Values
			}
			return ds.Grid, out, nil
		}
	case "ndp":
		if *shardsCSV != "" {
			sc, err := dialSharded(*shardsCSV, *manifest, *retries)
			if err != nil {
				return err
			}
			defer sc.Close()
			// -path names the per-timestep brick directory the manifest's
			// keys are relative to, e.g. asteroid/raw/ts00000/.
			prefix := *path
			if !strings.HasSuffix(prefix, "/") {
				prefix += "/"
			}
			load = func(ctx context.Context) (*grid.Uniform, []loaded, error) {
				out := make([]loaded, len(reqs))
				for i, r := range reqs {
					p, st, err := sc.FetchArrayContext(ctx, prefix, r.Array, r.Isovalues, enc)
					if err != nil {
						return nil, nil, fmt.Errorf("sharded fetch %s%s: %w", prefix, r.Array, err)
					}
					out[i] = loaded{payload: p, shard: st}
				}
				return sc.Grid(), out, nil
			}
			break
		}
		client, err := dialNDP(*ndpAddr, *replicas, *retries)
		if err != nil {
			return err
		}
		defer client.Close()
		desc, err := client.Describe(*path)
		if err != nil {
			return fmt.Errorf("describe %s: %w", *path, err)
		}
		if *filter == "threshold" {
			load = func(ctx context.Context) (*grid.Uniform, []loaded, error) {
				out := make([]loaded, len(reqs))
				for i, r := range reqs {
					p, st, err := client.FetchRangeContext(ctx, *path, r.Array, *loFlag, *hiFlag, enc)
					if err != nil {
						return nil, nil, fmt.Errorf("fetch %s/%s: %w", *path, names[i], err)
					}
					out[i] = loaded{payload: p, fetch: st}
				}
				return desc.Grid, out, nil
			}
			break
		}
		// One request each over the multiplexed connection: the storage
		// node overlaps its reads and pre-filters.
		load = func(ctx context.Context) (*grid.Uniform, []loaded, error) {
			out := make([]loaded, len(reqs))
			for i, r := range client.FetchFilteredMultiContext(ctx, reqs) {
				if r.Err != nil {
					return nil, nil, fmt.Errorf("fetch %s/%s: %w", *path, names[i], r.Err)
				}
				out[i] = loaded{payload: r.Payload, fetch: r.Stats}
			}
			return desc.Grid, out, nil
		}
	}

	var (
		got    []loaded
		meshes []*contour.Mesh
		cells  []*contour.CellSet
		obs    *observer
	)
	if *verbose {
		obs = newObserver()
	}
	for r := 0; r < *repeats; r++ {
		ctx, end := obs.beginRun()
		start := time.Now()
		var g *grid.Uniform
		g, got, err = load(ctx)
		loadTime := time.Since(start)
		// A sweep's filter step is its fetches: it reports the points each
		// request selected.
		switch {
		case err != nil, *sweep:
		case *filter == "threshold":
			cells, err = thresholdAll(g, arrays, got, *loFlag, *hiFlag)
		default:
			meshes, err = contourAll(g, arrays, got, isovalues)
		}
		total := time.Since(start)
		end()
		if err != nil {
			return err
		}
		fmt.Printf("run %d: data load time %s (total %s)\n",
			r+1, stats.FormatDuration(loadTime), stats.FormatDuration(total))
	}
	obs.report(os.Stdout)

	var layers []render.Layer
	for i, name := range names {
		switch {
		case meshes != nil:
			m := meshes[i]
			fmt.Printf("array %s: %d triangles, %d vertices\n",
				name, m.NumTriangles(), m.NumVertices())
			layers = append(layers, render.Layer{Mesh: m, Color: layerColors[i%len(layerColors)]})
		case cells != nil:
			fmt.Printf("array %s: %d cells in [%g, %g]\n", name, cells[i].Count(), *loFlag, *hiFlag)
		default:
			fmt.Printf("array %s: %d points\n", name, got[i].payload.Count)
		}
		if st := got[i].fetch; st != nil {
			mark := ""
			if st.Degraded {
				mark = " [degraded: raw transfer + local pre-filter]"
			}
			fmt.Printf("array %s: transferred %s of %s (%d points selected)%s\n",
				name, stats.FormatBytes(st.PayloadBytes), stats.FormatBytes(st.RawBytes),
				st.SelectedPoints, mark)
		}
		if st := got[i].shard; st != nil {
			mark := ""
			if st.Degraded > 0 {
				mark = fmt.Sprintf(" [%d bricks degraded]", st.Degraded)
			}
			fmt.Printf("array %s: %d bricks, transferred %s of %s (%d points selected, %d ghost dups)%s\n",
				name, st.Bricks, stats.FormatBytes(st.PayloadBytes), stats.FormatBytes(st.RawBytes),
				st.SelectedPoints, st.DupPoints, mark)
		}
	}

	if *objOut != "" {
		f, err := os.Create(*objOut)
		if err != nil {
			return err
		}
		mesh := layers[0].Mesh
		mesh.ComputeNormals()
		if err := mesh.WriteOBJ(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Println("exported", *objOut)
	}

	if *renderOut != "" {
		img, err := render.Meshes(layers, render.Options{
			Width: 800, Height: 800, AzimuthDeg: 35, ElevationDeg: 25,
		})
		if err != nil {
			return err
		}
		if err := render.SavePNG(img, *renderOut); err != nil {
			return err
		}
		fmt.Println("rendered", *renderOut)
	}
	return nil
}

// loadFunc is one run's data load: the grid plus each requested array,
// in request order. Its elapsed time is the paper's data load time.
type loadFunc func(ctx context.Context) (*grid.Uniform, []loaded, error)

// loaded is one array as a data load delivered it: the full field
// (baseline) or the pre-filtered payload (ndp, -shards), plus the
// transfer stats of the NDP paths.
type loaded struct {
	values  []float32
	payload *core.Payload
	fetch   *core.FetchStats
	shard   *core.ShardStats
}

// contourAll contours every loaded array. A payload goes through the
// post-filter, which contours its own points; the baseline's full field
// through the kernel. Both give the mesh a full-array contour gives.
func contourAll(g *grid.Uniform, arrays []string, got []loaded, isovalues []float64) ([]*contour.Mesh, error) {
	post := &core.PostFilter{Isovalues: isovalues}
	meshes := make([]*contour.Mesh, len(got))
	for i, l := range got {
		var err error
		if l.payload != nil {
			meshes[i], err = post.Contour(g, arrays[i], l.payload)
		} else {
			meshes[i], err = contour.MarchingTetrahedra(g, l.values, isovalues)
		}
		if err != nil {
			return nil, fmt.Errorf("contour %s: %w", arrays[i], err)
		}
	}
	return meshes, nil
}

// thresholdAll is contourAll's twin for the threshold: a payload goes
// through ThresholdFromPayload, which reads only its shipped points, the
// baseline's full field through the kernel. Both keep the same cells.
func thresholdAll(g *grid.Uniform, arrays []string, got []loaded, lo, hi float64) ([]*contour.CellSet, error) {
	cells := make([]*contour.CellSet, len(got))
	for i, l := range got {
		var err error
		if l.payload != nil {
			cells[i], err = core.ThresholdFromPayload(g, l.payload, lo, hi)
		} else {
			cells[i], err = contour.ThresholdCells(g, l.values, lo, hi)
		}
		if err != nil {
			return nil, fmt.Errorf("threshold %s: %w", arrays[i], err)
		}
	}
	return cells, nil
}

// baselineFS is the filesystem baseline mode reads from: a local
// directory (-dir) or the object store through s3fs (-store).
func baselineFS(dir, store, bucket string) (fs.FS, error) {
	switch {
	case dir != "":
		return os.DirFS(dir), nil
	case store != "":
		return s3fs.New(objstore.NewClient(store, nil), bucket), nil
	}
	return nil, fmt.Errorf("baseline mode needs -dir or -store")
}

// readArrays is the baseline's data load: open the dataset file and read
// each named array in full, decompressing as needed.
func readArrays(fsys fs.FS, path string, arrays []string) (*grid.Dataset, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ra, ok := f.(io.ReaderAt)
	if !ok {
		return nil, fmt.Errorf("%s does not support random access", path)
	}
	r, err := vtkio.OpenReader(ra)
	if err != nil {
		return nil, err
	}
	return r.ReadDataset(arrays...)
}

// observer captures the trace and metric state around measured runs for
// the -v report: one trace tree per run plus the metric deltas the runs
// induced. A nil observer is inert, so call sites need no verbose checks.
type observer struct {
	before telemetry.Snapshot
	traces []uint64
}

func newObserver() *observer {
	return &observer{before: telemetry.Default().Snapshot()}
}

// beginRun starts a root span for one measured run and returns the
// context to run under plus the func that ends the span.
func (o *observer) beginRun() (context.Context, func()) {
	if o == nil {
		return context.Background(), func() {}
	}
	ctx, span := telemetry.StartSpan(context.Background(), "vizpipe")
	o.traces = append(o.traces, span.Trace())
	return ctx, span.End
}

// report prints each run's trace tree and the metric deltas the runs
// induced, including spans and counters shipped back from the server.
func (o *observer) report(w io.Writer) {
	if o == nil {
		return
	}
	tr := telemetry.DefaultTracer()
	for i, trace := range o.traces {
		fmt.Fprintf(w, "\ntrace for run %d:\n", i+1)
		fmt.Fprint(w, telemetry.FormatTree(tr.TraceSpans(trace)))
	}
	fmt.Fprintf(w, "\nmetric deltas:\n")
	printDeltas(w, o.before, telemetry.Default().Snapshot())
}

// printDeltas writes the metrics that changed between two snapshots.
func printDeltas(w io.Writer, before, after telemetry.Snapshot) {
	var lines []string
	for name, v := range after.Counters {
		if d := v - before.Counters[name]; d != 0 {
			lines = append(lines, fmt.Sprintf("  %s +%d", name, d))
		}
	}
	for name, v := range after.Gauges {
		if v != before.Gauges[name] {
			lines = append(lines, fmt.Sprintf("  %s %d -> %d", name, before.Gauges[name], v))
		}
	}
	for name, h := range after.Histograms {
		if d := h.Count - before.Histograms[name].Count; d != 0 {
			lines = append(lines, fmt.Sprintf("  %s.count +%d (p50 %.4g, p95 %.4g)",
				name, d, h.P50, h.P95))
		}
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
}

// dialNDP picks the client by the flags: the plain fail-fast client for
// one address at -retries 1, else the fault-tolerant client over -ndp or
// the -replicas list (healthiest routing, retries, transparent failover,
// graceful degradation to raw transfers).
func dialNDP(addr, replicas string, retries int) (*core.Client, error) {
	if replicas == "" && retries <= 1 {
		return core.Dial(addr, nil)
	}
	addrs := []string{addr}
	if replicas != "" {
		var err error
		if addrs, err = splitAddrs(replicas); err != nil {
			return nil, fmt.Errorf("-replicas: %w", err)
		}
	}
	return core.DialFaultTolerant(addrs, nil, retryOptions(retries)), nil
}

// retryOptions maps -retries onto the client's attempt budget; 1 (the
// flag's default) leaves the library default per address in place.
func retryOptions(retries int) rpc.ReconnectOptions {
	var opts rpc.ReconnectOptions
	if retries > 1 {
		opts.MaxAttempts = retries
	}
	return opts
}

// splitAddrs parses a comma-separated address list, dropping empty
// entries; a list with nothing left is an error.
func splitAddrs(csv string) ([]string, error) {
	var addrs []string
	for _, a := range strings.Split(csv, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("no address in %q", csv)
	}
	return addrs, nil
}

// dialSharded fetches the brick manifest through the first shard address
// and opens the scatter-gather client: per-shard fault-tolerant clients
// whose replica lists are the sibling shards, so a dead shard's bricks
// fail over (every shard mounts the same store).
func dialSharded(shardsCSV, manifestKey string, retries int) (*core.ShardedClient, error) {
	if manifestKey == "" {
		return nil, fmt.Errorf("-shards needs -manifest <key>")
	}
	addrs, err := splitAddrs(shardsCSV)
	if err != nil {
		return nil, fmt.Errorf("-shards: %w", err)
	}
	first, err := core.Dial(addrs[0], nil)
	if err != nil {
		return nil, err
	}
	man, err := first.FetchManifest(manifestKey)
	first.Close()
	if err != nil {
		return nil, fmt.Errorf("fetching manifest %s: %w", manifestKey, err)
	}
	return core.DialSharded(man, addrs, nil, retryOptions(retries))
}

func parseFloats(csv string) ([]float64, error) {
	parts := strings.Split(csv, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad isovalue %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}
