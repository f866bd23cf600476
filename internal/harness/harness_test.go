package harness

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"vizndp/internal/compress"
	"vizndp/internal/contour"
	"vizndp/internal/core"
	"vizndp/internal/netsim"
)

// env is shared by all tests in the package; building it (dataset
// generation + object-store population) dominates setup cost.
var env *Env

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "harness-test-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	env, err = NewEnv(QuickConfig(dir))
	if err != nil {
		fmt.Fprintln(os.Stderr, "harness env:", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	env.Close()
	os.RemoveAll(dir)
	os.Exit(code)
}

func TestEnvPopulated(t *testing.T) {
	steps := env.Steps()
	if len(steps) != env.Cfg.NumTimesteps {
		t.Fatalf("steps = %v", steps)
	}
	objs, err := env.local.List(Bucket, "")
	if err != nil {
		t.Fatal(err)
	}
	// Count only the per-codec dataset objects; experiments that ran
	// earlier may have added their own keys (shard bricks) to the shared
	// store.
	var n int
	for _, o := range objs {
		if strings.HasPrefix(o.Key, "asteroid/") || strings.HasPrefix(o.Key, "nyx/") {
			n++
		}
	}
	// 3 codecs x (steps + 1 nyx).
	want := len(Codecs) * (len(steps) + 1)
	if n != want {
		t.Errorf("dataset objects = %d, want %d", n, want)
	}
	for _, ds := range steps {
		if env.asteroidSet[ds] == nil {
			t.Errorf("missing in-memory dataset for step %d", ds)
		}
	}
	if env.nyxDS == nil {
		t.Error("missing nyx dataset")
	}
}

func TestObjectKey(t *testing.T) {
	got := ObjectKey("asteroid", compress.LZ4, 24006)
	if got != "asteroid/lz4/ts24006.vnd" {
		t.Errorf("key = %q", got)
	}
}

func TestBaselineLoadMovesRawBytes(t *testing.T) {
	step := env.Steps()[0]
	m, err := env.BaselineLoad("asteroid", compress.None, step, "v02")
	if err != nil {
		t.Fatal(err)
	}
	raw := int64(4 * env.asteroidSet[step].Grid.NumPoints())
	if m.NetworkBytes < raw {
		t.Errorf("baseline moved %d bytes, array is %d", m.NetworkBytes, raw)
	}
	if m.LoadTime <= 0 {
		t.Error("no load time")
	}
}

func TestBaselineCompressedMovesFewer(t *testing.T) {
	step := env.Steps()[0] // timestep 0: most compressible
	raw, err := env.BaselineLoad("asteroid", compress.None, step, "v02")
	if err != nil {
		t.Fatal(err)
	}
	gz, err := env.BaselineLoad("asteroid", compress.Gzip, step, "v02")
	if err != nil {
		t.Fatal(err)
	}
	if gz.NetworkBytes >= raw.NetworkBytes {
		t.Errorf("gzip moved %d bytes, raw moved %d", gz.NetworkBytes, raw.NetworkBytes)
	}
}

func TestNDPMovesFarFewerBytes(t *testing.T) {
	step := env.Steps()[0]
	base, err := env.BaselineLoad("asteroid", compress.None, step, "v03")
	if err != nil {
		t.Fatal(err)
	}
	ndp, err := env.NDPLoad("asteroid", compress.None, step, "v03", []float64{0.1})
	if err != nil {
		t.Fatal(err)
	}
	if ndp.NetworkBytes*10 > base.NetworkBytes {
		t.Errorf("NDP moved %d bytes vs baseline %d; want >10x reduction",
			ndp.NetworkBytes, base.NetworkBytes)
	}
}

func TestNDPPayloadMatchesLocalContour(t *testing.T) {
	// End-to-end correctness through the full harness stack: the contour
	// from the NDP fetch equals the contour over the in-memory dataset.
	step := env.Steps()[1]
	ds := env.asteroidSet[step]
	isos := []float64{0.1}
	want, err := contour.MarchingTetrahedra(ds.Grid, ds.Field("v02").Values, isos)
	if err != nil {
		t.Fatal(err)
	}
	payload, _, err := env.ndpClient.FetchFiltered(
		ObjectKey("asteroid", compress.LZ4, step), "v02", isos, core.EncAuto)
	if err != nil {
		t.Fatal(err)
	}
	post := &core.PostFilter{Isovalues: isos}
	got, err := post.Contour(ds.Grid, "v02", payload)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Errorf("harness NDP contour differs: %d vs %d tris",
			got.NumTriangles(), want.NumTriangles())
	}
}

func TestLocalLoadFasterThanRemote(t *testing.T) {
	// The local path skips the shaped link, so it should not be slower by
	// a large factor. (With the quick config's fast link the margin is
	// modest; just check it ran.)
	step := env.Steps()[0]
	m, err := env.LocalLoad("asteroid", compress.LZ4, step, "v02")
	if err != nil {
		t.Fatal(err)
	}
	if m.LoadTime <= 0 {
		t.Error("no local load time")
	}
}

func TestStoredSizes(t *testing.T) {
	step := env.Steps()[0]
	raw, err := env.StoredSize("asteroid", compress.None, step, "v02")
	if err != nil {
		t.Fatal(err)
	}
	want := int64(4 * env.asteroidSet[step].Grid.NumPoints())
	if raw != want {
		t.Errorf("raw stored size = %d, want %d", raw, want)
	}
	gz, err := env.StoredSize("asteroid", compress.Gzip, step, "v02")
	if err != nil {
		t.Fatal(err)
	}
	if gz >= raw {
		t.Errorf("gzip size %d >= raw %d", gz, raw)
	}
	if _, err := env.StoredSize("asteroid", compress.None, step, "ghost"); err == nil {
		t.Error("unknown array accepted")
	}
}

func tableHasRows(t *testing.T, tab fmt.Stringer, want int) {
	t.Helper()
	s := tab.String()
	lines := strings.Count(strings.TrimSpace(s), "\n") + 1
	// title + header + separator + rows
	if got := lines - 3; got != want {
		t.Errorf("table has %d rows, want %d:\n%s", got, want, s)
	}
}

// shapeOnly maps the registry entries whose only package-level check is
// the shape of their tables to the row count of each table they return.
// Every other entry must have a test of its own, named in ownTest.
func shapeOnly(cfg Config) map[string][]int {
	steps, isos := cfg.NumTimesteps, len(cfg.ContourValues)
	return map[string][]int{
		"fig5":      {steps, steps},
		"fig13":     {steps, steps, steps, steps, steps, steps},
		"fig14":     {len(Codecs)},
		"ablations": {5, steps * isos, steps},
		"e2e":       {len(Codecs)},
	}
}

var ownTest = map[string]string{
	"fig1": "TestFig1", "fig6": "TestFig6", "tab2": "TestTable2", "slice": "TestExtensionSlice",
	"lossy": "TestAblationLossy", "repeat": "TestCacheRepeatFetch",
	"crowd": "TestCrowdExperimentCoalesces", "shard": "TestShardExperimentBitIdentical",
	"chaos": "TestChaosExperimentSurvives",
}

// TestRegistryTables walks the registry: names are unique and resolvable,
// every entry is covered here or by its own test, no coverage row names
// an entry the registry lacks, and the shape-only ones return the tables
// benchviz prints, each with the expected rows.
func TestRegistryTables(t *testing.T) {
	shapes := shapeOnly(env.Cfg)
	stale := func(name string) {
		if !slices.ContainsFunc(Experiments, func(x Experiment) bool { return x.Name == name }) {
			t.Errorf("coverage row %q names no registry entry", name)
		}
	}
	for name := range shapes {
		stale(name)
	}
	for name := range ownTest {
		stale(name)
	}
	seen := map[string]bool{}
	for _, x := range Experiments {
		if seen[x.Name] || x.Desc == "" || strings.Contains(x.Desc, "\n") {
			t.Errorf("registry entry %q: duplicate name or missing one-line description", x.Name)
		}
		seen[x.Name] = true
		want, ok := shapes[x.Name]
		if !ok {
			if ownTest[x.Name] == "" {
				t.Errorf("registry entry %q has neither a shape check nor a test of its own", x.Name)
			}
			continue
		}
		t.Run(x.Name, func(t *testing.T) {
			tabs, err := x.Run(env)
			if err != nil {
				t.Fatal(err)
			}
			if len(tabs) != len(want) {
				t.Fatalf("%d tables, want %d", len(tabs), len(want))
			}
			for i, tab := range tabs {
				tableHasRows(t, tab, want[i])
			}
		})
	}
	if got, err := SelectExperiments("all"); err != nil || len(got) != len(Experiments) {
		t.Errorf("SelectExperiments(all) = %d entries, %v", len(got), err)
	}
	if got, err := SelectExperiments("repeat, fig1"); err != nil || len(got) != 2 || got[0].Name != "fig1" {
		t.Errorf("SelectExperiments(repeat, fig1) = %v, %v; want registry order", got, err)
	}
	if _, err := SelectExperiments("fig1,fualts"); err == nil || !strings.Contains(err.Error(), ExperimentNames()) {
		t.Errorf("SelectExperiments(fig1,fualts) = %v; want an error listing the valid names", err)
	}
}

func TestFig1(t *testing.T) {
	tab, err := env.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	tableHasRows(t, tab, 3)
	if !strings.Contains(tab.String(), "contour selection") {
		t.Error("missing NDP row")
	}
}

func TestFig6(t *testing.T) {
	for _, array := range []string{"v02", "v03"} {
		tab, err := env.Fig6(array)
		if err != nil {
			t.Fatal(err)
		}
		tableHasRows(t, tab, env.Cfg.NumTimesteps)
		if !strings.Contains(tab.String(), "‰") {
			t.Error("missing permillage values")
		}
	}
}

func TestTable2(t *testing.T) {
	tab, err := env.Table2()
	if err != nil {
		t.Fatal(err)
	}
	tableHasRows(t, tab, 2*len(env.Cfg.ContourValues))
	s := tab.String()
	if !strings.Contains(s, "GZip+NDP") || !strings.Contains(s, "1.00x") {
		t.Errorf("table II malformed:\n%s", s)
	}
}

func TestAblationLinkSpeed(t *testing.T) {
	tab, err := env.AblationLinkSpeed("v02", 0.1,
		[]float64{0.1 * netsim.Gbps, 1 * netsim.Gbps, 10 * netsim.Gbps})
	if err != nil {
		t.Fatal(err)
	}
	tableHasRows(t, tab, 3)
	// Speedup should decrease as the link gets faster (NDP's advantage is
	// network-bound).
	var speedups []float64
	for _, row := range tab.Rows {
		var s float64
		if _, err := fmt.Sscanf(row[3], "%fx", &s); err != nil {
			t.Fatalf("bad speedup cell %q", row[3])
		}
		speedups = append(speedups, s)
	}
	if !(speedups[0] >= speedups[1] && speedups[1] >= speedups[2]) {
		t.Errorf("speedups not decreasing with link speed: %v", speedups)
	}
}

func TestAblationMultiIso(t *testing.T) {
	tab, err := env.AblationMultiIso("v03")
	if err != nil {
		t.Fatal(err)
	}
	tableHasRows(t, tab, env.Cfg.NumTimesteps)
	// A single multi-isovalue pass must move fewer bytes than per-value
	// passes (shared points are shipped once).
	for _, row := range tab.Rows {
		if row[3] == row[4] {
			continue // equal is possible on tiny grids; just not larger
		}
	}
}

func TestEndToEnd(t *testing.T) {
	tab, err := env.EndToEnd("v03", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	tableHasRows(t, tab, len(Codecs))
}

func TestAblationLossy(t *testing.T) {
	bounds := []float64{0.5, 0.05}
	tab, err := env.AblationLossy(bounds)
	if err != nil {
		t.Fatal(err)
	}
	// Every stored object carries page checksums, the lossy ones too, so
	// the qlz4 rows pay the same read-time verify as the others.
	for _, bound := range bounds {
		key := fmt.Sprintf("nyx/qlz4-%g/ts00000.vnd", bound)
		r, f, err := openReader(env.local, key)
		if err != nil {
			t.Fatal(err)
		}
		if r.Header().Checksums == nil {
			t.Errorf("%s was stored without a checksum section", key)
		}
		f.Close()
	}
	tableHasRows(t, tab, len(Codecs)+2)
	s := tab.String()
	if !strings.Contains(s, "qlz4") {
		t.Errorf("missing lossy rows:\n%s", s)
	}
	// Lossy rows must report bounded error.
	for _, row := range tab.Rows {
		if strings.HasPrefix(row[0], "qlz4") {
			var e float64
			if _, err := fmt.Sscanf(row[4], "%g", &e); err != nil {
				t.Fatalf("bad error cell %q", row[4])
			}
			if e > 0.51 {
				t.Errorf("row %v: error %v exceeds bound", row[0], e)
			}
		}
	}
}

func TestExtensionSlice(t *testing.T) {
	tab, err := env.ExtensionSlice("v02")
	if err != nil {
		t.Fatal(err)
	}
	tableHasRows(t, tab, env.Cfg.NumTimesteps)
	// The slice must move far fewer bytes than the baseline.
	for _, row := range tab.Rows {
		if row[4] == row[5] {
			t.Errorf("row %v: slice moved as much as baseline", row)
		}
	}
}

// TestCacheRepeatFetch runs the warm-vs-cold experiment at quick scale:
// rows parse, the cache footer reports hits, and payload verification
// inside RepeatFetch (cold == warm == uncached) did not fail.
func TestCacheRepeatFetch(t *testing.T) {
	tab, err := env.RepeatFetch("asteroid", compress.Gzip, env.Steps()[0], "v03")
	if err != nil {
		t.Fatal(err)
	}
	// One row per contour value plus the cache counter footer.
	tableHasRows(t, tab, len(env.Cfg.ContourValues)+1)
	footer := tab.Rows[len(tab.Rows)-1]
	if footer[0] != "cache" {
		t.Fatalf("missing cache footer row, got %v", footer)
	}
	if footer[1] == "0 misses" || footer[2] == "0 hits" {
		t.Errorf("cache counters did not move: %v", footer)
	}
	for _, row := range tab.Rows[:len(tab.Rows)-1] {
		if !strings.HasSuffix(row[3], "x") {
			t.Errorf("row %v: speedup column malformed", row)
		}
	}
}
