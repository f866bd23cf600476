package main

import (
	"bytes"
	"io"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"vizndp/internal/compress"
	"vizndp/internal/core"
	"vizndp/internal/grid"
	"vizndp/internal/sim"
	"vizndp/internal/telemetry"
	"vizndp/internal/vtkio"
)

// deadAddr returns a loopback address nothing listens on.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestClientSelection pins which client the flags select. The plain
// client connects eagerly, so it fails at once against a dead address;
// the fault-tolerant one dials lazily and is handed back regardless.
// Rows with args run the whole command line instead: flags it rejects
// before any dial or read, with an error naming wantIn.
func TestClientSelection(t *testing.T) {
	a, b := deadAddr(t), deadAddr(t)
	for _, tc := range []struct {
		name          string
		ndp, replicas string
		retries       int
		args          []string
		wantIn        string // for rows with args: the flag the error names
		wantErr       bool
	}{
		{name: "-retries 1 dials eagerly", ndp: a, retries: 1, wantErr: true},
		{name: "-retries 3 dials lazily", ndp: a, retries: 3},
		{name: "-replicas a,b dials lazily even at -retries 1", replicas: a + "," + b, retries: 1},
		{name: "-replicas a,,b drops the empty entry", replicas: a + ",, " + b, retries: 1},
		{name: "-replicas of nothing but commas", replicas: " , ", retries: 3, wantErr: true},
		{name: "-repeats 0 contour", args: []string{"-dir", t.TempDir(), "-path", "ts0.vnd", "-repeats", "0"}, wantIn: "-repeats", wantErr: true},
		{name: "-repeats 0 threshold", args: []string{"-dir", t.TempDir(), "-path", "ts0.vnd", "-filter", "threshold", "-repeats", "0"}, wantIn: "-repeats", wantErr: true},
		{name: "-repeats -1 sweep", args: []string{"-mode", "ndp", "-ndp", a, "-retries", "3", "-path", "ts0.vnd", "-sweep", "-repeats", "-1"}, wantIn: "-repeats", wantErr: true},
		{name: "-shards is not a flag", args: []string{"-mode", "ndp", "-replicas", a, "-path", "run/ts0", "-shards", b}, wantIn: "flag provided but not defined: -shards", wantErr: true},
		{name: "-replicas -manifest in baseline mode", args: []string{"-dir", t.TempDir(), "-path", "ts0.vnd", "-replicas", a, "-manifest", "m.json"}, wantIn: "-manifest", wantErr: true},
		{name: "-manifest in baseline mode", args: []string{"-dir", t.TempDir(), "-path", "ts0.vnd", "-manifest", "m.json"}, wantIn: "-manifest", wantErr: true},
		{name: "-manifest with the threshold", args: []string{"-mode", "ndp", "-replicas", b, "-path", "ts0.vnd", "-filter", "threshold", "-manifest", "m.json"}, wantIn: "-manifest", wantErr: true},
		{name: "-manifest with -sweep", args: []string{"-mode", "ndp", "-replicas", b, "-path", "ts0.vnd", "-sweep", "-manifest", "m.json"}, wantIn: "-manifest", wantErr: true},
		{name: "-manifest without -replicas", args: []string{"-mode", "ndp", "-ndp", a, "-retries", "3", "-path", "ts0.vnd", "-manifest", "m.json"}, wantIn: "-manifest", wantErr: true},
		{name: "-manifest over -replicas of nothing but commas", args: []string{"-mode", "ndp", "-replicas", ",", "-path", "run/ts0", "-manifest", "m.json"}, wantIn: "-replicas", wantErr: true},
		{name: "-manifest over dead -replicas", args: []string{"-mode", "ndp", "-replicas", a + "," + b, "-path", "run/ts0", "-manifest", "m.json"}, wantIn: "fetching manifest m.json", wantErr: true},
		{name: "-sweep with the threshold", args: []string{"-mode", "ndp", "-ndp", a, "-retries", "3", "-path", "ts0.vnd", "-sweep", "-filter", "threshold"}, wantIn: "-sweep", wantErr: true},
		{name: "-render with the threshold", args: []string{"-dir", t.TempDir(), "-path", "ts0.vnd", "-filter", "threshold", "-render", "f.png"}, wantIn: "-render", wantErr: true},
		{name: "-obj with the threshold", args: []string{"-dir", t.TempDir(), "-path", "ts0.vnd", "-filter", "threshold", "-obj", "f.obj"}, wantIn: "-obj", wantErr: true},
		{name: "-render with -sweep", args: []string{"-mode", "ndp", "-ndp", a, "-retries", "3", "-path", "ts0.vnd", "-sweep", "-render", "f.png"}, wantIn: "-render", wantErr: true},
		{name: "-obj with -sweep", args: []string{"-mode", "ndp", "-ndp", a, "-retries", "3", "-path", "ts0.vnd", "-sweep", "-obj", "f.obj"}, wantIn: "-obj", wantErr: true},
	} {
		var err error
		if tc.args != nil {
			if err = run(tc.args); err != nil && !strings.Contains(err.Error(), tc.wantIn) {
				t.Errorf("%s: err = %v, want the %s error", tc.name, err, tc.wantIn)
			}
		} else {
			var c *core.Client
			if c, err = dialNDP(tc.ndp, tc.replicas, tc.retries); err == nil {
				c.Close()
			}
		}
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: err = %v, want error %v", tc.name, err, tc.wantErr)
		}
	}
	if got, err := splitAddrs(a + ",, " + b); err != nil || len(got) != 2 || got[0] != a || got[1] != b {
		t.Errorf("splitAddrs = %v, %v, want [%s %s]", got, err, a, b)
	}
}

// refusingListener closes the next `refuse` accepted connections before
// the server sees them, the way a restarting storage node drops a
// client's first connection.
type refusingListener struct {
	net.Listener
	refuse atomic.Int64
}

func (l *refusingListener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil || l.refuse.Add(-1) < 0 {
			return c, err
		}
		c.Close()
	}
}

// TestNDPModeSurvivesRefusedConnection runs the whole command line
// in-process against a core.Server whose first connection per run is
// refused: with -retries 3 the contour and the threshold filter must
// both complete (the threshold path used to dial the plain client
// whatever the flags said), with -retries 1 both must fail.
func TestNDPModeSurvivesRefusedConnection(t *testing.T) {
	dir := t.TempDir()
	g := grid.NewUniform(12, 12, 12)
	f := grid.NewField("d", g.NumPoints())
	for i := range f.Values {
		f.Values[i] = float32(i % 23)
	}
	ds := grid.NewDataset(g)
	ds.MustAddField(f)
	if err := vtkio.WriteFile(filepath.Join(dir, "ts0.vnd"), ds, vtkio.WriteOptions{Codec: compress.LZ4, Checksum: true}); err != nil {
		t.Fatal(err)
	}
	srv := core.NewServer(os.DirFS(dir))
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &refusingListener{Listener: inner}
	go srv.Serve(ln)
	t.Cleanup(srv.Close)

	reconnects := telemetry.Default().Counter("rpc.client.reconnects")
	common := []string{"-mode", "ndp", "-ndp", inner.Addr().String(), "-path", "ts0.vnd", "-arrays", "d"}
	for name, filter := range map[string][]string{
		"contour":   {"-iso", "5"},
		"threshold": {"-filter", "threshold", "-lo", "4", "-hi", "9"},
	} {
		args := append(append([]string{}, common...), filter...)
		ln.refuse.Store(1)
		before := reconnects.Value()
		if err := run(append(args, "-retries", "3")); err != nil {
			t.Errorf("%s with -retries 3: %v", name, err)
		}
		if reconnects.Value() == before {
			t.Errorf("%s with -retries 3 never reconnected: the refused connection was not exercised", name)
		}
		ln.refuse.Store(1)
		if err := run(append(args, "-retries", "1")); err == nil {
			t.Errorf("%s with -retries 1 survived a refused connection", name)
		}
	}
}

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	runErr := fn()
	os.Stdout = orig
	w.Close()
	return <-out, runErr
}

// TestShardsOverUnpinnedManifest runs the whole -replicas -manifest
// command line in-process against two core.Servers over one bricked
// dataset as datagen writes it: every brick is fetched from its home
// replica, ID mod the replica count, and merged.
func TestShardsOverUnpinnedManifest(t *testing.T) {
	dir := t.TempDir()
	g := grid.NewUniform(12, 12, 12)
	f := grid.NewField("d", g.NumPoints())
	for i := range f.Values {
		f.Values[i] = float32(i % 23)
	}
	ds := grid.NewDataset(g)
	ds.MustAddField(f)
	writeBricked(t, dir, "run", "ts0", ds, compress.LZ4)
	addrs := []string{serve(t, dir), serve(t, dir)}

	out, err := captureStdout(t, func() error {
		return run([]string{"-mode", "ndp", "-replicas", addrs[0] + "," + addrs[1],
			"-manifest", "run/manifest.json", "-path", "run/ts0", "-arrays", "d", "-iso", "5"})
	})
	if err != nil {
		t.Fatalf("vizpipe -replicas -manifest: %v\n%s", err, out)
	}
	if want := "array d: 4 bricks"; !strings.Contains(out, want) {
		t.Errorf("output lacks %q:\n%s", want, out)
	}
}

// writeBricked writes ds as datagen -bricks 2x2x1 -ghost 1 does: one
// object per brick under <prefix>/<step>/ and a manifest at
// <prefix>/manifest.json.
func writeBricked(t *testing.T, dir, prefix, step string, ds *grid.Dataset, codec compress.Kind) {
	t.Helper()
	spec := grid.BrickSpec{NX: 2, NY: 2, NZ: 1, Ghost: 1}
	man, err := vtkio.BuildManifest(ds.Grid, spec, ds.FieldNames())
	if err != nil {
		t.Fatal(err)
	}
	bricks, err := man.GridBricks()
	if err != nil {
		t.Fatal(err)
	}
	stepDir := filepath.Join(dir, prefix, step)
	if err := os.MkdirAll(stepDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, b := range bricks {
		sub, err := grid.ExtractBrick(ds, b)
		if err != nil {
			t.Fatal(err)
		}
		if err := vtkio.WriteFile(filepath.Join(stepDir, vtkio.BrickKey(b.ID)), sub,
			vtkio.WriteOptions{Codec: codec, Checksum: true}); err != nil {
			t.Fatal(err)
		}
	}
	data, err := vtkio.EncodeManifest(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, prefix, "manifest.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// serve starts an in-process NDP server over dir and returns its address.
func serve(t *testing.T, dir string) string {
	t.Helper()
	srv := core.NewServer(os.DirFS(dir))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	return ln.Addr().String()
}

// TestModesWriteIdenticalOBJ runs the command line's three contour
// paths on one asteroid step stored raw and as lz4 — baseline over a
// directory, ndp against a server, and gathered with -replicas -manifest
// over two servers of a bricked copy — and holds every OBJ export to the
// first one, byte for byte.
func TestModesWriteIdenticalOBJ(t *testing.T) {
	ds, err := sim.AsteroidConfig{N: 20, Seed: 1}.Generate(sim.AsteroidMaxStep / 2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, codec := range []compress.Kind{compress.None, compress.LZ4} {
		prefix := filepath.Join("asteroid", codec.String())
		if err := os.MkdirAll(filepath.Join(dir, prefix), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := vtkio.WriteFile(filepath.Join(dir, prefix, "ts.vnd"), ds,
			vtkio.WriteOptions{Codec: codec, Checksum: true}); err != nil {
			t.Fatal(err)
		}
		writeBricked(t, dir, prefix, "ts", ds, codec)
	}
	ndp := serve(t, dir)
	replicas := serve(t, dir) + "," + serve(t, dir)

	var want []byte
	for _, codec := range []compress.Kind{compress.None, compress.LZ4} {
		prefix := "asteroid/" + codec.String() + "/"
		for _, mode := range []struct {
			name string
			args []string
		}{
			{"baseline", []string{"-mode", "baseline", "-dir", dir, "-path", prefix + "ts.vnd"}},
			{"ndp", []string{"-mode", "ndp", "-ndp", ndp, "-path", prefix + "ts.vnd"}},
			{"gather", []string{"-mode", "ndp", "-replicas", replicas, "-manifest", prefix + "manifest.json", "-path", prefix + "ts"}},
		} {
			obj := filepath.Join(t.TempDir(), "out.obj")
			args := append(mode.args, "-arrays", "v02,v03", "-iso", "0.5", "-obj", obj)
			out, err := captureStdout(t, func() error { return run(args) })
			if err != nil {
				t.Fatalf("%v %s: %v\n%s", codec, mode.name, err, out)
			}
			got, err := os.ReadFile(obj)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case want == nil && !bytes.Contains(got, []byte("\nf ")):
				t.Fatalf("%v %s: OBJ has no faces:\n%.200s", codec, mode.name, got)
			case want == nil:
				want = got
			case !bytes.Equal(got, want):
				t.Errorf("%v %s: OBJ differs from %v baseline's (%d vs %d bytes)",
					codec, mode.name, compress.None, len(got), len(want))
			}
		}
	}
}

// writeAsteroidStep writes the middle step of a 20³ asteroid run to
// dir/name and returns it.
func writeAsteroidStep(t *testing.T, dir, name string, codec compress.Kind) *grid.Dataset {
	t.Helper()
	ds, err := sim.AsteroidConfig{N: 20, Seed: 1}.Generate(sim.AsteroidMaxStep / 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, name)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := vtkio.WriteFile(filepath.Join(dir, name), ds,
		vtkio.WriteOptions{Codec: codec, Checksum: true}); err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestModesKeepIdenticalThresholdCells is TestModesWriteIdenticalOBJ
// for the threshold: baseline over a directory, ndp against a server,
// and ndp through the fault-tolerant client must each print one
// non-zero "N cells in [lo, hi]" line per array, the same lines in
// every mode and codec.
func TestModesKeepIdenticalThresholdCells(t *testing.T) {
	dir := t.TempDir()
	for _, codec := range []compress.Kind{compress.None, compress.LZ4} {
		writeAsteroidStep(t, dir, "asteroid/"+codec.String()+"/ts.vnd", codec)
	}
	ndp := serve(t, dir)
	lo, hi := "0.1", "0.5"
	cellLine := regexp.MustCompile(`(?m)^array (\S+): ([0-9]+) cells in \[` +
		regexp.QuoteMeta(lo+", "+hi) + `\]$`)

	var want []string
	for _, codec := range []compress.Kind{compress.None, compress.LZ4} {
		key := "asteroid/" + codec.String() + "/ts.vnd"
		for _, mode := range []struct {
			name string
			args []string
		}{
			{"baseline", []string{"-mode", "baseline", "-dir", dir}},
			{"ndp", []string{"-mode", "ndp", "-ndp", ndp}},
			{"ndp -retries 3", []string{"-mode", "ndp", "-ndp", ndp, "-retries", "3"}},
		} {
			args := append(mode.args, "-path", key, "-filter", "threshold",
				"-arrays", "v02,v03", "-lo", lo, "-hi", hi)
			out, err := captureStdout(t, func() error { return run(args) })
			if err != nil {
				t.Fatalf("%v %s: %v\n%s", codec, mode.name, err, out)
			}
			var got []string
			for _, m := range cellLine.FindAllStringSubmatch(out, -1) {
				if m[2] == "0" {
					t.Errorf("%v %s: array %s kept no cells", codec, mode.name, m[1])
				}
				got = append(got, m[0])
			}
			switch {
			case len(got) != 2:
				t.Fatalf("%v %s: %d cell lines, want one per array:\n%s", codec, mode.name, len(got), out)
			case want == nil:
				want = got
			case !slices.Equal(got, want):
				t.Errorf("%v %s: cell lines %q, want %v baseline's %q", codec, mode.name, got, compress.None, want)
			}
		}
	}
}

// TestSweepReportsEachPair runs -sweep twice against a server: the
// report must give one line per (array, isovalue) pair, each with the
// points a local pre-filter at that isovalue alone selects.
func TestSweepReportsEachPair(t *testing.T) {
	dir := t.TempDir()
	ds := writeAsteroidStep(t, dir, "ts.vnd", compress.LZ4)
	out, err := captureStdout(t, func() error {
		return run([]string{"-mode", "ndp", "-ndp", serve(t, dir), "-path", "ts.vnd",
			"-sweep", "-repeats", "2", "-arrays", "v02,v03", "-iso", "0.1,0.5"})
	})
	if err != nil {
		t.Fatalf("vizpipe -sweep: %v\n%s", err, out)
	}
	if n := strings.Count(out, ": data load time "); n != 2 {
		t.Errorf("%d run lines, want 2:\n%s", n, out)
	}
	pointLine := regexp.MustCompile(`(?m)^array (\S+) iso (\S+): ([0-9]+) points$`)
	lines := pointLine.FindAllStringSubmatch(out, -1)
	var pairs []string
	for _, m := range lines {
		pairs = append(pairs, m[1]+" "+m[2])
		iso, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		pre := core.PreFilter{Isovalues: []float64{iso}}
		p, _, err := pre.Run(ds.Grid, ds.Field(m[1]))
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := strconv.Atoi(m[3]); got != p.Count || got == 0 {
			t.Errorf("array %s iso %s: %d points, want %d (non-zero)", m[1], m[2], got, p.Count)
		}
	}
	if want := []string{"v02 0.1", "v02 0.5", "v03 0.1", "v03 0.5"}; !slices.Equal(pairs, want) {
		t.Errorf("point lines for %q, want one each for %q:\n%s", pairs, want, out)
	}
}

// TestVerboseReportsTraceAndDeltas runs one ndp contour with -v against
// an in-process server: the report must show the run's trace, the
// client's fetch over the server's remote span and its read and
// prefilter stages, and the metric deltas the run caused.
func TestVerboseReportsTraceAndDeltas(t *testing.T) {
	dir := t.TempDir()
	writeAsteroidStep(t, dir, "ts.vnd", compress.LZ4)
	out, err := captureStdout(t, func() error {
		return run([]string{"-mode", "ndp", "-ndp", serve(t, dir), "-path", "ts.vnd",
			"-arrays", "v02", "-iso", "0.5", "-v"})
	})
	if err != nil {
		t.Fatalf("vizpipe -v: %v\n%s", err, out)
	}
	_, trace, ok := strings.Cut(out, "\ntrace for run 1:\n")
	if !ok {
		t.Fatalf("no \"trace for run 1:\" in:\n%s", out)
	}
	trace, deltas, ok := strings.Cut(trace, "\nmetric deltas:\n")
	if !ok {
		t.Fatalf("no \"metric deltas:\" block after the trace in:\n%s", out)
	}

	// The tree: each span a line, children indented below their parent.
	type span struct {
		depth int
		text  string
	}
	var spans []span
	for _, l := range strings.Split(strings.TrimSpace(trace), "\n") {
		body := strings.TrimLeft(l, " ")
		spans = append(spans, span{len(l) - len(body), body})
	}
	call := slices.IndexFunc(spans, func(s span) bool { return strings.HasPrefix(s.text, "call ndp.fetch ") })
	if call < 0 || call+1 == len(spans) {
		t.Fatalf("no call ndp.fetch span with a child in the trace:\n%s", trace)
	}
	serve := spans[call+1]
	if !strings.HasPrefix(serve.text, "serve ndp.fetch ") || !strings.HasSuffix(serve.text, "[remote]") ||
		serve.depth <= spans[call].depth {
		t.Fatalf("call ndp.fetch's child is %q, want serve ndp.fetch ... [remote] below it:\n%s", serve.text, trace)
	}
	children := map[string]bool{}
	for _, s := range spans[call+2:] {
		if s.depth <= serve.depth {
			break
		}
		children[strings.Fields(s.text)[0]] = true
	}
	for _, stage := range []string{"read", "prefilter"} {
		if !children[stage] {
			t.Errorf("serve ndp.fetch has no %s child:\n%s", stage, trace)
		}
	}

	calls := regexp.MustCompile(`(?m)^  rpc\.client\.calls \+([0-9]+)$`).FindStringSubmatch(deltas)
	if calls == nil || calls[1] == "0" {
		t.Errorf("metric deltas lack rpc.client.calls +N:\n%s", deltas)
	}
}

// TestSLOPrintsBurnRates runs one ndp contour under -slo and reads the
// summary it prints last: the header, then an ndp.fetch row that counts
// the run's fetch and gives its four burn rates.
func TestSLOPrintsBurnRates(t *testing.T) {
	dir := t.TempDir()
	writeAsteroidStep(t, dir, "ts.vnd", compress.LZ4)
	rec := telemetry.DefaultFlightRecorder()
	t.Cleanup(func() { rec.SetSLO(nil) })
	out, err := captureStdout(t, func() error {
		return run([]string{"-mode", "ndp", "-ndp", serve(t, dir), "-path", "ts.vnd",
			"-arrays", "v02", "-iso", "0.5", "-slo", "ndp.fetch=50ms@99/99.9"})
	})
	if err != nil {
		t.Fatalf("vizpipe -slo: %v\n%s", err, out)
	}
	if !regexp.MustCompile(`(?m)^method +total +breach +availFast +availSlow +latFast +latSlow$`).MatchString(out) {
		t.Fatalf("no burn-rate header in:\n%s", out)
	}
	row := regexp.MustCompile(`(?m)^ndp\.fetch +([0-9]+) +[0-9]+(?: +[0-9]+\.[0-9]{2}){4}$`).FindStringSubmatch(out)
	if row == nil {
		t.Fatalf("no ndp.fetch row with four burn rates in:\n%s", out)
	}
	if row[1] == "0" {
		t.Errorf("the ndp.fetch row counts no fetch:\n%s", out)
	}
}

// TestSLORestoresPreviousMonitor holds run to the process-wide
// recorder it borrows: after a -slo run, the monitor attached before it
// is attached again, so a later run in the process scores nothing into
// this one's.
func TestSLORestoresPreviousMonitor(t *testing.T) {
	dir := t.TempDir()
	writeAsteroidStep(t, dir, "ts.vnd", compress.None)
	rec := telemetry.DefaultFlightRecorder()
	before := telemetry.NewSLOMonitor(telemetry.KindClient)
	rec.SetSLO(before)
	t.Cleanup(func() { rec.SetSLO(nil) })
	out, err := captureStdout(t, func() error {
		return run([]string{"-dir", dir, "-path", "ts.vnd", "-arrays", "v02", "-iso", "0.5",
			"-slo", "ndp.fetch=50ms@99"})
	})
	if err != nil {
		t.Fatalf("vizpipe -slo: %v\n%s", err, out)
	}
	if got := rec.SLO(); got != before {
		t.Errorf("after run the recorder's monitor is %p, want the one attached before it, %p", got, before)
	}
}
