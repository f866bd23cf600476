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
		name             string
		ndp, replicas    string
		shards, manifest string
		retries          int
		args             []string
		wantIn           string // for rows with args: the flag the error names
		wantErr          bool
	}{
		{name: "-retries 1 dials eagerly", ndp: a, retries: 1, wantErr: true},
		{name: "-retries 3 dials lazily", ndp: a, retries: 3},
		{name: "-replicas a,b dials lazily even at -retries 1", replicas: a + "," + b, retries: 1},
		{name: "-replicas a,,b drops the empty entry", replicas: a + ",, " + b, retries: 1},
		{name: "-replicas of nothing but commas", replicas: " , ", retries: 3, wantErr: true},
		{name: "-shards without -manifest", shards: a + "," + b, retries: 1, wantErr: true},
		{name: "-shards of nothing but commas", shards: ",", manifest: "m.json", retries: 1, wantErr: true},
		{name: "-repeats 0 contour", args: []string{"-dir", t.TempDir(), "-path", "ts0.vnd", "-repeats", "0"}, wantIn: "-repeats", wantErr: true},
		{name: "-repeats 0 threshold", args: []string{"-dir", t.TempDir(), "-path", "ts0.vnd", "-filter", "threshold", "-repeats", "0"}, wantIn: "-repeats", wantErr: true},
		{name: "-repeats -1 sweep", args: []string{"-mode", "ndp", "-ndp", a, "-retries", "3", "-path", "ts0.vnd", "-sweep", "-repeats", "-1"}, wantIn: "-repeats", wantErr: true},
		{name: "-shards in baseline mode", args: []string{"-dir", t.TempDir(), "-path", "ts0.vnd", "-shards", a}, wantIn: "-shards", wantErr: true},
		{name: "-manifest in baseline mode", args: []string{"-dir", t.TempDir(), "-path", "ts0.vnd", "-manifest", "m.json"}, wantIn: "-manifest", wantErr: true},
		{name: "-shards with the threshold", args: []string{"-mode", "ndp", "-ndp", a, "-path", "ts0.vnd", "-filter", "threshold", "-shards", b}, wantIn: "-shards", wantErr: true},
		{name: "-shards with -sweep", args: []string{"-mode", "ndp", "-ndp", a, "-path", "ts0.vnd", "-sweep", "-shards", b}, wantIn: "-shards", wantErr: true},
		{name: "-manifest without -shards", args: []string{"-mode", "ndp", "-ndp", a, "-retries", "3", "-path", "ts0.vnd", "-manifest", "m.json"}, wantIn: "-manifest", wantErr: true},
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
		} else if tc.shards != "" {
			var sc *core.ShardedClient
			if sc, err = dialSharded(tc.shards, tc.manifest, tc.retries); err == nil {
				sc.Close()
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

// TestShardsOverUnpinnedManifest runs the whole -shards command line
// in-process against two core.Servers over one bricked dataset whose
// manifest pins no brick to a shard (datagen's default, -shards 0):
// every brick is placed by ID mod shard count, fetched, and merged.
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
		return run([]string{"-mode", "ndp", "-shards", addrs[0] + "," + addrs[1],
			"-manifest", "run/manifest.json", "-path", "run/ts0", "-arrays", "d", "-iso", "5"})
	})
	if err != nil {
		t.Fatalf("vizpipe -shards: %v\n%s", err, out)
	}
	if want := "array d: 4 bricks"; !strings.Contains(out, want) {
		t.Errorf("output lacks %q:\n%s", want, out)
	}
}

// writeBricked writes ds as datagen -bricks 2x2x1 -ghost 1 does: one
// object per brick under <prefix>/<step>/ and a manifest at
// <prefix>/manifest.json that pins no brick to a shard.
func writeBricked(t *testing.T, dir, prefix, step string, ds *grid.Dataset, codec compress.Kind) {
	t.Helper()
	spec := grid.BrickSpec{NX: 2, NY: 2, NZ: 1, Ghost: 1}
	man, err := vtkio.BuildManifest(ds.Grid, spec, ds.FieldNames(), 0)
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
// directory, ndp against a server, -shards over a bricked copy — and
// holds every OBJ export to the first one, byte for byte.
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
	shards := serve(t, dir) + "," + serve(t, dir)

	var want []byte
	for _, codec := range []compress.Kind{compress.None, compress.LZ4} {
		prefix := "asteroid/" + codec.String() + "/"
		for _, mode := range []struct {
			name string
			args []string
		}{
			{"baseline", []string{"-mode", "baseline", "-dir", dir, "-path", prefix + "ts.vnd"}},
			{"ndp", []string{"-mode", "ndp", "-ndp", ndp, "-path", prefix + "ts.vnd"}},
			{"shards", []string{"-mode", "ndp", "-shards", shards, "-manifest", prefix + "manifest.json", "-path", prefix + "ts"}},
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
