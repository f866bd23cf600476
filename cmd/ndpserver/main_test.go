package main

import (
	"bufio"
	"bytes"
	"context"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"vizndp/internal/compress"
	"vizndp/internal/contour"
	"vizndp/internal/core"
	"vizndp/internal/grid"
	"vizndp/internal/vtkio"
)

// TestServeFourFetchKindsAndDrain is the binary's smoke test: build it,
// start it over a directory with both caches on, perform
// one fetch of each kind through core.Dial, and check that SIGTERM
// drains it to a clean exit.
func TestServeFourFetchKindsAndDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the ndpserver binary")
	}
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

	bin := filepath.Join(t.TempDir(), "ndpserver")
	if msg, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building ndpserver: %v\n%s", err, msg)
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-dir", dir,
		"-cache-bytes", "1048576", "-payload-cache-bytes", "1048576")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	t.Cleanup(func() {
		cmd.Process.Kill() // no-op after a clean exit
		if t.Failed() {
			t.Logf("ndpserver stderr:\n%s", stderr.String())
		}
	})

	// The banner names the bound address; stdout closes when the process
	// exits, which ends the scanner and lets Wait collect the status.
	const banner = "NDP pre-filter service on "
	addrs := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), banner); ok {
				addrs <- strings.Fields(rest)[0]
			}
		}
		exited <- cmd.Wait()
	}()
	var addr string
	select {
	case addr = <-addrs:
	case err := <-exited:
		t.Fatalf("ndpserver exited before serving: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("ndpserver printed no banner")
	}

	client, err := core.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	want, _, err := (&core.PreFilter{Isovalues: []float64{7}}).Run(g, f)
	if err != nil {
		t.Fatal(err)
	}
	if p, _, err := client.FetchFilteredContext(context.Background(), "ts0.vnd", "d", []float64{7}, core.EncAuto); err != nil || !bytes.Equal(p.Data, want.Data) {
		t.Errorf("contour fetch: err %v, bytes match %v", err, err == nil && bytes.Equal(p.Data, want.Data))
	}
	if p, _, err := client.FetchRangeContext(context.Background(), "ts0.vnd", "d", 3, 9, core.EncAuto); err != nil || p.Count == 0 {
		t.Errorf("range fetch: %v, %+v", err, p)
	}
	if _, vals, _, err := client.FetchSliceContext(context.Background(), "ts0.vnd", "d", contour.AxisZ, 4); err != nil || len(vals) != 144 {
		t.Errorf("slice fetch: %v, %d values", err, len(vals))
	}
	if raw, _, err := client.FetchRawContext(context.Background(), "ts0.vnd", "d"); err != nil || !bytes.Equal(raw, vtkio.FloatsToBytes(f.Values)) {
		t.Errorf("raw fetch: err %v, %d bytes", err, len(raw))
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		if err != nil {
			t.Errorf("ndpserver did not exit cleanly on SIGTERM: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Error("ndpserver still running 10s after SIGTERM")
	}
}
