package main

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vizndp/internal/objstore"
)

// build compiles the objstored binary once per test.
func build(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the objstored binary")
	}
	bin := filepath.Join(t.TempDir(), "objstored")
	if msg, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building objstored: %v\n%s", err, msg)
	}
	return bin
}

// TestServePutGetAndInterrupt is the binary's smoke test: start it over
// an empty directory on an ephemeral port, round-trip one object through
// the client, and check that an interrupt shuts it down cleanly.
func TestServePutGetAndInterrupt(t *testing.T) {
	cmd := exec.Command(build(t), "-addr", "127.0.0.1:0", "-root", t.TempDir())
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill() // no-op after a clean exit
		if t.Failed() {
			t.Logf("objstored stderr:\n%s", stderr.String())
		}
	})

	// The banner's last field is the bound address; stdout closes when
	// the process exits, which ends the scanner and lets Wait collect the
	// status.
	addrs := make(chan string, 1)
	exited := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if f := strings.Fields(sc.Text()); len(f) > 2 && f[0] == "serving" {
				addrs <- f[len(f)-1]
			}
		}
		exited <- cmd.Wait()
	}()
	var addr string
	select {
	case addr = <-addrs:
	case err := <-exited:
		t.Fatalf("objstored exited before serving: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("objstored printed no banner")
	}

	client := objstore.NewClient(addr, nil)
	want := []byte("near-data")
	if err := client.Put("sim", "a/b.vnd", want); err != nil {
		t.Fatal(err)
	}
	if got, err := client.Get("sim", "a/b.vnd"); err != nil || !bytes.Equal(got, want) {
		t.Errorf("Get = %q, %v; want %q", got, err, want)
	}

	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		if err != nil {
			t.Errorf("objstored did not exit cleanly on interrupt: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Error("objstored still running 10s after interrupt")
	}
}

// TestBadFlagsExitNonZero pins flag validation: an unparseable log level
// and an unknown flag both fail before anything is served.
func TestBadFlagsExitNonZero(t *testing.T) {
	bin := build(t)
	for _, args := range [][]string{
		{"-log-level", "loud", "-addr", "127.0.0.1:0", "-root", t.TempDir()},
		{"-no-such-flag"},
	} {
		if out, err := exec.Command(bin, args...).CombinedOutput(); err == nil {
			t.Errorf("objstored %v exited zero:\n%s", args, out)
		}
	}
}
