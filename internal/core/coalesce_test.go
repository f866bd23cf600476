package core

import (
	"bytes"
	"context"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"vizndp/internal/compress"
	"vizndp/internal/grid"
	"vizndp/internal/vtkio"
)

// startNDPOpts is startNDP with server options.
func startNDPOpts(t *testing.T, opts ...ServerOption) (*Client, *grid.Dataset) {
	t.Helper()
	g, f := sphereField(24)
	ds := grid.NewDataset(g)
	ds.MustAddField(f)

	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "run"), 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "run", "ts0.vnd")
	if err := vtkio.WriteFile(path, ds, vtkio.WriteOptions{Codec: compress.None}); err != nil {
		t.Fatal(err)
	}

	srv := NewServer(os.DirFS(dir), opts...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	client, err := Dial(ln.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		client.Close()
		srv.Close()
	})
	return client, ds
}

// localPayload computes the uncoalesced ground-truth payload bytes.
func localPayload(t *testing.T, ds *grid.Dataset, isos []float64, enc Encoding) []byte {
	t.Helper()
	pre := &PreFilter{Isovalues: isos, Encoding: enc}
	p, _, err := pre.Run(ds.Grid, ds.Field("d"))
	if err != nil {
		t.Fatal(err)
	}
	return p.Data
}

func TestCoalesceBatchSharesScan(t *testing.T) {
	// A long batch window makes the test deterministic: whichever request
	// arrives first leads and lingers; the other must join its batch.
	client, ds := startNDPOpts(t,
		WithCoalesce(200*time.Millisecond),
		WithCacheBytes(16<<20),
		WithPayloadCacheBytes(16<<20))

	requests0 := mScanRequests.Value()
	passes0 := mScanPasses.Value()
	batches0 := mScanBatches.Value()
	shared0 := mScanShared.Value()

	isosA, isosB := []float64{7}, []float64{9}
	var wg sync.WaitGroup
	var payloadA, payloadB *Payload
	var errA, errB error
	wg.Add(2)
	go func() {
		defer wg.Done()
		payloadA, _, errA = client.FetchFiltered("run/ts0.vnd", "d", isosA, EncAuto)
	}()
	go func() {
		defer wg.Done()
		payloadB, _, errB = client.FetchFiltered("run/ts0.vnd", "d", isosB, EncAuto)
	}()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatalf("fetch errors: %v, %v", errA, errB)
	}

	if d := mScanRequests.Value() - requests0; d != 2 {
		t.Errorf("requests delta = %d, want 2", d)
	}
	if d := mScanBatches.Value() - batches0; d != 1 {
		t.Errorf("batches delta = %d, want 1 (requests did not coalesce)", d)
	}
	if d := mScanShared.Value() - shared0; d != 1 {
		t.Errorf("coalesced delta = %d, want 1", d)
	}
	if d := mScanPasses.Value() - passes0; d != 2 {
		t.Errorf("passes delta = %d, want 2 (one per unique isovalue)", d)
	}

	// The split payloads must match dedicated uncoalesced runs bit for bit.
	if !bytes.Equal(payloadA.Data, localPayload(t, ds, isosA, EncAuto)) {
		t.Error("coalesced payload for iso 7 differs from dedicated run")
	}
	if !bytes.Equal(payloadB.Data, localPayload(t, ds, isosB, EncAuto)) {
		t.Error("coalesced payload for iso 9 differs from dedicated run")
	}

	// Identical repeats are now payload-cache hits: no further scan passes,
	// same bytes.
	hits0 := payloadMetrics.Hits.Value()
	passes1 := mScanPasses.Value()
	rep, _, err := client.FetchFiltered("run/ts0.vnd", "d", isosA, EncAuto)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rep.Data, payloadA.Data) {
		t.Error("cached payload differs from original")
	}
	if d := payloadMetrics.Hits.Value() - hits0; d != 1 {
		t.Errorf("payload cache hits delta = %d, want 1", d)
	}
	if d := mScanPasses.Value() - passes1; d != 0 {
		t.Errorf("cache hit ran %d scan passes", d)
	}
}

func TestCoalesceConcurrentBitIdentical(t *testing.T) {
	// The -race bit-identity gate: many concurrent callers, same array,
	// different isovalues, no payload cache so every round really scans.
	client, ds := startNDPOpts(t, WithCoalesce(time.Millisecond), WithCacheBytes(16<<20))

	isos := [][]float64{{6}, {7}, {8}, {9}, {7, 9}}
	want := make([][]byte, len(isos))
	for i := range isos {
		want[i] = localPayload(t, ds, isos[i], EncAuto)
	}

	const workers = 8
	const rounds = 5
	errs := make(chan error, workers*rounds)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (w + r) % len(isos)
				p, _, err := client.FetchFiltered("run/ts0.vnd", "d", isos[i], EncAuto)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(p.Data, want[i]) {
					t.Errorf("worker %d round %d: payload differs from dedicated run", w, r)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestCoalesceEmptyIsovaluesRejected(t *testing.T) {
	client, _ := startNDPOpts(t, WithCoalesce(time.Millisecond))
	if _, _, err := client.FetchFiltered("run/ts0.vnd", "d", nil, EncAuto); err == nil {
		t.Error("empty isovalues accepted on the coalesced path")
	}
}

func TestCoalesceMissingPathRejected(t *testing.T) {
	client, _ := startNDPOpts(t, WithCoalesce(time.Millisecond), WithPayloadCacheBytes(1<<20))
	if _, _, err := client.FetchFiltered("run/ghost.vnd", "d", []float64{1}, EncAuto); err == nil {
		t.Error("missing path accepted on the coalesced path")
	}
}

// TestCoalesceAbortAllCancelled is the regression test for the empty-room
// scan: runBatch deliberately detaches from the leader's cancellation so
// followers aren't stranded, but when every member has cancelled before
// the member set freezes, the batch must abort instead of running the
// full scan for nobody. Before the fix the scan ran to completion under
// the cancellation-stripped context and counted as a normal batch.
func TestCoalesceAbortAllCancelled(t *testing.T) {
	g, f := sphereField(24)
	ds := grid.NewDataset(g)
	ds.MustAddField(f)
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "run"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := vtkio.WriteFile(filepath.Join(dir, "run", "ts0.vnd"), ds, vtkio.WriteOptions{Codec: compress.None}); err != nil {
		t.Fatal(err)
	}
	// A long window gives the test time to line up members and cancel
	// them all while the leader lingers.
	srv := NewServer(os.DirFS(dir), WithCoalesce(300*time.Millisecond))
	t.Cleanup(func() { srv.Close() })

	aborted0 := mScanAborted.Value()
	batches0 := mScanBatches.Value()
	passes0 := mScanPasses.Value()

	ctxA, cancelA := context.WithCancel(context.Background())
	ctxB, cancelB := context.WithCancel(context.Background())
	defer cancelA()
	defer cancelB()

	var wg sync.WaitGroup
	var errA, errB error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, errA = srv.serveFetch(ctxA, []any{"run/ts0.vnd", "d", []any{7.0}, "indexvalue"}, contourSelector)
	}()
	// Wait for the leader's batch to register, then join as a follower.
	waitFor(t, func() bool {
		srv.batchMu.Lock()
		defer srv.batchMu.Unlock()
		return len(srv.batches) == 1
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, errB = srv.serveFetch(ctxB, []any{"run/ts0.vnd", "d", []any{9.0}, "indexvalue"}, contourSelector)
	}()
	waitFor(t, func() bool {
		srv.batchMu.Lock()
		defer srv.batchMu.Unlock()
		for _, b := range srv.batches {
			if len(b.members) == 2 {
				return true
			}
		}
		return false
	})
	// Every member bails while the leader is still inside the window.
	cancelA()
	cancelB()
	wg.Wait()

	if errA == nil || errB == nil {
		t.Fatalf("cancelled members returned nil errors: %v / %v", errA, errB)
	}
	if got := mScanAborted.Value() - aborted0; got != 1 {
		t.Errorf("core.scan.batches_aborted rose by %d, want 1", got)
	}
	if got := mScanBatches.Value() - batches0; got != 0 {
		t.Errorf("core.scan.batches rose by %d, want 0 (batch must abort)", got)
	}
	if got := mScanPasses.Value() - passes0; got != 0 {
		t.Errorf("core.scan.passes rose by %d, want 0 (no scan for an empty room)", got)
	}
}

// waitFor polls cond for up to ~2s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}
