package harness

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"vizndp/internal/compress"
	"vizndp/internal/core"
	"vizndp/internal/rpc"
	"vizndp/internal/s3fs"
	"vizndp/internal/stats"
	"vizndp/internal/telemetry"
)

// OverloadExperiment throws a burst of concurrent contour fetches at
// deliberately undersized NDP servers and checks the overload-protection
// machinery end to end:
//
//  1. clean — a sequential sweep over an unbounded server; its payloads
//     are the ground truth;
//  2. unbounded — the full burst against that server with no admission
//     control, the latency baseline;
//  3. shed+failover — the burst through a two-replica pool whose
//     replicas each admit only a few requests (the rest are shed with
//     the retryable busy error), with one replica killed a third of the
//     way in: every shed request must be retried to success, the dead
//     replica's breaker must trip, and every payload must stay
//     bit-identical;
//  4. drain — the burst against a pool whose primary is gracefully
//     Shutdown mid-burst: accepted requests finish, later ones land on
//     the surviving replica, and the drain itself must report clean.
//
// The experiment hard-errors if any fetch fails, any payload differs,
// no request was shed, no breaker tripped, no failover happened, or the
// drain lost an accepted request — so a passing table is a real claim.
func (e *Env) OverloadExperiment(array string) (*stats.Table, error) {
	const dataset = "asteroid"
	const concurrency = 16
	const minBurst = 48
	codec := compress.None

	type fetchID struct {
		step int
		iso  float64
	}
	var uniq []fetchID
	for _, step := range e.steps {
		for _, iso := range e.Cfg.ContourValues {
			uniq = append(uniq, fetchID{step, iso})
		}
	}
	// Repeat the unique sweep until the burst is large enough to
	// saturate an undersized server even in -quick configurations.
	var burst []fetchID
	for len(burst) < minBurst {
		burst = append(burst, uniq...)
	}

	shed := telemetry.Default().Counter("rpc.server.shed")
	failovers := telemetry.Default().Counter("core.pool.failovers")
	trips := telemetry.Default().Counter("core.pool.breaker.open")

	// startReplica launches a dedicated core server over the node-local
	// store; bound replicas admit only maxInFlight+queue requests.
	startReplica := func(opts ...core.ServerOption) (*core.Server, string, error) {
		srv := core.NewServer(s3fs.New(e.local, Bucket), opts...)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, "", err
		}
		go srv.Serve(ln)
		return srv, ln.Addr().String(), nil
	}
	bounded := []core.ServerOption{core.WithMaxInFlight(2), core.WithQueue(2)}

	fetchOne := func(c *core.Client, id fetchID) (string, error) {
		key := ObjectKey(dataset, codec, id.step)
		p, _, err := c.FetchFiltered(key, array, []float64{id.iso}, e.Cfg.Encoding)
		if err != nil {
			return "", fmt.Errorf("harness: step %d iso %g: %w", id.step, id.iso, err)
		}
		return string(p.Data), nil
	}

	// runBurst drives the burst with `concurrency` workers, verifies
	// every payload against want, and fires hook (once) after hookAfter
	// fetches have completed. Returns per-fetch latencies in ms.
	runBurst := func(c *core.Client, want map[fetchID]string, hookAfter int, hook func()) ([]float64, error) {
		var next, done atomic.Int64
		var hookOnce sync.Once
		lats := make([]float64, len(burst))
		errs := make(chan error, concurrency)
		var wg sync.WaitGroup
		for w := 0; w < concurrency; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(burst) {
						return
					}
					id := burst[i]
					start := time.Now()
					got, err := fetchOne(c, id)
					if err != nil {
						errs <- err
						return
					}
					lats[i] = float64(time.Since(start)) / float64(time.Millisecond)
					if got != want[id] {
						errs <- fmt.Errorf("harness: payload differs at step %d iso %g", id.step, id.iso)
						return
					}
					if hook != nil && int(done.Add(1)) >= hookAfter {
						hookOnce.Do(hook)
					}
				}
			}()
		}
		wg.Wait()
		select {
		case err := <-errs:
			return nil, err
		default:
		}
		return lats, nil
	}
	pcts := func(lats []float64) (string, string) {
		return fmt.Sprintf("%.1fms", stats.Percentile(lats, 0.50)),
			fmt.Sprintf("%.1fms", stats.Percentile(lats, 0.99))
	}
	poolOpts := PoolOverloadOptions()

	// Run 1: sequential ground truth on an unbounded server.
	truthSrv, truthAddr, err := startReplica()
	if err != nil {
		return nil, err
	}
	defer truthSrv.Close()
	clean, err := core.Dial(truthAddr, nil)
	if err != nil {
		return nil, err
	}
	want := make(map[fetchID]string, len(uniq))
	cleanStart := time.Now()
	for _, id := range uniq {
		p, err := fetchOne(clean, id)
		if err != nil {
			clean.Close()
			return nil, err
		}
		want[id] = p
	}
	cleanTime := time.Since(cleanStart)

	// Run 2: the burst with no admission control, as the baseline.
	baseLats, err := runBurst(clean, want, 0, nil)
	clean.Close()
	if err != nil {
		return nil, err
	}

	// Run 3: undersized two-replica pool, one replica killed a third of
	// the way through the burst.
	srvA, addrA, err := startReplica(bounded...)
	if err != nil {
		return nil, err
	}
	defer srvA.Close()
	srvB, addrB, err := startReplica(bounded...)
	if err != nil {
		return nil, err
	}
	defer srvB.Close()
	s0, f0, t0 := shed.Value(), failovers.Value(), trips.Value()
	poolClient := core.DialFaultTolerant([]string{addrA, addrB}, nil, poolOpts)
	shedLats, err := runBurst(poolClient, want, len(burst)/3, func() { srvB.Close() })
	poolClient.Close()
	if err != nil {
		return nil, err
	}
	shedN, failN, tripN := shed.Value()-s0, failovers.Value()-f0, trips.Value()-t0
	if shedN == 0 {
		return nil, fmt.Errorf("harness: undersized servers shed no requests (burst %d, concurrency %d)",
			len(burst), concurrency)
	}
	if failN == 0 || tripN == 0 {
		return nil, fmt.Errorf("harness: killed replica caused no failover (failovers=%d, trips=%d)",
			failN, tripN)
	}

	// Run 4: gracefully drain the primary mid-burst. The drain must
	// finish clean — zero accepted requests lost — while the burst
	// completes on the survivor.
	srvC, addrC, err := startReplica(bounded...)
	if err != nil {
		return nil, err
	}
	defer srvC.Close()
	drainErr := make(chan error, 1)
	drainClient := core.DialFaultTolerant([]string{addrC, addrA}, nil, poolOpts)
	s0 = shed.Value()
	drainLats, err := runBurst(drainClient, want, len(burst)/3, func() {
		// vizlint:ignore goroleak drainErr is buffered (cap 1) and received exactly once after the burst
		go func() {
			// vizlint:ignore ctxflow drain root: shutdown must finish even though the burst ctx is gone; bounded by its own 30s timeout
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			drainErr <- srvC.Shutdown(ctx)
		}()
	})
	drainClient.Close()
	if err != nil {
		return nil, err
	}
	if err := <-drainErr; err != nil {
		return nil, fmt.Errorf("harness: graceful drain lost in-flight work: %w", err)
	}
	drainShed := shed.Value() - s0

	basep50, basep99 := pcts(baseLats)
	shedp50, shedp99 := pcts(shedLats)
	drainp50, drainp99 := pcts(drainLats)
	t := stats.NewTable(
		fmt.Sprintf("Overload: %d-deep burst, %d workers, replicas bounded to 2 in flight + 2 queued (%s)",
			len(burst), concurrency, array),
		"run", "fetches", "p50", "p99", "shed", "failovers", "breaker trips", "identical")
	t.AddRow("clean sweep", fmt.Sprintf("%d", len(uniq)),
		stats.FormatDuration(cleanTime/time.Duration(len(uniq))), "", "0", "", "", "ground truth")
	t.AddRow("unbounded burst", fmt.Sprintf("%d", len(burst)), basep50, basep99, "0", "", "", "yes")
	t.AddRow("shed+failover", fmt.Sprintf("%d", len(burst)), shedp50, shedp99,
		fmt.Sprintf("%d", shedN), fmt.Sprintf("%d", failN), fmt.Sprintf("%d", tripN), "yes")
	t.AddRow("graceful drain", fmt.Sprintf("%d", len(burst)), drainp50, drainp99,
		fmt.Sprintf("%d", drainShed), "", "", "yes")
	return t, nil
}

// PoolOverloadOptions is the replica-set tuning the overload experiment
// uses: aggressive retries with tight backoff so shed requests recover
// quickly, and a fast breaker so a dead replica is benched immediately.
func PoolOverloadOptions() rpc.ReconnectOptions {
	return rpc.ReconnectOptions{
		MaxAttempts:      256,
		InitialBackoff:   time.Millisecond,
		MaxBackoff:       50 * time.Millisecond,
		CallTimeout:      10 * time.Second,
		Seed:             11,
		BreakerThreshold: 2,
		BreakerCooldown:  75 * time.Millisecond,
	}
}
