package harness

import (
	"context"
	"fmt"
	"time"

	"vizndp/internal/core"
	"vizndp/internal/stats"
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
	const concurrency = 16
	const minBurst = 48
	k := e.newKit()
	defer k.close()

	uniq := e.sweepIDs(e.steps)
	ids := repeatTo(uniq, minBurst)
	// Three undersized replicas, each admitting only maxInFlight+queue
	// requests: A and B take run 3, C and A run 4.
	var bounded [3]*node
	for i := range bounded {
		n, err := k.startNode(nil, nil, core.WithMaxInFlight(2), core.WithQueue(2))
		if err != nil {
			return nil, err
		}
		bounded[i] = n
	}
	nodeA, nodeB, nodeC := bounded[0], bounded[1], bounded[2]

	// Run 1: sequential ground truth on an unbounded server.
	truth, _, err := k.groundTruth(array, nil, uniq)
	if err != nil {
		return nil, err
	}

	// Run 2: the burst with no admission control, as the baseline.
	base, err := truth.run(truth.clean, "unbounded burst", burst{ids: ids, workers: concurrency})
	if err != nil {
		return nil, err
	}

	// Run 3: undersized two-replica pool, one replica killed a third of
	// the way through the burst.
	led := openLedger()
	shedRun, err := truth.run(k.dialFT(breakerOptions(), nodeA, nodeB), "shed+failover",
		burst{ids: ids, workers: concurrency, after: len(ids) / 3, hook: nodeB.srv.Close})
	if err != nil {
		return nil, err
	}
	shedN, failN, tripN := led.delta("rpc.server.shed"), led.delta("core.pool.failovers"), led.delta("core.pool.breaker.open")
	if shedN == 0 {
		return nil, fmt.Errorf("harness: undersized servers shed no requests (burst %d, concurrency %d)",
			len(ids), concurrency)
	}
	if failN == 0 || tripN == 0 {
		return nil, fmt.Errorf("harness: killed replica caused no failover (failovers=%d, trips=%d)",
			failN, tripN)
	}

	// Run 4: gracefully drain the primary mid-burst. The drain must
	// finish clean — zero accepted requests lost — while the burst
	// completes on the survivor.
	drainErr := make(chan error, 1)
	led = openLedger()
	drainRun, err := truth.run(k.dialFT(breakerOptions(), nodeC, nodeA), "graceful drain",
		burst{ids: ids, workers: concurrency, after: len(ids) / 3, hook: func() {
			// drainErr is buffered (cap 1) and received exactly once after
			// the burst, so this goroutine never blocks on its send.
			go func() {
				// Not the burst's ctx: the shutdown must finish after the
				// burst is gone, bounded by its own timeout.
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				drainErr <- nodeC.srv.Shutdown(ctx)
			}()
		}})
	if err != nil {
		return nil, err
	}
	if err := <-drainErr; err != nil {
		return nil, fmt.Errorf("harness: graceful drain lost in-flight work: %w", err)
	}
	drainShed := led.delta("rpc.server.shed")

	basep50, basep99 := base.p50p99()
	shedp50, shedp99 := shedRun.p50p99()
	drainp50, drainp99 := drainRun.p50p99()
	t := stats.NewTable(
		fmt.Sprintf("Overload: %d-deep burst, %d workers, replicas bounded to 2 in flight + 2 queued (%s)",
			len(ids), concurrency, array),
		"run", "fetches", "p50", "p99", "shed", "failovers", "breaker trips", "identical")
	row(t, "clean sweep", len(uniq), truth.cleanRun.elapsed/time.Duration(len(uniq)), "", 0, "", "", "ground truth")
	row(t, "unbounded burst", len(ids), basep50, basep99, 0, "", "", "yes")
	row(t, "shed+failover", len(ids), shedp50, shedp99, shedN, failN, tripN, "yes")
	row(t, "graceful drain", len(ids), drainp50, drainp99, drainShed, "", "", "yes")
	return t, nil
}
