package harness

import (
	"fmt"
	"sync"
	"time"

	"vizndp/internal/core"
	"vizndp/internal/stats"
	"vizndp/internal/telemetry"
)

// CrowdExperiment models the millions-of-users scaling story at bench
// size: hundreds of synthetic clients arrive open-loop (fixed arrival
// schedule, no coordination with completions) against one admission-
// bounded NDP server, every request contouring the same array at an
// isovalue cycled from the configured sweep. Three rounds:
//
//  1. ground truth — a sequential sweep over an unbounded server with no
//     payload cache pins the expected payload bytes per isovalue;
//  2. uncoalesced crowd — the full arrival schedule against admission
//     control alone: every admitted request pays its own scan, so
//     scans-per-request is exactly one;
//  3. coalesced crowd — the same schedule with the payload cache: an
//     identical request waits on the one already being served, a repeat
//     is served from cache, driving scans-per-request below one.
//
// The experiment hard-errors unless the coalesced round's
// scans-per-request drops below 1 (and below the uncoalesced round's),
// the payload cache actually hit, every served payload is bit-identical
// to its ground-truth twin, and the core.scan.coalesced /
// payload-cache-hit counters reconcile with the wide-event flight ring.
// How many requests found an identical one still in flight is reported
// and reconciled but not gated: at small scale a flight lasts about a
// millisecond and a machine can honestly see none. Shed requests
// (rpc.ErrBusy) are reported, not retried — the crowd is open-loop.
func (e *Env) CrowdExperiment(array string) (*stats.Table, error) {
	const arrivals = 384
	const numConns = 64
	const ramp = 250 * time.Millisecond
	k := e.newKit()
	defer k.close()
	ids := e.sweepIDs(e.steps[:1])
	admission := []core.ServerOption{
		core.WithCacheBytes(e.Cfg.CacheBytes),
		core.WithMaxInFlight(32), core.WithQueue(64),
	}

	// Round 1: sequential ground truth from an unbounded server.
	truth, _, err := k.groundTruth(array, e.Link, ids)
	if err != nil {
		return nil, err
	}

	// runCrowd fires the open-loop arrival schedule at n: arrival i
	// sleeps until its slot (i/arrivals into the ramp), issues one fetch
	// over a pooled connection, and the shared tally classifies the
	// outcome. Arrival times are fixed up front — a slow or shed request
	// delays nobody, which is why this is not a burst: a closed-loop
	// worker pool issues its next request only when one completes.
	runCrowd := func(n *node) (*tally, error) {
		defer k.unwind(k.mark())
		conns := make([]*core.Client, numConns)
		for i := range conns {
			c, err := n.dial()
			if err != nil {
				return nil, err
			}
			conns[i] = c
		}
		t := newTally()
		t.openLoop = true
		start := time.Now().Add(20 * time.Millisecond)
		var wg sync.WaitGroup
		for i := 0; i < arrivals; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				time.Sleep(time.Until(start.Add(time.Duration(i) * ramp / arrivals)))
				truth.attempt(conns[i%numConns], "crowd", ids[i%len(ids)], t)
			}(i)
		}
		wg.Wait()
		if t.err != nil {
			return nil, t.err
		}
		if len(t.lats)+t.shed != arrivals {
			return nil, fmt.Errorf("harness: crowd accounting: %d served + %d shed != %d arrivals",
				len(t.lats), t.shed, arrivals)
		}
		return t, nil
	}

	// Round 2: the crowd against admission control, uncoalesced.
	plainNode, err := k.startNode(nil, e.Link, admission...)
	if err != nil {
		return nil, err
	}
	led := openLedger()
	plain, err := runCrowd(plainNode)
	if err != nil {
		return nil, err
	}
	plainReqs, plainPasses := led.delta("core.scan.requests"), led.delta("core.scan.passes")
	if plainReqs == 0 || plainPasses != plainReqs {
		return nil, fmt.Errorf("harness: uncoalesced round ran %d scan passes for %d requests, want one each",
			plainPasses, plainReqs)
	}
	plainSPR := float64(plainPasses) / float64(plainReqs)

	// Round 3: the same crowd with the payload cache and its flights.
	coalNode, err := k.startNode(nil, e.Link, append(admission,
		core.WithPayloadCacheBytes(64<<20))...)
	if err != nil {
		return nil, err
	}
	led = openLedger()
	shared, err := runCrowd(coalNode)
	if err != nil {
		return nil, err
	}
	coalReqs, coalPasses := led.delta("core.scan.requests"), led.delta("core.scan.passes")
	coalN, hitN := led.delta("core.scan.coalesced"), led.delta("core.payloadcache.hits")
	if coalReqs == 0 {
		return nil, fmt.Errorf("harness: coalesced round served no requests")
	}
	coalSPR := float64(coalPasses) / float64(coalReqs)
	if coalSPR >= 1 || coalSPR >= plainSPR {
		return nil, fmt.Errorf("harness: coalescing did not reduce scans-per-request: %.3f coalesced vs %.3f uncoalesced",
			coalSPR, plainSPR)
	}
	if hitN == 0 {
		return nil, fmt.Errorf("harness: payload cache never hit across %d requests", coalReqs)
	}

	// Counter/wide-event reconciliation: every coalesced request and every
	// payload-cache hit must appear as an attributed server-side fetch
	// event in the flight ring, and vice versa — zero of either included.
	serverFetch := func(ev *telemetry.WideEvent) bool {
		return ev.Kind == telemetry.KindServer && ev.Method == core.MethodFetch
	}
	err = led.reconcile(
		eventCount{"core.scan.coalesced", func(ev *telemetry.WideEvent) bool {
			return serverFetch(ev) && ev.Attrs["coalesced-scan"] == "follower"
		}},
		eventCount{"core.payloadcache.hits", func(ev *telemetry.WideEvent) bool {
			return serverFetch(ev) && ev.Attrs["payloadcache"] == "hit"
		}})
	if err != nil {
		return nil, err
	}

	plainP50, plainP99 := plain.p50p99()
	coalP50, coalP99 := shared.p50p99()
	t := stats.NewTable(
		fmt.Sprintf("Crowd: %d open-loop arrivals over %v, %d isovalues, server bounded to 32 in flight + 64 queued (%s)",
			arrivals, ramp, len(ids), array),
		"run", "arrivals", "served", "shed", "p50", "p99", "scans/req", "coalesced", "cache hits", "identical")
	row(t, "ground truth", len(ids), len(ids), 0, "", "", "1.000", "", "", "reference")
	row(t, "uncoalesced", arrivals, len(plain.lats), plain.shed, plainP50, plainP99,
		fmt.Sprintf("%.3f", plainSPR), 0, 0, "yes")
	row(t, "coalesced+cache", arrivals, len(shared.lats), shared.shed, coalP50, coalP99,
		fmt.Sprintf("%.3f", coalSPR), coalN, hitN, "yes")
	return t, nil
}
