package harness

import (
	"fmt"
	"time"

	"vizndp/internal/netsim"
	"vizndp/internal/stats"
)

// FaultsExperiment runs the stock contour sweep (every timestep at every
// contour value) three times over a dedicated shaped link to a dedicated
// NDP server:
//
//  1. clean — no faults; its payloads are the ground truth and its time
//     the baseline;
//  2. faulted — a seeded netsim.Faults schedule refuses dials, kills
//     connections mid-frame, and injects latency spikes while a
//     fault-tolerant client (retries + reconnects) repeats the sweep;
//  3. no-retry fallback — one fetch through a client that may not retry
//     Fetch, over a link whose first connection always dies, forcing the
//     graceful-degradation path (FetchRaw + local pre-filter).
//
// Every payload from runs 2 and 3 must be bit-identical to run 1's, and
// every fault class must actually have fired — otherwise the experiment
// errors rather than under-claiming. The table reports recovery overhead
// and the retry/reconnect/fallback counts alongside the injected faults.
func (e *Env) FaultsExperiment(array string) (*stats.Table, error) {
	k := e.newKit()
	defer k.close()
	ids := e.sweepIDs(e.steps)

	// Run 1: clean ground truth, over a dedicated link and server that the
	// later runs make faulty.
	truth, n, err := k.groundTruth(array, e.newLink(), ids)
	if err != nil {
		return nil, err
	}

	// Run 2: the same sweep under the fault schedule. Budgets are sized
	// from the measured payloads: every connection is armed, but a fresh
	// connection's budget always exceeds the largest single response, so
	// any one retry can succeed while no connection survives more than a
	// few fetches — kills, re-dials, and therefore dial refusals keep
	// firing for the whole sweep.
	maxFrame := int64(truth.cleanRun.maxWire + 512) // msgpack envelope + stats headroom
	faults := &netsim.Faults{
		Seed:            11,
		RefuseDialEvery: 3,
		KillConnEvery:   1,
		KillAfterBytes:  maxFrame + maxFrame/2,
		JitterBytes:     maxFrame / 2,
		SpikeEvery:      5,
		SpikeLatency:    time.Millisecond,
	}
	recovery := func(l *ledger) (retries, reconnects, fallbacks int64) {
		return l.delta("rpc.client.retries"), l.delta("rpc.client.reconnects"), l.delta("core.client.fallbacks")
	}
	phase := k.mark()
	n.setFaults(faults)
	led := openLedger()
	var fs netsim.FaultStats
	rounds, faultTime, ftDegraded, err := truth.sweepUntil(k.dialFT(retryOptions(8), n), "faulted", ids, func() bool {
		fs = faults.Stats()
		return fs.DialsRefused > 0 && fs.ConnsKilled > 0 && fs.FramesTruncated > 0 && fs.LatencySpikes > 0
	})
	if err != nil {
		return nil, err
	}
	k.unwind(phase)
	fr, fc, ff := recovery(led)
	if fs.DialsRefused == 0 || fs.ConnsKilled == 0 || fs.FramesTruncated == 0 || fs.LatencySpikes == 0 {
		return nil, fmt.Errorf("harness: fault schedule left a class uninjected after %d sweeps: %s",
			rounds, fs)
	}

	// Run 3: force graceful degradation on one mid-sweep fetch.
	led = openLedger()
	degTime, err := truth.degradedFetch(n, fetchID{e.steps[len(e.steps)/2], e.Cfg.ContourValues[0]})
	if err != nil {
		return nil, err
	}
	dr, dc, df := recovery(led)
	cleanTime, nFetches := truth.cleanRun.elapsed, len(ids)

	t := stats.NewTable(
		fmt.Sprintf("Fault tolerance: contour sweep under injected faults (%s, raw data)", array),
		"run", "time", "fetches", "degraded", "retries", "reconnects", "fallbacks", "identical")
	row(t, "clean", cleanTime, nFetches, 0, 0, 0, 0, "ground truth")
	row(t, "faulted", faultTime/time.Duration(rounds), fmt.Sprintf("%d x%d", nFetches, rounds),
		ftDegraded, fr, fc, ff, "yes")
	row(t, "no-retry fallback", degTime, 1, 1, dr, dc, df, "yes")
	row(t, "recovery overhead", fmt.Sprintf("%.2fx", float64(faultTime)/float64(rounds)/float64(cleanTime)))
	row(t, "injected", fs.String())
	return t, nil
}
