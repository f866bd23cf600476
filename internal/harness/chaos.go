package harness

import (
	"fmt"
	"time"

	"vizndp/internal/core"
	"vizndp/internal/netsim"
	"vizndp/internal/stats"
)

// chaosClasses are the fault classes the composed run must see fire,
// each named by the process-wide counter that proves it did.
var chaosClasses = []struct{ label, counter string }{
	{"dials refused", "netsim.fault.dials.refused"},
	{"conns killed", "netsim.fault.conns.killed"},
	{"storage corruption detected", "ndp.fetch.corrupt"},
	{"wire corruption detected", "core.client.corrupt.wire"},
	{"shed", "rpc.server.shed"},
	{"failovers", "core.pool.failovers"},
	{"array-cache hits", "arraycache.hits"},
}

// ChaosExperiment composes the fault families the other experiments
// inject one at a time. Two replicas each run a caching,
// admission-bounded server over a corrupting store, behind their own
// link with a seeded schedule of dial refusals, mid-frame connection
// kills and in-flight byte flips; one fault-tolerant client drives the
// stock sweep through the burst runner, and one replica is killed a
// third of the way in. Rounds repeat until every class has fired.
//
// The only gates are the oracle's — every served payload bit-identical
// to the clean sweep's, no error surfaced to the caller — and the
// ledger's: each class in chaosClasses non-zero. The run is for the
// interactions no single-family experiment reaches: a retry failing
// over onto a replica that is itself shedding, a corrupt read evicted
// under a shared flight, a breaker opening on a killed connection.
func (e *Env) ChaosExperiment(array string) (*stats.Table, error) {
	const workers = 8
	const minBurst = 48
	const maxRounds = 20
	k := e.newKit()
	defer k.close()
	uniq := e.sweepIDs(e.steps)
	ids := repeatTo(uniq, minBurst)

	truth, _, err := k.groundTruth(array, e.newLink(), uniq)
	if err != nil {
		return nil, err
	}

	// Every other connection is armed: it flips bytes inside a bulk
	// payload and then dies mid-frame on a budget sized, as in the faults
	// experiment, so that any one filtered response fits but few do. A
	// detected flip degrades that fetch to a raw transfer, which no armed
	// connection can carry — so the others are left unarmed, and die of
	// old age instead: long enough to carry a raw array several times
	// over, short enough that re-dials, refusals and fresh armed
	// connections keep coming for the whole run.
	maxFrame := int64(truth.cleanRun.maxWire + 512)
	rawBytes := int64(4 * e.asteroidSet[e.steps[0]].Grid.NumPoints())
	lifetime := 50*time.Millisecond + 4*e.Link.TransferTime(rawBytes)
	// The payload cache has room for about one result: identical requests
	// in flight together share it, but the sweep does not fit, so every
	// round still reaches the array cache and, behind it, the store.
	replicas := make([]*node, 2)
	for i := range replicas {
		n, err := k.startNode(e.corruptFS(uint64(2+i)), e.newLink(),
			core.WithCacheBytes(e.Cfg.CacheBytes), core.WithPayloadCacheBytes(maxFrame),
			core.WithMaxInFlight(2), core.WithQueue(2))
		if err != nil {
			return nil, err
		}
		n.setFaults(&netsim.Faults{
			Seed:              int64(11 + i),
			RefuseDialEvery:   3,
			KillConnEvery:     2,
			KillAfterBytes:    maxFrame + maxFrame/2,
			JitterBytes:       maxFrame / 2,
			KillAfterTime:     lifetime,
			CorruptConnEvery:  2,
			CorruptAfterBytes: 2048,
			CorruptBytes:      16,
		})
		replicas[i] = n
	}

	led := openLedger()
	fired := func() bool {
		for _, c := range chaosClasses {
			if led.delta(c.counter) == 0 {
				return false
			}
		}
		return true
	}
	client := k.dialFT(breakerOptions(), replicas...)
	total := &tally{}
	rounds := 0
	for ; rounds < maxRounds && !fired(); rounds++ {
		// An empty array cache makes every round read storage again, so the
		// corrupting stores keep injecting however small the sweep.
		for _, n := range replicas {
			n.srv.Cache().Reset()
		}
		t, err := truth.run(client, "chaos", burst{ids: ids, workers: workers,
			after: len(ids) / 3, hook: replicas[1].srv.Close})
		if err != nil {
			return nil, err
		}
		total.elapsed += t.elapsed
		total.lats = append(total.lats, t.lats...)
	}
	if !fired() {
		var unfired string
		for _, c := range chaosClasses {
			unfired += fmt.Sprintf(" %s=%d", c.label, led.delta(c.counter))
		}
		return nil, fmt.Errorf("harness: chaos left a class unfired after %d rounds:%s", rounds, unfired)
	}

	p50, p99 := total.p50p99()
	t := stats.NewTable(
		fmt.Sprintf("Chaos: composed faults over 2 replicas, %d-deep burst, %d workers, one replica killed (%s, raw data)",
			len(ids), workers, array),
		"run", "time", "fetches", "p50", "p99", "identical")
	row(t, "clean", truth.cleanRun.elapsed, len(uniq), "", "", "ground truth")
	row(t, "chaos", total.elapsed/time.Duration(rounds), fmt.Sprintf("%d x%d", len(ids), rounds), p50, p99, "yes")
	for _, c := range chaosClasses {
		row(t, c.label, led.delta(c.counter))
	}
	return t, nil
}
