package harness

import (
	"fmt"
	"runtime"
	"time"

	"vizndp/internal/compress"
	"vizndp/internal/core"
	"vizndp/internal/grid"
	"vizndp/internal/stats"
	"vizndp/internal/vtkio"
)

// shardSpec is the experiment's bricking: three bricks along X with a
// one-cell ghost layer, one brick per shard.
var shardSpec = grid.BrickSpec{NX: 3, NY: 1, NZ: 1, Ghost: 1}

const shardCount = 3

// shardManifestKey is where the experiment stores the brick manifest.
func shardManifestKey(dataset string, codec compress.Kind) string {
	return fmt.Sprintf("%s/%s/manifest.json", dataset, codec)
}

// shardPrefix is the per-timestep brick directory.
func shardPrefix(dataset string, codec compress.Kind, step int) string {
	return fmt.Sprintf("%s/%s/ts%05d/", dataset, codec, step)
}

// populateBricks writes per-brick objects for every asteroid timestep
// plus one manifest (the geometry is identical across steps), and
// returns the manifest.
func (e *Env) populateBricks(dataset string, codec compress.Kind) (*vtkio.Manifest, error) {
	grid0 := e.asteroidSet[e.steps[0]]
	man, err := vtkio.BuildManifest(grid0.Grid, shardSpec, grid0.FieldNames(), shardCount)
	if err != nil {
		return nil, err
	}
	if err := e.putManifest(shardManifestKey(dataset, codec), man); err != nil {
		return nil, err
	}
	for _, step := range e.steps {
		if err := e.putBricks(shardPrefix(dataset, codec, step), e.asteroidSet[step], man, codec); err != nil {
			return nil, err
		}
	}
	return man, nil
}

// putManifest stores a brick manifest under key.
func (e *Env) putManifest(key string, man *vtkio.Manifest) error {
	data, err := vtkio.EncodeManifest(man)
	if err != nil {
		return err
	}
	return e.local.Put(Bucket, key, data)
}

// putBricks cuts ds into man's bricks and stores each as a page-
// checksummed object under prefix.
func (e *Env) putBricks(prefix string, ds *grid.Dataset, man *vtkio.Manifest, codec compress.Kind) error {
	bricks, err := man.GridBricks()
	if err != nil {
		return err
	}
	for _, b := range bricks {
		sub, err := grid.ExtractBrick(ds, b)
		if err != nil {
			return err
		}
		if err := e.putDataset(prefix+vtkio.BrickKey(b.ID), sub, vtkio.WriteOptions{Codec: codec, Checksum: true}); err != nil {
			return err
		}
	}
	return nil
}

// ShardExperiment evaluates brick-sharded scatter-gather pre-filtering
// against the single-node NDP path:
//
//  1. baseline — the stock per-isovalue contour sweep against ONE NDP
//     server over one shaped link; its payloads are the ground truth and
//     its time the 1-node reference;
//  2. sharded — the same sweep scatter-gathered across three shard
//     servers, each behind its own shaped link (3x aggregate bandwidth,
//     as a real multi-node deployment would have); every gathered
//     payload must be byte-identical to the baseline's;
//  3. degraded — one shard's fetches are forced onto the raw-fetch
//     fallback (its link kills the first connection and the client may
//     not retry Fetch); the gather must still be byte-identical while
//     the degraded counters fire;
//  4. shard killed — a fresh sharded client repeats the sweep and one
//     shard dies after the first fetch; every remaining fetch must fail
//     over to the sibling shards (same store) with zero errors and
//     bit-identical payloads.
//
// The paper's pitch for NDP is moving the filter to where the data
// lives; sharding is the natural next step — more nodes scan in
// parallel and the client gathers only sparse payloads — so the
// experiment's gate is exactness under distribution plus failure, and
// — when the host has spare cores to run the shards in parallel — a
// full-scale 3-node aggregate-throughput win over 1 node.
func (e *Env) ShardExperiment(array string) (*stats.Table, error) {
	const dataset = "asteroid"
	codec := compress.None
	k := e.newKit()
	defer k.close()
	ids := e.sweepIDs(e.steps)

	man, err := e.populateBricks(dataset, codec)
	if err != nil {
		return nil, err
	}

	// Phase 1: the 1-node baseline over a dedicated link, mirroring the
	// sharded topology's per-node link so the comparison is 1 link vs 3.
	truth, _, err := k.groundTruth(array, e.newLink(), ids)
	if err != nil {
		return nil, err
	}
	baseTime := truth.cleanRun.elapsed

	// Three shard nodes over the shared store, each behind its own link.
	nodes := make([]*node, shardCount)
	addrs := make([]string, shardCount)
	for i := range nodes {
		n, err := k.startNode(nil, e.newLink(), core.WithShardName(fmt.Sprintf("shard%d", i)))
		if err != nil {
			return nil, err
		}
		nodes[i], addrs[i] = n, n.addr
	}

	// gather scatter-gathers ids through sc, holding every gathered
	// payload to the baseline's; afterFirst (if set) runs once the first
	// fetch has completed.
	gather := func(sc *core.ShardedClient, phase string, ids []fetchID, afterFirst func()) (time.Duration, core.ShardStats, error) {
		var sum core.ShardStats
		start := time.Now()
		for i, id := range ids {
			p, st, err := sc.FetchArray(shardPrefix(dataset, codec, id.step), array, []float64{id.iso}, core.EncAuto)
			if err != nil {
				return 0, sum, fmt.Errorf("harness: %s step %d iso %g: %w", phase, id.step, id.iso, err)
			}
			if err := truth.same(phase, id, p); err != nil {
				return 0, sum, err
			}
			sum.DupPoints += st.DupPoints
			sum.Degraded += st.Degraded
			if i == 0 && afterFirst != nil {
				afterFirst()
			}
		}
		return time.Since(start), sum, nil
	}

	// Phase 2: clean sharded sweep. The manifest travels the same wire as
	// the data: fetched once from the first shard via the manifest RPC.
	plain := make([]*core.Client, shardCount)
	for i, n := range nodes {
		if plain[i], err = n.dial(); err != nil {
			return nil, err
		}
	}
	gotMan, err := plain[0].FetchManifest(shardManifestKey(dataset, codec))
	if err != nil {
		return nil, err
	}
	if len(gotMan.Entries) != len(man.Entries) {
		return nil, fmt.Errorf("harness: manifest RPC returned %d entries, wrote %d",
			len(gotMan.Entries), len(man.Entries))
	}
	sc, err := core.DialSharded(gotMan, addrs, k.dialConn, breakerOptions())
	if err != nil {
		return nil, err
	}
	k.onClose(func() { sc.Close() })
	shardTime, shardSum, err := gather(sc, "sharded", ids, nil)
	if err != nil {
		return nil, err
	}
	// At full scale three nodes must beat one — but only when the host
	// can actually run the shard scans in parallel: the in-process
	// testbed multiplexes every emulated node onto the real machine, so
	// with no spare cores the aggregate win is physically unavailable
	// and the ratio is reported, not gated. Quick configurations
	// likewise move too few bytes to clear the per-brick RPC overhead.
	if e.Cfg.AsteroidN >= 64 && runtime.NumCPU() > shardCount && shardTime >= baseTime {
		return nil, fmt.Errorf("harness: sharded sweep (%v) not faster than 1 node (%v) at N=%d",
			shardTime, baseTime, e.Cfg.AsteroidN)
	}

	// Phase 3: force one shard's fetches onto the degraded fallback — the
	// brick is served via Describe + FetchRaw + a local pre-filter — while
	// the other shards stay healthy.
	phase := k.mark()
	dsc, err := core.NewShardedClient(gotMan, []*core.Client{plain[0], nodes[1].dialDegraded(), plain[2]})
	if err != nil {
		return nil, err
	}
	k.onClose(func() { dsc.Close() })
	led := openLedger()
	degTime, degSum, err := gather(dsc, "degraded-shard", []fetchID{{e.steps[len(e.steps)/2], e.Cfg.ContourValues[0]}}, nil)
	if err != nil {
		return nil, err
	}
	k.unwind(phase)
	if degSum.Degraded < 1 {
		return nil, fmt.Errorf("harness: no brick was served degraded")
	}
	if df, dd := led.delta("core.client.fallbacks"), led.delta("core.shard.degraded"); df < 1 || dd < 1 {
		return nil, fmt.Errorf("harness: degraded counters did not fire (fallbacks +%d, shard.degraded +%d)", df, dd)
	}

	// Phase 4: kill a shard mid-sweep. A fresh DialSharded client (its
	// breakers untouched by earlier phases) repeats the sweep; after the
	// first fetch, shard 1 dies. Its bricks must fail over to the sibling
	// shards — every shard mounts the same store — with zero errors.
	ksc, err := core.DialSharded(gotMan, addrs, k.dialConn, breakerOptions())
	if err != nil {
		return nil, err
	}
	k.onClose(func() { ksc.Close() })
	led = openLedger()
	killTime, _, err := gather(ksc, "post-kill", ids, nodes[1].srv.Close)
	if err != nil {
		return nil, err
	}
	// A tiny sweep (e.g. -steps 1) leaves too few post-kill fetches for
	// the threshold-2 breaker to see consecutive failures; pad with
	// repeats of the first fetch so the dead replica is probed enough.
	for extra := len(ids) - 1; extra < 4; extra++ {
		if _, _, err := gather(ksc, "post-kill probe", ids[:1], nil); err != nil {
			return nil, err
		}
	}
	kf := led.delta("core.pool.failovers")
	if kf < 1 {
		return nil, fmt.Errorf("harness: shard death caused no pool failovers")
	}
	if led.delta("core.pool.breaker.open") < 1 {
		return nil, fmt.Errorf("harness: dead shard's breaker never opened")
	}
	nFetches, dupPoints := len(ids), shardSum.DupPoints

	t := stats.NewTable(
		fmt.Sprintf("Sharded scatter-gather: %d bricks (ghost %d) over %d shards (%s, raw data)",
			shardSpec.Count(), shardSpec.Ghost, shardCount, array),
		"run", "time", "fetches", "vs 1 node", "failovers", "degraded", "identical")
	bricks := shardSpec.Count()
	row(t, "1 node", baseTime, nFetches, "1.00x", 0, 0, "ground truth")
	row(t, "3 shards", shardTime, fmt.Sprintf("%d x%d bricks", nFetches, bricks),
		fmt.Sprintf("%.2fx", float64(baseTime)/float64(shardTime)), 0, 0, "yes")
	row(t, "1 shard degraded", degTime, fmt.Sprintf("1 x%d bricks", bricks), "", 0, degSum.Degraded, "yes")
	row(t, "1 shard killed", killTime, fmt.Sprintf("%d x%d bricks", nFetches, bricks),
		fmt.Sprintf("%.2fx", float64(baseTime)/float64(killTime)), kf, 0, "yes")
	row(t, "ghost dedup", fmt.Sprintf("%d dup points over the sweep", dupPoints))
	return t, nil
}
