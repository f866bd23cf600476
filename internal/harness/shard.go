package harness

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"runtime"
	"time"

	"vizndp/internal/compress"
	"vizndp/internal/core"
	"vizndp/internal/grid"
	"vizndp/internal/netsim"
	"vizndp/internal/rpc"
	"vizndp/internal/s3fs"
	"vizndp/internal/stats"
	"vizndp/internal/telemetry"
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
	var man *vtkio.Manifest
	for _, step := range e.steps {
		ds := e.AsteroidDataset(step)
		if man == nil {
			m, err := vtkio.BuildManifest(ds.Grid, shardSpec, ds.FieldNames(), shardCount)
			if err != nil {
				return nil, err
			}
			data, err := vtkio.EncodeManifest(m)
			if err != nil {
				return nil, err
			}
			if err := e.local.Put(Bucket, shardManifestKey(dataset, codec), data); err != nil {
				return nil, err
			}
			man = m
		}
		bricks, err := man.GridBricks()
		if err != nil {
			return nil, err
		}
		for _, b := range bricks {
			sub, err := grid.ExtractBrick(ds, b)
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			if err := vtkio.Write(&buf, sub, vtkio.WriteOptions{Codec: codec, Checksum: true}); err != nil {
				return nil, err
			}
			key := shardPrefix(dataset, codec, step) + vtkio.BrickKey(b.ID)
			if err := e.local.Put(Bucket, key, buf.Bytes()); err != nil {
				return nil, err
			}
		}
	}
	return man, nil
}

// shardNode is one in-process storage shard: its own shaped link and NDP
// server over the shared object store.
type shardNode struct {
	link *netsim.Link
	srv  *core.Server
	addr string
}

func (e *Env) startShardNode(name string) (*shardNode, error) {
	link := netsim.NewLink(e.Cfg.LinkBits, e.Cfg.LinkLatency)
	srv := core.NewServer(s3fs.New(e.local, Bucket), core.WithShardName(name))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go srv.Serve(link.Listener(ln))
	return &shardNode{link: link, srv: srv, addr: ln.Addr().String()}, nil
}

// ShardExperiment evaluates brick-sharded scatter-gather pre-filtering
// against the single-node NDP path:
//
//  1. baseline — the stock per-isovalue contour sweep against ONE NDP
//     server over one shaped link; its reconstructed arrays are the
//     ground truth and its time the 1-node reference;
//  2. sharded — the same sweep scatter-gathered across three shard
//     servers, each behind its own shaped link (3x aggregate bandwidth,
//     as a real multi-node deployment would have); every merged array
//     must be bit-identical to the baseline reconstruction;
//  3. degraded — one shard's fetches are forced onto the raw-fetch
//     fallback (its link kills the first connection and the client may
//     not retry Fetch); the merge must still be bit-identical while the
//     degraded counters fire;
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

	man, err := e.populateBricks(dataset, codec)
	if err != nil {
		return nil, err
	}

	// Dedicated single-node path for the baseline, mirroring the sharded
	// topology's per-node link so the comparison is 1 link vs 3 links.
	base, err := e.startShardNode("")
	if err != nil {
		return nil, err
	}
	defer base.srv.Close()

	type fetchID struct {
		step int
		iso  float64
	}
	nFetches := len(e.steps) * len(e.Cfg.ContourValues)

	// Baseline sweep: reconstructed ground-truth arrays + 1-node time.
	truth := make(map[fetchID][]float32, nFetches)
	clean, err := core.Dial(base.addr, base.link.Dial)
	if err != nil {
		return nil, err
	}
	baseStart := time.Now()
	for _, step := range e.steps {
		key := ObjectKey(dataset, codec, step)
		for _, iso := range e.Cfg.ContourValues {
			p, _, err := clean.FetchFiltered(key, array, []float64{iso}, e.Cfg.Encoding)
			if err != nil {
				clean.Close()
				return nil, fmt.Errorf("harness: baseline step %d iso %g: %w", step, iso, err)
			}
			arr, err := p.Reconstruct()
			if err != nil {
				clean.Close()
				return nil, err
			}
			truth[fetchID{step, iso}] = arr
		}
	}
	baseTime := time.Since(baseStart)
	clean.Close()

	// Three shard nodes over the shared store, each behind its own link.
	nodes := make([]*shardNode, shardCount)
	links := make(map[string]*netsim.Link, shardCount)
	addrs := make([]string, shardCount)
	for i := range nodes {
		n, err := e.startShardNode(fmt.Sprintf("shard%d", i))
		if err != nil {
			return nil, err
		}
		defer n.srv.Close()
		nodes[i] = n
		links[n.addr] = n.link
		addrs[i] = n.addr
	}
	dialFn := func(network, addr string) (net.Conn, error) {
		if l, ok := links[addr]; ok {
			return l.Dial(network, addr)
		}
		return net.Dial(network, addr)
	}
	poolOpts := rpc.ReconnectOptions{
		MaxAttempts:      64,
		InitialBackoff:   time.Millisecond,
		MaxBackoff:       50 * time.Millisecond,
		CallTimeout:      10 * time.Second,
		Seed:             11,
		BreakerThreshold: 2,
		BreakerCooldown:  75 * time.Millisecond,
	}

	identical := func(got []float32, want []float32) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				return false
			}
		}
		return true
	}

	// Phase 2: clean sharded sweep. The manifest travels the same wire as
	// the data: fetched once from the first shard via the manifest RPC.
	first, err := core.Dial(addrs[0], dialFn)
	if err != nil {
		return nil, err
	}
	gotMan, err := first.FetchManifest(shardManifestKey(dataset, codec))
	first.Close()
	if err != nil {
		return nil, err
	}
	if len(gotMan.Entries) != len(man.Entries) {
		return nil, fmt.Errorf("harness: manifest RPC returned %d entries, wrote %d",
			len(gotMan.Entries), len(man.Entries))
	}
	sc, err := core.DialSharded(gotMan, addrs, dialFn, poolOpts)
	if err != nil {
		return nil, err
	}
	var dupPoints int
	shardStart := time.Now()
	for _, step := range e.steps {
		prefix := shardPrefix(dataset, codec, step)
		for _, iso := range e.Cfg.ContourValues {
			arr, st, err := sc.FetchArray(prefix, array, []float64{iso}, e.Cfg.Encoding)
			if err != nil {
				sc.Close()
				return nil, fmt.Errorf("harness: sharded step %d iso %g: %w", step, iso, err)
			}
			if !identical(arr, truth[fetchID{step, iso}]) {
				sc.Close()
				return nil, fmt.Errorf("harness: sharded merge differs at step %d iso %g", step, iso)
			}
			dupPoints += st.DupPoints
		}
	}
	shardTime := time.Since(shardStart)
	sc.Close()
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

	// Phase 3: force one shard's fetches onto the degraded fallback. Its
	// link kills the first connection after a few bytes and its client may
	// not retry Fetch, so the brick is served via Describe + FetchRaw + a
	// local pre-filter — while the other shards stay healthy.
	fallbacks := telemetry.Default().Counter("core.client.fallbacks")
	shardDegraded := telemetry.Default().Counter("core.shard.degraded")
	retryable := core.RetryableMethods()
	retryable[core.MethodFetch] = false
	nodes[1].link.SetFaults(&netsim.Faults{
		Seed:           11,
		KillConnEvery:  1 << 30, // only the first connection is armed
		KillAfterBytes: 128,
	})
	shards := make([]*core.Client, shardCount)
	for i, n := range nodes {
		if i == 1 {
			shards[i] = core.DialFaultTolerant([]string{n.addr}, dialFn, rpc.ReconnectOptions{
				MaxAttempts:    4,
				InitialBackoff: time.Millisecond,
				MaxBackoff:     20 * time.Millisecond,
				Retryable:      retryable,
				Seed:           11,
			})
			continue
		}
		c, err := core.Dial(n.addr, dialFn)
		if err != nil {
			return nil, err
		}
		shards[i] = c
	}
	dsc, err := core.NewShardedClient(gotMan, shards)
	if err != nil {
		return nil, err
	}
	f0, d0 := fallbacks.Value(), shardDegraded.Value()
	step := e.steps[len(e.steps)/2]
	iso := e.Cfg.ContourValues[0]
	degStart := time.Now()
	arr, dst, err := dsc.FetchArray(
		shardPrefix(dataset, codec, step), array, []float64{iso}, e.Cfg.Encoding)
	degTime := time.Since(degStart)
	dsc.Close()
	nodes[1].link.SetFaults(nil)
	if err != nil {
		return nil, fmt.Errorf("harness: degraded-shard fetch: %w", err)
	}
	if dst.Degraded < 1 {
		return nil, fmt.Errorf("harness: no brick was served degraded")
	}
	df, dd := fallbacks.Value()-f0, shardDegraded.Value()-d0
	if df < 1 || dd < 1 {
		return nil, fmt.Errorf("harness: degraded counters did not fire (fallbacks +%d, shard.degraded +%d)", df, dd)
	}
	if !identical(arr, truth[fetchID{step, iso}]) {
		return nil, fmt.Errorf("harness: degraded-shard merge differs from baseline")
	}

	// Phase 4: kill a shard mid-sweep. A fresh DialSharded client (its
	// breakers untouched by earlier phases) repeats the sweep; after the
	// first fetch, shard 1 dies. Its bricks must fail over to the sibling
	// shards — every shard mounts the same store — with zero errors.
	failovers := telemetry.Default().Counter("core.pool.failovers")
	breakerOpens := telemetry.Default().Counter("core.pool.breaker.open")
	ksc, err := core.DialSharded(gotMan, addrs, dialFn, poolOpts)
	if err != nil {
		return nil, err
	}
	p0, b0 := failovers.Value(), breakerOpens.Value()
	killed := false
	killStart := time.Now()
	for _, step := range e.steps {
		prefix := shardPrefix(dataset, codec, step)
		for _, iso := range e.Cfg.ContourValues {
			arr, _, err := ksc.FetchArray(prefix, array, []float64{iso}, e.Cfg.Encoding)
			if err != nil {
				ksc.Close()
				return nil, fmt.Errorf("harness: post-kill step %d iso %g: %w", step, iso, err)
			}
			if !identical(arr, truth[fetchID{step, iso}]) {
				ksc.Close()
				return nil, fmt.Errorf("harness: post-kill merge differs at step %d iso %g", step, iso)
			}
			if !killed {
				nodes[1].srv.Close()
				killed = true
			}
		}
	}
	killTime := time.Since(killStart)
	// A tiny sweep (e.g. -steps 1) leaves too few post-kill fetches for
	// the threshold-2 breaker to see consecutive failures; pad with
	// repeats of the first fetch so the dead replica is probed enough.
	for extra := nFetches - 1; extra < 4; extra++ {
		prefix := shardPrefix(dataset, codec, e.steps[0])
		iso := e.Cfg.ContourValues[0]
		arr, _, err := ksc.FetchArray(prefix, array, []float64{iso}, e.Cfg.Encoding)
		if err != nil {
			ksc.Close()
			return nil, fmt.Errorf("harness: post-kill probe %d: %w", extra, err)
		}
		if !identical(arr, truth[fetchID{e.steps[0], iso}]) {
			ksc.Close()
			return nil, fmt.Errorf("harness: post-kill probe merge differs")
		}
	}
	ksc.Close()
	kf, kb := failovers.Value()-p0, breakerOpens.Value()-b0
	if kf < 1 {
		return nil, fmt.Errorf("harness: shard death caused no pool failovers")
	}
	if kb < 1 {
		return nil, fmt.Errorf("harness: dead shard's breaker never opened")
	}

	t := stats.NewTable(
		fmt.Sprintf("Sharded scatter-gather: %d bricks (ghost %d) over %d shards (%s, raw data)",
			shardSpec.Count(), shardSpec.Ghost, shardCount, array),
		"run", "time", "fetches", "vs 1 node", "failovers", "degraded", "identical")
	t.AddRow("1 node", stats.FormatDuration(baseTime),
		fmt.Sprintf("%d", nFetches), "1.00x", "0", "0", "ground truth")
	t.AddRow("3 shards", stats.FormatDuration(shardTime),
		fmt.Sprintf("%d x%d bricks", nFetches, shardSpec.Count()),
		fmt.Sprintf("%.2fx", float64(baseTime)/float64(shardTime)),
		"0", "0", "yes")
	t.AddRow("1 shard degraded", stats.FormatDuration(degTime),
		fmt.Sprintf("1 x%d bricks", shardSpec.Count()), "",
		"0", fmt.Sprintf("%d", dst.Degraded), "yes")
	t.AddRow("1 shard killed", stats.FormatDuration(killTime),
		fmt.Sprintf("%d x%d bricks", nFetches, shardSpec.Count()),
		fmt.Sprintf("%.2fx", float64(baseTime)/float64(killTime)),
		fmt.Sprintf("%d", kf), "0", "yes")
	t.AddRow("ghost dedup", fmt.Sprintf("%d dup points over the sweep", dupPoints),
		"", "", "", "", "")
	return t, nil
}
