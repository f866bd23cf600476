package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"vizndp/internal/core"
	"vizndp/internal/grid"
	"vizndp/internal/netsim"
	"vizndp/internal/objstore"
	"vizndp/internal/s3fs"
	"vizndp/internal/stats"
	"vizndp/internal/telemetry"
	"vizndp/internal/vtkio"
)

// chaosClasses are the fault classes the composed run must see fire,
// each named by the process-wide counter that proves it did.
var chaosClasses = []struct{ label, counter string }{
	{"dials refused", "netsim.fault.dials.refused"},
	{"conns killed", "netsim.fault.conns.killed"},
	{"frames truncated", "netsim.fault.frames.truncated"},
	{"storage bitflips", "objstore.corrupt.bitflips"},
	{"storage zeropages", "objstore.corrupt.zeropages"},
	{"storage truncations", "objstore.corrupt.truncations"},
	{"storage corruption detected", "ndp.fetch.corrupt"},
	{"wire corruption detected", "core.client.corrupt.wire"},
	{"shed", "rpc.server.shed"},
	{"failovers", "core.pool.failovers"},
	{"breaker trips", "core.pool.breaker.open"},
	{"array-cache hits", "arraycache.hits"},
	{"payload-cache hits", "core.payloadcache.hits"},
	{"degraded fallbacks", "core.client.fallbacks"},
	{"shard degraded", "core.shard.degraded"},
	{"slo breaches", breachCounter},
	{"bundles written", "telemetry.bundles.written"},
}

// breachCounter counts the fetches the run's SLO monitor scored as
// breaching its objective.
const breachCounter = "telemetry.slo." + core.MethodFetch + ".breaches"

// chaosBooks are the counters each round reconciles with the wide
// events recorded since it began: every shed (of any method), every
// degraded fallback, every degraded brick of a gather (its shard's
// event, which names the brick), every breach, every request that
// joined another's flight and every payload-cache hit must be an event
// with its flag.
var chaosBooks = []eventCount{
	{"rpc.server.shed", func(ev *telemetry.WideEvent) bool { return ev.Kind == telemetry.KindServer && ev.Shed }},
	{"core.client.fallbacks", func(ev *telemetry.WideEvent) bool {
		return ev.Kind == telemetry.KindClient && ev.Degraded && ev.Attrs["brick"] == nil
	}},
	{"core.shard.degraded", func(ev *telemetry.WideEvent) bool {
		return ev.Kind == telemetry.KindClient && ev.Degraded && ev.Attrs["brick"] != nil
	}},
	{breachCounter, func(ev *telemetry.WideEvent) bool { return ev.Method == core.MethodFetch && ev.Breached }},
	{"core.scan.coalesced", func(ev *telemetry.WideEvent) bool {
		return ev.Kind == telemetry.KindServer && ev.Attrs["coalesced-scan"] == "follower"
	}},
	{"core.payloadcache.hits", func(ev *telemetry.WideEvent) bool {
		return ev.Kind == telemetry.KindServer && ev.Attrs["payloadcache"] == "hit"
	}},
}

// answeredFetch is a contour fetch a server answered. A flight's scan
// succeeds exactly when its leader's request does, so with no payload
// cache each is one scan pass, and with one a hit or a follower is none.
func answeredFetch(ev *telemetry.WideEvent) bool {
	return ev.Kind == telemetry.KindServer && ev.Method == core.MethodFetch && ev.Outcome == telemetry.OutcomeOK
}

// chaosBricks is the sharded gather's bricking: three bricks along X
// with a one-cell ghost layer, one per replica.
var chaosBricks = grid.BrickSpec{NX: 3, NY: 1, NZ: 1, Ghost: 1}

// brickRoot is the directory of the oracle's bricks: their manifest and
// a directory per step.
func (o *oracle) brickRoot() string {
	return fmt.Sprintf("bricks/%s/%s/%s/", o.dataset, o.codec, o.array)
}

// gathered is the sharded fetch through c: the step's bricks, which man
// describes, scattered, their payloads gathered into the unsharded one.
func (o *oracle) gathered(c *core.Client, man *vtkio.Manifest) fetchFunc {
	return func(id fetchID) (*core.Payload, error) {
		p, _, err := c.FetchBricksContext(context.Background(), man, fmt.Sprintf("%sts%05d/", o.brickRoot(), id.step), o.array, []float64{id.iso}, core.EncAuto)
		if err != nil {
			err = fmt.Errorf("harness: gather step %d iso %g: %w", id.step, id.iso, err)
		}
		return p, err
	}
}

// putBricks cuts the oracle's array of every step into chaosBricks and
// stores them page-checksummed under o.brickRoot(), next to the manifest
// it returns.
func (e *Env) putBricks(o *oracle) (*vtkio.Manifest, error) {
	g := e.asteroidSet[e.steps[0]].Grid
	man, err := vtkio.BuildManifest(g, chaosBricks, []string{o.array})
	if err != nil {
		return nil, err
	}
	bricks, err := man.GridBricks()
	if err != nil {
		return nil, err
	}
	for _, step := range e.steps {
		ds := grid.NewDataset(g)
		ds.MustAddField(e.asteroidSet[step].Field(o.array))
		for _, b := range bricks {
			sub, err := grid.ExtractBrick(ds, b)
			if err == nil {
				key := fmt.Sprintf("%sts%05d/%s", o.brickRoot(), step, vtkio.BrickKey(b.ID))
				err = e.putDataset(key, sub, vtkio.WriteOptions{Codec: o.codec, Checksum: true})
			}
			if err != nil {
				return nil, err
			}
		}
	}
	data, err := vtkio.EncodeManifest(man)
	if err != nil {
		return nil, err
	}
	return man, e.local.Put(Bucket, o.brickRoot()+"manifest.json", data)
}

// drainedName stamps the drained replica's fetch events (its shard=
// attribute), so the drain's accounting can pick them out of the ring.
const drainedName = "drained"

// ChaosExperiment is the one robustness gate: it composes every fault
// family the system claims to survive and checks bit-identity once,
// through one oracle, and the books once, through one event log. Three
// replicas each run a caching, admission-bounded server over a
// corrupting store. Two sit behind their own link with a seeded
// schedule of dial refusals, mid-frame connection kills and in-flight
// byte flips; the third, behind a clean link, is started afresh every
// round. The burst runner drives the stock sweep, every other fetch
// plain through a fault-tolerant client and the rest gathered from 3
// bricks through a sharded one, and a third of the way in one hook
// kills replica 1 and gracefully drains the third, mid-gather. After
// each burst every array is read back whole from replica 0, whose cache
// admitted it under live injection. An SLO monitor and a bundle writer
// watch the whole run. Rounds repeat until every class has fired, a
// drain has caught accepted fetches mid-flight and gathers have failed
// over. Before any fault is armed, a clean sweep gathered over three
// nodes is timed against the same sweep through one.
//
// The gates: every payload, gathered or not, and every read-back array
// bit-identical to the ground truth, no error surfaced to the caller;
// the manifest RPC returning every brick, the clean gather dropping
// ghost duplicates and, at full scale with spare cores, beating one
// node; each class in chaosClasses non-zero and each round's chaosBooks
// balanced; the uncached servers scanning exactly once per request, and
// the caching replicas fewer times than they answered, which is what
// the payload cache and its single flight save; the drained replica's
// Shutdown returning nil after answering every fetch it had accepted;
// the burn gauges agreeing with the monitor and with first principles;
// and a directed breach's bundle holding its span tree. The
// run is for the interactions no single-family run reaches: a retry
// failing over onto a replica that is itself shedding, a corrupt read
// evicted under a shared flight, a breaker opening on a killed
// connection mid-gather. A clean burst of the same depth over the
// unbounded server is the latency reference for the chaos p50/p99.
func (e *Env) ChaosExperiment(array string) (*stats.Table, error) {
	const workers = 8
	const minBurst = 48
	const maxRounds = 20
	k := e.newKit()
	defer k.close()
	uniq := e.sweepIDs(e.steps)
	ids := repeatTo(uniq, minBurst)

	scans := openLedger()
	truth, gt, err := k.groundTruth(array, e.newLink(), uniq)
	if err != nil {
		return nil, err
	}
	wrote, err := e.putBricks(truth)
	if err != nil {
		return nil, err
	}
	// The manifest travels the data's wire, over the manifest RPC.
	man, err := truth.clean.FetchManifestContext(context.Background(), truth.brickRoot()+"manifest.json")
	if err != nil {
		return nil, err
	}
	if len(man.Entries) != len(wrote.Entries) {
		return nil, fmt.Errorf("harness: manifest RPC returned %d entries, wrote %d", len(man.Entries), len(wrote.Entries))
	}
	// Before any fault is armed, a like-for-like pair: the sweep through
	// the ground truth's node alone, and gathered over it and two more
	// clean uncached nodes, each behind its own link.
	pair := []*node{gt, nil, nil}
	for i := 1; i < len(pair); i++ {
		if pair[i], err = k.startNode(nil, e.newLink()); err != nil {
			return nil, err
		}
	}
	oneRun, err := truth.sweep(truth.plain(truth.clean), "1 node", uniq)
	if err != nil {
		return nil, err
	}
	ghosts := openLedger()
	shardRun, err := truth.sweep(truth.gathered(k.dialFT(breakerOptions(), pair...), man), "3 shards", uniq)
	if err != nil {
		return nil, err
	}
	dups := ghosts.delta("core.shard.ghost.dups")
	if dups == 0 {
		return nil, fmt.Errorf("harness: the ghost layer produced no duplicate points; dedup untested")
	}
	// At full scale three nodes must beat one, when the host has the
	// spare cores to run their scans in parallel; quick configurations
	// move too few bytes to clear the per-brick RPC overhead.
	if e.Cfg.AsteroidN >= 64 && runtime.NumCPU() > len(pair) && shardRun.elapsed >= oneRun.elapsed {
		return nil, fmt.Errorf("harness: sharded sweep (%v) not faster than 1 node (%v) at N=%d",
			shardRun.elapsed, oneRun.elapsed, e.Cfg.AsteroidN)
	}
	// Twice the clean median (floored at 1ms): queueing under overload
	// breaches it while a healthy server stays inside it.
	objective := max(time.Duration(2*stats.Percentile(truth.cleanRun.lats, 0.50)*float64(time.Millisecond)), time.Millisecond)
	monitor, err := attachSLO(k, core.MethodFetch, objective)
	if err != nil {
		return nil, err
	}
	led := openLedger()
	base, err := truth.run("clean burst", burst{ids: ids, via: []fetchFunc{truth.plain(truth.clean)}, workers: workers})
	if err != nil {
		return nil, err
	}
	// The learning sweep, the pair's (a fetch per brick) and the burst.
	asked := int64(len(uniq)*(2+len(man.Entries)) + len(ids))
	if reqs, passes := scans.delta("core.scan.requests"), scans.delta("core.scan.passes"); reqs != asked || passes != asked {
		return nil, fmt.Errorf("harness: the uncached servers ran %d scan passes for %d requests, want %d of each",
			passes, reqs, asked)
	}

	// Every other connection is armed: it flips bytes inside a bulk
	// payload and then dies mid-frame on a budget sized so that any one
	// filtered response fits but few do. A detected flip degrades that
	// fetch to a raw transfer, which no armed connection can carry — so
	// the others are left unarmed, and die of old age instead: long
	// enough to carry a raw array several times over, short enough that
	// re-dials, refusals and fresh armed connections keep coming for the
	// whole run.
	maxFrame := int64(truth.cleanRun.maxWire + 512)
	rawBytes := int64(4 * e.asteroidSet[e.steps[0]].Grid.NumPoints())
	lifetime := 50*time.Millisecond + 4*e.Link.TransferTime(rawBytes)
	// The payload cache has room for about one result: identical requests
	// in flight together share it, but the sweep does not fit, so every
	// round still reaches the array cache and, behind it, the store.
	opts := []core.ServerOption{core.WithCacheBytes(e.Cfg.CacheBytes), core.WithPayloadCacheBytes(maxFrame),
		core.WithMaxInFlight(2), core.WithQueue(2)}
	replicas := make([]*node, 2)
	for i := range replicas {
		n, err := k.startNode(e.corruptFS(uint64(2+i)), e.newLink(), opts...)
		if err != nil {
			return nil, err
		}
		n.link.SetFaults(&netsim.Faults{
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

	caught := 0 // accepted fetches the drains found in flight
	// Brick fetches that failed over: the gathers' own, apart from the plain client's.
	var gatherFailovers int64
	brickFailover := func(ev *telemetry.WideEvent) bool {
		path, _ := ev.Attrs["path"].(string)
		return ev.Kind == telemetry.KindClient && ev.Failovers > 0 && strings.HasPrefix(path, truth.brickRoot())
	}
	// A graceful drain sheds whatever reaches it while it waits, and a
	// killed replica what it had already read: only the sheds before a
	// round's hook, with every replica up, prove that admission control
	// fired.
	var admissionSheds int64
	count := func(counter string) int64 {
		if counter == "rpc.server.shed" {
			return admissionSheds
		}
		return led.delta(counter)
	}
	fired := func() bool {
		for _, c := range chaosClasses {
			if count(c.counter) == 0 {
				return false
			}
		}
		return caught > 0 && gatherFailovers > 0
	}
	survivor := k.dialFT(breakerOptions(), replicas[0])
	total := &tally{}
	var passes, answered int64 // the caching replicas', over the rounds
	rounds := 0
	for ; rounds < maxRounds && !fired(); rounds++ {
		round := openLedger()
		// An empty array cache makes every round read storage again, so the
		// corrupting stores keep injecting however small the sweep.
		for _, n := range replicas {
			n.srv.Cache().Reset()
		}
		drained, err := k.startNode(e.corruptFS(4), e.newLink(), append(opts, core.WithShardName(drainedName))...)
		if err != nil {
			return nil, err
		}
		gather := truth.gathered(k.dialFT(breakerOptions(), replicas[0], replicas[1], drained), man)
		done := make(chan drainResult, 1)
		sheds0 := led.delta("rpc.server.shed")
		plain := truth.plain(k.dialFT(breakerOptions(), replicas[0], replicas[1], drained))
		t, err := truth.run("chaos", burst{
			ids: ids, via: []fetchFunc{plain, gather}, workers: workers, after: len(ids) / 3, hook: func() {
				admissionSheds += led.delta("rpc.server.shed") - sheds0
				replicas[1].srv.Close()
				go func() { done <- drain(drained) }()
			}})
		if err != nil {
			return nil, err
		}
		d := <-done
		if d.err != nil {
			return nil, fmt.Errorf("harness: chaos drain: %w", d.err)
		}
		in, lost, err := d.audit()
		if err != nil {
			return nil, err
		}
		if lost > 0 {
			return nil, fmt.Errorf("harness: chaos drain lost %d of the %d fetches it had accepted", lost, in)
		}
		caught += in
		for _, step := range e.steps {
			if err := truth.sameRaw(survivor, step); err != nil {
				return nil, err
			}
		}
		if err := round.reconcile(chaosBooks...); err != nil {
			return nil, err
		}
		passes += round.delta("core.scan.passes")
		gatherFailovers += round.count(brickFailover)
		answered += round.count(answeredFetch)
		total.elapsed += t.elapsed
		total.lats = append(total.lats, t.lats...)
	}
	if !fired() {
		unfired := fmt.Sprintf(" drained in flight=%d shard failovers=%d", caught, gatherFailovers)
		for _, c := range chaosClasses {
			unfired += fmt.Sprintf(" %s=%d", c.label, count(c.counter))
		}
		return nil, fmt.Errorf("harness: chaos left a class unfired after %d rounds:%s", rounds, unfired)
	}
	if passes >= answered {
		return nil, fmt.Errorf("harness: the caching replicas ran %d scan passes for %d answered fetches, want fewer",
			passes, answered)
	}
	burn, err := checkBurn(monitor, led.delta(breachCounter))
	if err != nil {
		return nil, err
	}

	basep50, basep99 := base.p50p99()
	p50, p99 := total.p50p99()
	t := stats.NewTable(
		fmt.Sprintf("Chaos: composed faults over 3 replicas, one killed and one drained, %d-deep burst, every other fetch gathered from %d bricks (ghost %d), %d workers (%s, raw data)",
			len(ids), len(man.Entries), chaosBricks.Ghost, workers, array),
		"run", "time", "fetches", "p50", "p99", "identical")
	row(t, "clean", truth.cleanRun.elapsed, len(uniq), "", "", "ground truth")
	row(t, "1 node", oneRun.elapsed, len(uniq), "", "", "yes")
	row(t, "3 shards", shardRun.elapsed, fmt.Sprintf("%d x%d bricks", len(uniq), len(man.Entries)), "", "", "yes")
	row(t, "3 shards vs 1 node", speedupX(oneRun.elapsed, shardRun.elapsed))
	row(t, "ghost dedup", fmt.Sprintf("%d dup points over the sweep", dups))
	row(t, "clean burst", base.elapsed, len(ids), basep50, basep99, "yes")
	row(t, "chaos", total.elapsed/time.Duration(rounds), fmt.Sprintf("%d x%d", len(ids), rounds), p50, p99, "yes")
	row(t, "whole arrays", "", fmt.Sprintf("%d x%d", len(e.steps), rounds), "", "", "yes")
	row(t, "drained in flight", caught)
	row(t, "shard failovers", gatherFailovers)
	row(t, "scans per answered fetch", fmt.Sprintf("%.3f (%d/%d)", float64(passes)/float64(answered), passes, answered))
	for _, c := range chaosClasses {
		row(t, c.label, count(c.counter))
	}
	row(t, "burn gauges", objective.Round(time.Microsecond), burn.Total,
		fmt.Sprintf("avail %.2f", burn.AvailBurnFast), fmt.Sprintf("latency %.2f", burn.LatencyBurnFast), "reconciled")
	// Last, so the counts above are the run's alone.
	if err := directedBreach(k, truth, e.steps[0]); err != nil {
		return nil, err
	}
	row(t, "directed breach", "", 1, "", "", "span tree in bundle")
	return t, nil
}

// attachSLO points the process recorder at a fresh monitor holding
// method to a latency objective (90% within latency, 99.9% available)
// and a fresh bundle writer over a scratch directory, until the kit
// unwinds past it.
func attachSLO(k *kit, method string, latency time.Duration) (*telemetry.SLOMonitor, error) {
	rec := telemetry.DefaultFlightRecorder()
	dir, err := os.MkdirTemp("", "vizndp-slo-bundles-")
	if err != nil {
		return nil, err
	}
	k.onClose(func() { os.RemoveAll(dir) })
	bundles, err := telemetry.NewBundleWriter(dir)
	if err != nil {
		return nil, err
	}
	monitor := telemetry.NewSLOMonitor(telemetry.KindServer, telemetry.Objective{
		Method: method, Latency: latency, LatencyTarget: 0.9, AvailTarget: 0.999})
	prevSLO, prevBundles := rec.SLO(), rec.Bundles()
	k.onClose(func() { rec.SetSLO(prevSLO); rec.SetBundles(prevBundles) })
	rec.SetSLO(monitor)
	rec.SetBundles(bundles)
	return monitor, nil
}

// checkBurn holds the monitor's one objective to the books: its
// breaches to the breach counter's advance, and its four burn gauges to
// both its status and the burn derived from first principles,
// (bad fraction) / (error budget). The run fits inside the 5-minute
// fast window, so fast, slow and lifetime burn are one number.
func checkBurn(monitor *telemetry.SLOMonitor, breaches int64) (telemetry.SLOStatus, error) {
	st := monitor.Status()[0]
	if st.Total == 0 || st.Breaches != breaches {
		return st, fmt.Errorf("harness: SLO monitor saw %d %s events and %d breaches, breach counter advanced %d",
			st.Total, st.Method, st.Breaches, breaches)
	}
	avail, lat := float64(st.Bad)/float64(st.Total)/(1-0.999), 0.0
	if st.Executed > 0 {
		lat = float64(st.LatSlow) / float64(st.Executed) / (1 - 0.9)
	}
	for name, g := range map[string]struct{ status, expect float64 }{
		"avail.burn.fast": {st.AvailBurnFast, avail}, "avail.burn.slow": {st.AvailBurnSlow, avail},
		"latency.burn.fast": {st.LatencyBurnFast, lat}, "latency.burn.slow": {st.LatencyBurnSlow, lat},
	} {
		v := telemetry.Default().Gauge("telemetry.slo." + st.Method + "." + name).Value()
		if v != int64(1000*g.expect+0.5) || int64(1000*g.status+0.5) != v {
			return st, fmt.Errorf("harness: %s gauge %d != expected %.3f (status %.3f)", name, v, g.expect, g.status)
		}
	}
	return st, nil
}

// directedBreach holds a traced FetchRaw of step to an impossible
// objective under a fresh bundle writer (the run's is rate-limited),
// and requires the bundle it triggers to hold that trace's span tree: a
// shed-triggered bundle can legitimately lack one, for a shed request
// dies before any server span starts.
func directedBreach(k *kit, o *oracle, step int) error {
	if _, err := attachSLO(k, core.MethodFetchRaw, time.Nanosecond); err != nil {
		return err
	}
	dir := telemetry.DefaultFlightRecorder().Bundles().Dir()
	ctx, span := telemetry.StartSpan(context.Background(), "chaos.breach")
	_, _, err := o.clean.FetchRawContext(ctx, ObjectKey(o.dataset, o.codec, step), o.array)
	span.End()
	if err != nil {
		return fmt.Errorf("harness: directed-breach fetchraw: %w", err)
	}
	// The server writes the bundle after its reply reaches the client.
	var b telemetry.DebugBundle
	err = poll(func() error {
		matches, err := filepath.Glob(filepath.Join(dir, "bundle-*.json"))
		if err != nil || len(matches) == 0 {
			return fmt.Errorf("harness: directed breach wrote no bundle in %s", dir)
		}
		data, err := os.ReadFile(matches[0])
		if err != nil {
			return err
		}
		return json.Unmarshal(data, &b)
	})
	if err != nil {
		return err
	}
	if b.Trigger.Method != core.MethodFetchRaw || !b.Trigger.Breached || b.Trigger.Trace == "" ||
		len(b.Spans) == 0 || !strings.Contains(b.TraceTree, "serve "+core.MethodFetchRaw) {
		return fmt.Errorf("harness: breach bundle lacks the breaching %s trace's span tree (trigger %s, breached %v, trace %q, %d spans)",
			core.MethodFetchRaw, b.Trigger.Method, b.Trigger.Breached, b.Trigger.Trace, len(b.Spans))
	}
	for _, s := range b.Spans {
		if s.TraceHex != b.Trigger.Trace {
			return fmt.Errorf("harness: bundle span %s belongs to trace %s, trigger is %s", s.Name, s.TraceHex, b.Trigger.Trace)
		}
	}
	return nil
}

// drainResult is one graceful drain: Shutdown's error, the ledger
// opened as it began, and the ring's position when Shutdown returned.
type drainResult struct {
	led      *ledger
	returned uint64
	err      error
}

// drain gracefully shuts n down.
func drain(n *node) drainResult {
	led := openLedger()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := n.srv.Shutdown(ctx)
	return drainResult{led: led, returned: led.rec.Seq(), err: err}
}

// audit counts the fetches the drained replica still had in flight when
// the drain began — every event stamped drainedName that the ring
// recorded since (a shed request never reaches the handler that stamps
// it) — and how many of them were lost: answered with no bytes, or
// finished only after Shutdown had returned, which a drain that waits
// for accepted work never lets happen. Run it once the burst is over,
// so a handler a drain cut loose has had time to finish.
func (d drainResult) audit() (in, lost int, err error) {
	err = d.led.awaitEvents(func(evs []telemetry.WideEvent) error {
		in, lost = 0, 0
		for i := range evs {
			if evs[i].Attrs["shard"] != drainedName {
				continue
			}
			in++
			if evs[i].BytesOut == 0 || evs[i].Seq > d.returned {
				lost++
			}
		}
		return nil
	})
	return in, lost, err
}

// corruptFS mounts the object store through a seeded injector that
// flips bits, zeroes pages and truncates every 2nd sufficiently large
// read; variant separates the seeds of the injectors one run uses.
func (e *Env) corruptFS(variant uint64) *objstore.CorruptFS {
	return objstore.NewCorruptFS(s3fs.New(e.local, Bucket), objstore.CorruptOptions{
		Seed:        uint64(e.Cfg.Seed) + variant,
		Every:       2,
		MinReadSize: 8192,
	})
}
