package harness

import (
	"context"
	"errors"
	"fmt"
	"time"

	"vizndp/internal/compress"
	"vizndp/internal/core"
	"vizndp/internal/netsim"
	"vizndp/internal/objstore"
	"vizndp/internal/rpc"
	"vizndp/internal/s3fs"
	"vizndp/internal/stats"
	"vizndp/internal/telemetry"
	"vizndp/internal/vtkio"
)

// integrityPrefix is where the scrub phase's single-step bricked
// dataset lives. One timestep only: the per-entry manifest CRCs pin
// exact object bytes, which is only well-defined when one object
// backs each entry.
const integrityPrefix = "integrity/"

// CorruptExperiment runs the stock contour sweep under end-to-end data
// corruption and gates on exact recovery:
//
//  1. clean — no corruption; its payloads are the ground truth;
//  2. corrupted — the same sweep while a seeded objstore.CorruptFS
//     flips bits, zeroes pages, and truncates every other storage read
//     AND a netsim fault schedule XOR-flips response bytes in flight; a
//     fault-tolerant client must return bit-identical payloads, every
//     corruption class must actually fire, and the server must have
//     detected storage corruption (page CRCs) rather than shipping it;
//  3. cache hygiene — a caching server over the same corrupting store
//     runs the sweep cold then warm; the warm sweep's payloads must be
//     bit-identical, proving nothing corrupt was ever admitted to the
//     decoded-array cache;
//  4. scrub — a single-step bricked dataset with manifest CRCs gets two
//     of its objects damaged in place; a scrub pass must quarantine
//     exactly those objects (reconciling with its counters and flight-
//     recorder event), after which a server consulting the scrubber
//     rejects the quarantined paths with rpc.ErrCorrupt while clean
//     siblings stay servable.
func (e *Env) CorruptExperiment(array string) (*stats.Table, error) {
	k := e.newKit()
	defer k.close()
	ids := e.sweepIDs(e.steps)

	// Phase 1: clean ground truth over a dedicated, unfaulted path.
	truth, _, err := k.groundTruth(array, e.newLink(), ids)
	if err != nil {
		return nil, err
	}

	// Phase 2: the sweep under storage AND wire corruption. The store
	// injects into every 2nd sufficiently large read — a failed attempt's
	// retry lands on the clean ordinal — and the link XOR-flips response
	// bytes once each connection has carried a couple of KB. MinReadSize
	// exempts header-sized framing reads so injections land in array
	// extents, where the page CRCs must catch them.
	cfs := e.corruptFS(0)
	corrNode, err := k.startNode(cfs, e.newLink())
	if err != nil {
		return nil, err
	}
	wireFaults := &netsim.Faults{
		Seed:              11,
		CorruptConnEvery:  1, // every connection's responses are armed
		CorruptAfterBytes: 2048,
		CorruptBytes:      16,
	}
	corrNode.setFaults(wireFaults)
	led := openLedger()
	var cs objstore.CorruptStats
	var ws netsim.FaultStats
	rounds, corrTime, _, err := truth.sweepUntil(k.dialFT(retryOptions(8), corrNode), "corrupted", ids, func() bool {
		cs, ws = cfs.Stats(), wireFaults.Stats()
		return cs.Bitflips > 0 && cs.ZeroPages > 0 && cs.Truncations > 0 && ws.Corruptions > 0
	})
	if err != nil {
		return nil, err
	}
	if cs.Bitflips == 0 || cs.ZeroPages == 0 || cs.Truncations == 0 || ws.Corruptions == 0 {
		return nil, fmt.Errorf("harness: corruption classes left unfired after %d sweeps: "+
			"%d bitflips, %d zeropages, %d truncations, %d wire", rounds,
			cs.Bitflips, cs.ZeroPages, cs.Truncations, ws.Corruptions)
	}
	sDet := led.delta("ndp.fetch.corrupt")
	if sDet == 0 {
		return nil, fmt.Errorf("harness: server never detected storage corruption over %d injections", cs.Injected)
	}
	sweepRetries, sweepFallbacks := led.delta("rpc.client.retries"), led.delta("core.client.fallbacks")
	wireDet := led.delta("core.client.corrupt.wire")

	// Phase 3: cache hygiene. A caching server over a fresh corrupting
	// store runs the sweep cold — every admission happens while the
	// injector is live — then warm. Identical warm payloads prove the
	// cache never admitted corrupt bytes (detection evicts, see
	// Server.failCorrupt).
	hygNode, err := k.startNode(e.corruptFS(1), e.newLink(), core.WithCacheBytes(e.Cfg.CacheBytes))
	if err != nil {
		return nil, err
	}
	hc := k.dialFT(retryOptions(8), hygNode)
	if _, err := truth.sweep(hc, "cold cache", ids); err != nil {
		return nil, err
	}
	warmRun, err := truth.sweep(hc, "warm cache", ids)
	if err != nil {
		return nil, fmt.Errorf("harness: warm cache served corrupt bytes: %w", err)
	}
	if hygNode.srv.Cache().Len() == 0 {
		return nil, fmt.Errorf("harness: cache-hygiene server cached nothing; the warm sweep proved nothing")
	}

	// Phase 4: near-data scrubbing. Build the single-step integrity
	// dataset, damage two of its three bricks in place, and demand the
	// scrub pass quarantines exactly those.
	led = openLedger()
	brickKeys, err := e.populateIntegrityBricks()
	if err != nil {
		return nil, err
	}
	damaged := brickKeys[:2]
	sc := core.NewScrubber(s3fs.New(e.local, Bucket), integrityPrefix+"manifest.json")
	rep, err := sc.RunOnce(context.Background())
	if err != nil {
		return nil, err
	}
	if rep.Corrupt != len(damaged) || rep.Quarantined != len(damaged) {
		return nil, fmt.Errorf("harness: scrub pass found %d corrupt / %d quarantined, want %d of each (report %+v)",
			rep.Corrupt, rep.Quarantined, len(damaged), rep)
	}
	if rep.Scanned != len(brickKeys)-len(damaged) {
		return nil, fmt.Errorf("harness: scrub pass verified %d objects, want %d", rep.Scanned, len(brickKeys)-len(damaged))
	}
	// The pass's counters and flight-recorder wide event must agree with
	// the report — the operator-facing numbers may not drift from truth.
	if d := led.delta("core.scrub.scanned"); d != int64(rep.Scanned) {
		return nil, fmt.Errorf("harness: core.scrub.scanned advanced %d, report says %d", d, rep.Scanned)
	}
	err = led.awaitEvents(func(evs []telemetry.WideEvent) error {
		for _, ev := range evs {
			if ev.Method == "scrub.pass" && fmt.Sprint(ev.Attrs["corrupt"]) == fmt.Sprint(rep.Corrupt) &&
				fmt.Sprint(ev.Attrs["quarantined"]) == fmt.Sprint(rep.Quarantined) {
				return nil
			}
		}
		return fmt.Errorf("harness: no scrub.pass flight event agrees with the report (corrupt=%d quarantined=%d)",
			rep.Corrupt, rep.Quarantined)
	})
	if err != nil {
		return nil, err
	}

	// A server consulting the scrubber refuses the quarantined paths
	// outright and keeps serving the clean sibling.
	qNode, err := k.startNode(nil, nil, core.WithScrubber(sc))
	if err != nil {
		return nil, err
	}
	qc, err := qNode.dial()
	if err != nil {
		return nil, err
	}
	fetchBrick := func(c *core.Client, key string) error {
		_, _, err := c.FetchFiltered(key, array, e.Cfg.ContourValues[:1], core.EncAuto)
		return err
	}
	for _, key := range damaged {
		if err := fetchBrick(qc, key); !errors.Is(err, rpc.ErrCorrupt) {
			return nil, fmt.Errorf("harness: quarantined %s fetch = %w, want rpc.ErrCorrupt", key, err)
		}
	}
	if err := fetchBrick(qc, brickKeys[len(brickKeys)-1]); err != nil {
		return nil, fmt.Errorf("harness: clean sibling fetch after quarantine: %w", err)
	}

	t := stats.NewTable(
		fmt.Sprintf("Data integrity: contour sweep under injected corruption (%s, raw data)", array),
		"run", "time", "fetches", "retries", "fallbacks", "identical")
	row(t, "clean", truth.cleanRun.elapsed, len(ids), 0, 0, "ground truth")
	row(t, "corrupted", corrTime/time.Duration(rounds), fmt.Sprintf("%d x%d", len(ids), rounds),
		sweepRetries, sweepFallbacks, "yes")
	row(t, "warm cache", warmRun.elapsed, len(ids), "", "", "yes")
	row(t, "injected storage", fmt.Sprintf("%d of %d reads: %d bitflips, %d zeropages, %d truncations",
		cs.Injected, cs.Reads, cs.Bitflips, cs.ZeroPages, cs.Truncations))
	row(t, "injected wire", fmt.Sprintf("%d chunks flipped in flight", ws.Corruptions))
	row(t, "detected", fmt.Sprintf("%d storage (page CRC), %d wire (response CRC)", sDet, wireDet))
	row(t, "scrub", fmt.Sprintf("%d scanned, %d corrupt, %d quarantined of %d bricks",
		rep.Scanned, rep.Corrupt, rep.Quarantined, len(brickKeys)))
	row(t, "quarantine", fmt.Sprintf("%d paths rejected with ErrCorrupt, sibling servable", len(damaged)))
	return t, nil
}

// corruptFS mounts the object store through a seeded injector that
// flips bits, zeroes pages and truncates every 2nd sufficiently large
// read; variant separates the seeds of the injectors one experiment runs.
func (e *Env) corruptFS(variant uint64) *objstore.CorruptFS {
	return objstore.NewCorruptFS(s3fs.New(e.local, Bucket), objstore.CorruptOptions{
		Seed:        uint64(e.Cfg.Seed) + variant,
		Every:       2,
		MinReadSize: 8192,
	})
}

// populateIntegrityBricks writes the scrub phase's single-step bricked
// dataset — page-checksummed bricks beside a manifest whose entries pin
// each object's whole-file CRC — then damages the first two brick
// objects in place. Returns every brick's object key, damaged first.
func (e *Env) populateIntegrityBricks() ([]string, error) {
	ds := e.asteroidSet[e.steps[0]]
	man, err := vtkio.BuildManifest(ds.Grid, shardSpec, ds.FieldNames(), 0)
	if err != nil {
		return nil, err
	}
	keys, objects, err := e.putBricks(integrityPrefix, ds, man, compress.LZ4)
	if err != nil {
		return nil, err
	}
	for i, obj := range objects {
		man.Entries[i].Checksum = vtkio.Checksum(obj)
	}
	if err := e.putManifest(integrityPrefix+"manifest.json", man); err != nil {
		return nil, err
	}
	for i, key := range keys[:2] {
		// In-place damage: one flipped bit mid-object, exactly what a
		// decaying disk hands back.
		obj := objects[i]
		obj[len(obj)/2] ^= 0x10
		if err := e.local.Put(Bucket, key, obj); err != nil {
			return nil, err
		}
	}
	return keys, nil
}
