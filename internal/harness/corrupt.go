package harness

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"vizndp/internal/compress"
	"vizndp/internal/core"
	"vizndp/internal/grid"
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
	const dataset = "asteroid"
	codec := compress.None

	type fetchID struct {
		step int
		iso  float64
	}
	nFetches := len(e.steps) * len(e.Cfg.ContourValues)

	// sweep fetches every (timestep, contour value) pair once.
	sweep := func(c *core.Client) (time.Duration, map[fetchID]string, int, error) {
		payloads := make(map[fetchID]string)
		maxPayload := 0
		start := time.Now()
		for _, step := range e.steps {
			key := ObjectKey(dataset, codec, step)
			for _, iso := range e.Cfg.ContourValues {
				p, _, err := c.FetchFiltered(key, array, []float64{iso}, e.Cfg.Encoding)
				if err != nil {
					return 0, nil, 0, fmt.Errorf("harness: step %d iso %g: %w", step, iso, err)
				}
				payloads[fetchID{step, iso}] = string(p.Data)
				if w := p.WireSize(); w > maxPayload {
					maxPayload = w
				}
			}
		}
		return time.Since(start), payloads, maxPayload, nil
	}
	sameAsTruth := func(got, want map[fetchID]string) error {
		for id, p := range want {
			if got[id] != p {
				return fmt.Errorf("harness: corrupted payload differs at step %d iso %g", id.step, id.iso)
			}
		}
		return nil
	}

	// Phase 1: clean ground truth over a dedicated, unfaulted path.
	cleanLink := netsim.NewLink(e.Cfg.LinkBits, e.Cfg.LinkLatency)
	cleanSrv := core.NewServer(s3fs.New(e.local, Bucket))
	cleanLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go cleanSrv.Serve(cleanLink.Listener(cleanLn))
	defer cleanSrv.Close()
	clean, err := core.Dial(cleanLn.Addr().String(), cleanLink.Dial)
	if err != nil {
		return nil, err
	}
	cleanTime, want, _, err := sweep(clean)
	clean.Close()
	if err != nil {
		return nil, err
	}

	// Phase 2: the sweep under storage AND wire corruption. The store
	// injects into every 2nd sufficiently large read — a failed attempt's
	// retry lands on the clean ordinal — and the link XOR-flips response
	// bytes once each connection has carried a couple of KB. MinReadSize
	// exempts header-sized framing reads so injections land in array
	// extents, where the page CRCs must catch them.
	cfs := objstore.NewCorruptFS(s3fs.New(e.local, Bucket), objstore.CorruptOptions{
		Seed:        uint64(e.Cfg.Seed),
		Every:       2,
		MinReadSize: 8192,
	})
	corrLink := netsim.NewLink(e.Cfg.LinkBits, e.Cfg.LinkLatency)
	corrSrv := core.NewServer(cfs)
	corrLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go corrSrv.Serve(corrLink.Listener(corrLn))
	defer corrSrv.Close()
	wireFaults := &netsim.Faults{
		Seed:              11,
		CorruptConnEvery:  1, // every connection's responses are armed
		CorruptAfterBytes: 2048,
		CorruptBytes:      16,
	}
	corrLink.SetFaults(wireFaults)
	defer corrLink.SetFaults(nil)

	retries := telemetry.Default().Counter("rpc.client.retries")
	fallbacks := telemetry.Default().Counter("core.client.fallbacks")
	serverCorrupt := telemetry.Default().Counter("ndp.fetch.corrupt")
	wireCorrupt := telemetry.Default().Counter("core.client.corrupt.wire")
	r0, f0, s0, w0 := retries.Value(), fallbacks.Value(), serverCorrupt.Value(), wireCorrupt.Value()

	ct := core.DialFaultTolerant([]string{corrLn.Addr().String()}, corrLink.Dial, rpc.ReconnectOptions{
		MaxAttempts:    8,
		InitialBackoff: time.Millisecond,
		MaxBackoff:     20 * time.Millisecond,
		Seed:           11,
	})
	// Small configurations take few enough reads per sweep that one round
	// may not rotate through every injection class; repeat (the injector
	// keeps counting across rounds) until storage has fired all three
	// classes and the wire class has fired, verifying every round.
	const maxRounds = 20
	var corrTime time.Duration
	var cs objstore.CorruptStats
	rounds := 0
	for rounds < maxRounds {
		rt, got, _, serr := sweep(ct)
		if serr != nil {
			ct.Close()
			return nil, serr
		}
		corrTime += rt
		rounds++
		if err := sameAsTruth(got, want); err != nil {
			ct.Close()
			return nil, err
		}
		cs = cfs.Stats()
		if cs.Bitflips > 0 && cs.ZeroPages > 0 && cs.Truncations > 0 &&
			wireFaults.Stats().Corruptions > 0 {
			break
		}
	}
	ct.Close()
	corrLink.SetFaults(nil)
	cs = cfs.Stats()
	ws := wireFaults.Stats()
	if cs.Bitflips == 0 || cs.ZeroPages == 0 || cs.Truncations == 0 || ws.Corruptions == 0 {
		return nil, fmt.Errorf("harness: corruption classes left unfired after %d sweeps: "+
			"%d bitflips, %d zeropages, %d truncations, %d wire", rounds,
			cs.Bitflips, cs.ZeroPages, cs.Truncations, ws.Corruptions)
	}
	sDet := serverCorrupt.Value() - s0
	if sDet == 0 {
		return nil, fmt.Errorf("harness: server never detected storage corruption over %d injections", cs.Injected)
	}
	sweepRetries, sweepFallbacks := retries.Value()-r0, fallbacks.Value()-f0
	wireDet := wireCorrupt.Value() - w0

	// Phase 3: cache hygiene. A caching server over a fresh corrupting
	// store runs the sweep cold — every admission happens while the
	// injector is live — then warm. Identical warm payloads prove the
	// cache never admitted corrupt bytes (detection evicts, see
	// Server.failCorrupt).
	hfs := objstore.NewCorruptFS(s3fs.New(e.local, Bucket), objstore.CorruptOptions{
		Seed:        uint64(e.Cfg.Seed) + 1,
		Every:       2,
		MinReadSize: 8192,
	})
	hygLink := netsim.NewLink(e.Cfg.LinkBits, e.Cfg.LinkLatency)
	hygSrv := core.NewServer(hfs, core.WithCacheBytes(e.Cfg.CacheBytes))
	hygLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go hygSrv.Serve(hygLink.Listener(hygLn))
	defer hygSrv.Close()
	hc := core.DialFaultTolerant([]string{hygLn.Addr().String()}, hygLink.Dial, rpc.ReconnectOptions{
		MaxAttempts:    8,
		InitialBackoff: time.Millisecond,
		MaxBackoff:     20 * time.Millisecond,
		Seed:           11,
	})
	_, cold, _, err := sweep(hc)
	if err != nil {
		hc.Close()
		return nil, err
	}
	if err := sameAsTruth(cold, want); err != nil {
		hc.Close()
		return nil, err
	}
	warmStart := time.Now()
	_, warm, _, err := sweep(hc)
	warmTime := time.Since(warmStart)
	hc.Close()
	if err != nil {
		return nil, err
	}
	if err := sameAsTruth(warm, want); err != nil {
		return nil, fmt.Errorf("harness: warm cache served corrupt bytes: %w", err)
	}
	if hygSrv.Cache().Len() == 0 {
		return nil, fmt.Errorf("harness: cache-hygiene server cached nothing; the warm sweep proved nothing")
	}

	// Phase 4: near-data scrubbing. Build the single-step integrity
	// dataset, damage two of its three bricks in place, and demand the
	// scrub pass quarantines exactly those.
	scanned0 := telemetry.Default().Counter("core.scrub.scanned").Value()
	brickKeys, err := e.populateIntegrityBricks(dataset)
	if err != nil {
		return nil, err
	}
	damaged := brickKeys[:2]
	sc := core.NewScrubber(s3fs.New(e.local, Bucket), integrityPrefix+"manifest.json")
	// vizlint:ignore ctxflow experiment scrub root: the pass runs standalone with no upstream caller deadline
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
	if d := telemetry.Default().Counter("core.scrub.scanned").Value() - scanned0; d != int64(rep.Scanned) {
		return nil, fmt.Errorf("harness: core.scrub.scanned advanced %d, report says %d", d, rep.Scanned)
	}
	evs := telemetry.DefaultFlightRecorder().Events(telemetry.EventFilter{Method: "scrub.pass"})
	if len(evs) == 0 {
		return nil, fmt.Errorf("harness: scrub pass left no flight-recorder event")
	}
	last := evs[len(evs)-1]
	if fmt.Sprint(last.Attrs["corrupt"]) != fmt.Sprint(rep.Corrupt) ||
		fmt.Sprint(last.Attrs["quarantined"]) != fmt.Sprint(rep.Quarantined) {
		return nil, fmt.Errorf("harness: flight event (corrupt=%v quarantined=%v) disagrees with report (%d, %d)",
			last.Attrs["corrupt"], last.Attrs["quarantined"], rep.Corrupt, rep.Quarantined)
	}

	// A server consulting the scrubber refuses the quarantined paths
	// outright and keeps serving the clean sibling.
	qsrv := core.NewServer(s3fs.New(e.local, Bucket), core.WithScrubber(sc))
	qln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go qsrv.Serve(qln)
	defer qsrv.Close()
	qc, err := core.Dial(qln.Addr().String(), nil)
	if err != nil {
		return nil, err
	}
	defer qc.Close()
	for _, key := range damaged {
		if _, _, err := qc.FetchFiltered(key, array, e.Cfg.ContourValues[:1], e.Cfg.Encoding); !errors.Is(err, rpc.ErrCorrupt) {
			return nil, fmt.Errorf("harness: quarantined %s fetch = %w, want rpc.ErrCorrupt", key, err)
		}
	}
	if _, _, err := qc.FetchFiltered(brickKeys[len(brickKeys)-1], array, e.Cfg.ContourValues[:1], e.Cfg.Encoding); err != nil {
		return nil, fmt.Errorf("harness: clean sibling fetch after quarantine: %w", err)
	}

	t := stats.NewTable(
		fmt.Sprintf("Data integrity: contour sweep under injected corruption (%s, raw data)", array),
		"run", "time", "fetches", "retries", "fallbacks", "identical")
	t.AddRow("clean", stats.FormatDuration(cleanTime),
		fmt.Sprintf("%d", nFetches), "0", "0", "ground truth")
	t.AddRow("corrupted", stats.FormatDuration(corrTime/time.Duration(rounds)),
		fmt.Sprintf("%d x%d", nFetches, rounds),
		fmt.Sprintf("%d", sweepRetries), fmt.Sprintf("%d", sweepFallbacks), "yes")
	t.AddRow("warm cache", stats.FormatDuration(warmTime),
		fmt.Sprintf("%d", nFetches), "", "", "yes")
	t.AddRow("injected storage",
		fmt.Sprintf("%d of %d reads: %d bitflips, %d zeropages, %d truncations",
			cs.Injected, cs.Reads, cs.Bitflips, cs.ZeroPages, cs.Truncations),
		"", "", "", "")
	t.AddRow("injected wire", fmt.Sprintf("%d chunks flipped in flight", ws.Corruptions),
		"", "", "", "")
	t.AddRow("detected", fmt.Sprintf("%d storage (page CRC), %d wire (response CRC)", sDet, wireDet),
		"", "", "", "")
	t.AddRow("scrub", fmt.Sprintf("%d scanned, %d corrupt, %d quarantined of %d bricks",
		rep.Scanned, rep.Corrupt, rep.Quarantined, len(brickKeys)),
		"", "", "", "")
	t.AddRow("quarantine", fmt.Sprintf("%d paths rejected with ErrCorrupt, sibling servable", len(damaged)),
		"", "", "", "")
	return t, nil
}

// populateIntegrityBricks writes the scrub phase's single-step bricked
// dataset — page-checksummed bricks beside a manifest whose entries pin
// each object's whole-file CRC — then damages the first two brick
// objects in place. Returns every brick's object key, damaged first.
func (e *Env) populateIntegrityBricks(dataset string) ([]string, error) {
	ds := e.AsteroidDataset(e.steps[0])
	man, err := vtkio.BuildManifest(ds.Grid, shardSpec, ds.FieldNames(), 0)
	if err != nil {
		return nil, err
	}
	bricks, err := man.GridBricks()
	if err != nil {
		return nil, err
	}
	keys := make([]string, len(bricks))
	objects := make([][]byte, len(bricks))
	for i, b := range bricks {
		sub, err := grid.ExtractBrick(ds, b)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := vtkio.Write(&buf, sub, vtkio.WriteOptions{Codec: compress.LZ4, Checksum: true}); err != nil {
			return nil, err
		}
		objects[i] = append([]byte(nil), buf.Bytes()...)
		man.Entries[i].Checksum = vtkio.Checksum(objects[i])
		keys[i] = integrityPrefix + vtkio.BrickKey(b.ID)
	}
	data, err := vtkio.EncodeManifest(man)
	if err != nil {
		return nil, err
	}
	if err := e.local.Put(Bucket, integrityPrefix+"manifest.json", data); err != nil {
		return nil, err
	}
	for i, key := range keys {
		obj := objects[i]
		if i < 2 {
			// In-place damage: one flipped bit mid-object, exactly what a
			// decaying disk hands back.
			obj = append([]byte(nil), obj...)
			obj[len(obj)/2] ^= 0x10
		}
		if err := e.local.Put(Bucket, key, obj); err != nil {
			return nil, err
		}
	}
	return keys, nil
}
