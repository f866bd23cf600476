package harness

import (
	"fmt"
	"net"
	"time"

	"vizndp/internal/compress"
	"vizndp/internal/core"
	"vizndp/internal/netsim"
	"vizndp/internal/rpc"
	"vizndp/internal/s3fs"
	"vizndp/internal/stats"
	"vizndp/internal/telemetry"
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
	const dataset = "asteroid"
	codec := compress.None

	// Dedicated link and server so injected faults cannot leak into the
	// environment's shared data path.
	link := netsim.NewLink(e.Cfg.LinkBits, e.Cfg.LinkLatency)
	srv := core.NewServer(s3fs.New(e.local, Bucket))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go srv.Serve(link.Listener(ln))
	defer srv.Close()
	addr := ln.Addr().String()

	retries := telemetry.Default().Counter("rpc.client.retries")
	reconnects := telemetry.Default().Counter("rpc.client.reconnects")
	fallbacks := telemetry.Default().Counter("core.client.fallbacks")

	type fetchID struct {
		step int
		iso  float64
	}
	// sweep fetches every (timestep, contour value) pair once, returning
	// the elapsed time, each payload's bytes, the largest payload, and how
	// many fetches were served degraded.
	sweep := func(c *core.Client) (time.Duration, map[fetchID]string, int, int, error) {
		payloads := make(map[fetchID]string)
		maxPayload, degraded := 0, 0
		start := time.Now()
		for _, step := range e.steps {
			key := ObjectKey(dataset, codec, step)
			for _, iso := range e.Cfg.ContourValues {
				p, st, err := c.FetchFiltered(key, array, []float64{iso}, e.Cfg.Encoding)
				if err != nil {
					return 0, nil, 0, 0, fmt.Errorf("harness: step %d iso %g: %w", step, iso, err)
				}
				payloads[fetchID{step, iso}] = string(p.Data)
				if w := p.WireSize(); w > maxPayload {
					maxPayload = w
				}
				if st.Degraded {
					degraded++
				}
			}
		}
		return time.Since(start), payloads, maxPayload, degraded, nil
	}
	nFetches := len(e.steps) * len(e.Cfg.ContourValues)

	// Run 1: clean ground truth over the not-yet-faulty link.
	clean, err := core.Dial(addr, link.Dial)
	if err != nil {
		return nil, err
	}
	cleanTime, want, maxPayload, _, err := sweep(clean)
	clean.Close()
	if err != nil {
		return nil, err
	}

	// Run 2: the same sweep under the fault schedule. Budgets are sized
	// from the measured payloads: every connection is armed, but a fresh
	// connection's budget always exceeds the largest single response, so
	// any one retry can succeed while no connection survives more than a
	// few fetches — kills, re-dials, and therefore dial refusals keep
	// firing for the whole sweep.
	maxFrame := int64(maxPayload + 512) // msgpack envelope + stats headroom
	faults := &netsim.Faults{
		Seed:            11,
		RefuseDialEvery: 3,
		KillConnEvery:   1,
		KillAfterBytes:  maxFrame + maxFrame/2,
		JitterBytes:     maxFrame / 2,
		SpikeEvery:      5,
		SpikeLatency:    time.Millisecond,
	}
	link.SetFaults(faults)
	r0, c0, f0 := retries.Value(), reconnects.Value(), fallbacks.Value()
	ft := core.DialFaultTolerant([]string{addr}, link.Dial, rpc.ReconnectOptions{
		MaxAttempts:    8,
		InitialBackoff: time.Millisecond,
		MaxBackoff:     20 * time.Millisecond,
		Seed:           11,
	})
	// Small configurations move too few bytes in one sweep to exhaust a
	// connection budget, so repeat the sweep (faults keep accumulating
	// across rounds) until every class has fired, verifying every round.
	const maxRounds = 20
	var faultTime time.Duration
	var fs netsim.FaultStats
	rounds, ftDegraded := 0, 0
	for rounds < maxRounds {
		rt, got, _, dgr, serr := sweep(ft)
		if serr != nil {
			ft.Close()
			link.SetFaults(nil)
			return nil, serr
		}
		faultTime += rt
		ftDegraded += dgr
		rounds++
		for id, p := range want {
			if got[id] != p {
				ft.Close()
				link.SetFaults(nil)
				return nil, fmt.Errorf("harness: faulted payload differs at step %d iso %g",
					id.step, id.iso)
			}
		}
		fs = faults.Stats()
		if fs.DialsRefused > 0 && fs.ConnsKilled > 0 && fs.FramesTruncated > 0 && fs.LatencySpikes > 0 {
			break
		}
	}
	ft.Close()
	link.SetFaults(nil)
	fr, fc, ff := retries.Value()-r0, reconnects.Value()-c0, fallbacks.Value()-f0
	if fs.DialsRefused == 0 || fs.ConnsKilled == 0 || fs.FramesTruncated == 0 || fs.LatencySpikes == 0 {
		return nil, fmt.Errorf("harness: fault schedule left a class uninjected after %d sweeps: %s",
			rounds, fs)
	}

	// Run 3: force graceful degradation. The first (and only armed)
	// connection dies almost immediately; the client may not retry Fetch,
	// so it must fall back to Describe + FetchRaw + a local pre-filter on
	// the replacement connection.
	retryable := core.RetryableMethods()
	retryable[core.MethodFetch] = false
	link.SetFaults(&netsim.Faults{
		Seed:           11,
		KillConnEvery:  1 << 30, // only the first connection is armed
		KillAfterBytes: 128,
	})
	defer link.SetFaults(nil)
	deg := core.DialFaultTolerant([]string{addr}, link.Dial, rpc.ReconnectOptions{
		MaxAttempts:    4,
		InitialBackoff: time.Millisecond,
		MaxBackoff:     20 * time.Millisecond,
		Retryable:      retryable,
		Seed:           11,
	})
	defer deg.Close()
	r0, c0, f0 = retries.Value(), reconnects.Value(), fallbacks.Value()
	step := e.steps[len(e.steps)/2]
	iso := e.Cfg.ContourValues[0]
	degStart := time.Now()
	p, st, err := deg.FetchFiltered(ObjectKey(dataset, codec, step), array,
		[]float64{iso}, e.Cfg.Encoding)
	if err != nil {
		return nil, err
	}
	degTime := time.Since(degStart)
	if !st.Degraded {
		return nil, fmt.Errorf("harness: no-retry fetch was not served degraded")
	}
	if string(p.Data) != want[fetchID{step, iso}] {
		return nil, fmt.Errorf("harness: degraded payload differs from clean run")
	}
	dr, dc, df := retries.Value()-r0, reconnects.Value()-c0, fallbacks.Value()-f0

	t := stats.NewTable(
		fmt.Sprintf("Fault tolerance: contour sweep under injected faults (%s, raw data)", array),
		"run", "time", "fetches", "degraded", "retries", "reconnects", "fallbacks", "identical")
	t.AddRow("clean", stats.FormatDuration(cleanTime),
		fmt.Sprintf("%d", nFetches), "0", "0", "0", "0", "ground truth")
	t.AddRow("faulted", stats.FormatDuration(faultTime/time.Duration(rounds)),
		fmt.Sprintf("%d x%d", nFetches, rounds), fmt.Sprintf("%d", ftDegraded),
		fmt.Sprintf("%d", fr), fmt.Sprintf("%d", fc), fmt.Sprintf("%d", ff), "yes")
	t.AddRow("no-retry fallback", stats.FormatDuration(degTime),
		"1", "1",
		fmt.Sprintf("%d", dr), fmt.Sprintf("%d", dc), fmt.Sprintf("%d", df), "yes")
	t.AddRow("recovery overhead",
		fmt.Sprintf("%.2fx", float64(faultTime)/float64(rounds)/float64(cleanTime)),
		"", "", "", "", "", "")
	t.AddRow("injected", fs.String(), "", "", "", "", "", "")
	return t, nil
}
