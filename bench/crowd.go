package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vizndp/internal/grid"
	"vizndp/internal/stats"
)

// crowdTimeout is each crowd request's deadline. It rides to the server,
// which stops working on a request nobody waits for any longer.
const crowdTimeout = time.Second

// crowdReplayEvery thins a traced crowd's replays to every n-th request;
// a replay costs ten times the request it explains.
const crowdReplayEvery = 6

// crowdRun drives the crowd workload: many independent users on one
// storage node, over p.conns multiplexed connections.
type crowdRun struct {
	tb       *testbed
	p        plan
	keys     []op
	refs     []signature // by key: the verified NDP result
	baseRefs []signature // by key: a correct whole-array load
	deadline time.Time   // closed loops stop here (see plan.wallLimit)
	cut      atomic.Bool // a closed loop was stopped by the deadline
}

// newCrowdRun fetches every key once, in order, through one connection
// and checks it against the oracle; the signatures are what the phases
// compare against. It also leaves the array cache warm.
func newCrowdRun(tb *testbed, p plan) (*crowdRun, error) {
	cr := &crowdRun{tb: tb, p: p, keys: crowdKeySet(tb.steps)}
	cr.refs = make([]signature, len(cr.keys))
	cr.baseRefs = make([]signature, len(cr.keys))
	hashes := make(map[*grid.Field]uint32) // one hash per distinct field
	for i := range cr.keys {
		o := &cr.keys[i]
		res, err := tb.exec(context.Background(), tb.clients[0], o, nil)
		if err != nil {
			return nil, fmt.Errorf("verification: %s: %w", o, err)
		}
		if err := tb.verify(o, res); err != nil {
			return nil, fmt.Errorf("verification: %w", err)
		}
		cr.refs[i] = res.sig
		_, f, err := tb.truth(o)
		if err != nil {
			return nil, err
		}
		h, ok := hashes[f]
		if !ok {
			h = floatsHash(f.Values)
			hashes[f] = h
		}
		cr.baseRefs[i] = signature{bytes: 4 * len(f.Values), valSum: h}
	}
	return cr, nil
}

// one issues request number k of a sequence for key and reports whether
// it returned the verified bytes. A shed (rpc.ErrBusy), an expired
// deadline and a mismatch are all failures; nothing is retried.
func (cr *crowdRun) one(k, key int, ot *opTrace) (*opResult, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), crowdTimeout)
	defer cancel()
	res, err := cr.tb.exec(ctx, cr.tb.clients[k%len(cr.tb.clients)], &cr.keys[key], ot)
	if err != nil {
		return &opResult{}, false
	}
	return res, res.sig == cr.refs[key]
}

// baselineOne is what a user without NDP does for the same key: load the
// whole array over the shared link.
func (cr *crowdRun) baselineOne(key int) (*op, *opResult, bool) {
	o := cr.keys[key]
	o.kind, o.class = kindBaseline, clsBaseLZ4
	res, err := cr.tb.exec(context.Background(), nil, &o, nil)
	if err != nil {
		return &o, &opResult{}, false
	}
	return &o, res, res.sig == cr.baseRefs[key]
}

// closedLoop runs the ops of seq with `workers` requests in flight: each
// worker sends its next request only after its previous one completed.
// baseline swaps the NDP fetch for the whole-array load. It returns when,
// in ms since the phase began, each verified op completed, in order.
func (cr *crowdRun) closedLoop(m *measurement, seq []int, workers int, baseline bool) (doneMs []float64) {
	var next atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	start := time.Now()
	done := func(ok bool) {
		if ok {
			mu.Lock()
			doneMs = append(doneMs, ms(time.Since(start)))
			mu.Unlock()
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(seq) {
					return
				}
				if time.Now().After(cr.deadline) {
					cr.cut.Store(true)
					return
				}
				if baseline {
					o, res, ok := cr.baselineOne(seq[k])
					m.record(o, res, ok, res.dur)
					done(ok)
				} else {
					res, ok := cr.one(k, seq[k], nil)
					m.record(&cr.keys[seq[k]], res, ok, res.dur)
					done(ok)
				}
			}
		}()
	}
	wg.Wait()
	sort.Float64s(doneMs)
	return doneMs
}

// keptOp is a traced request's result, held until its replay.
type keptOp struct {
	res *opResult
	ot  *opTrace
}

// openLoop fires the arrivals of seq on a fixed schedule, one every
// 1/rate seconds, whether or not earlier ones have been answered:
// independent users do not wait for each other. Each arrival's latency
// counts from the moment it was due, so a stall is charged to every
// request it delayed. It returns, by arrival, the latency of each verified
// answer (0 for a failure) and how late the arrival was actually sent, and,
// from a traced run, the results kept for replay by arrival number.
func (cr *crowdRun) openLoop(m *measurement, seq []int, tr *tracer) (latMs, lateMs []float64, kept map[int]keptOp) {
	interval := time.Duration(float64(time.Second) / cr.p.rate)
	latMs, lateMs = make([]float64, len(seq)), make([]float64, len(seq))
	kept = make(map[int]keptOp)
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond)
	for k := range seq {
		due := start.Add(time.Duration(k) * interval)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			lateMs[k] = ms(time.Since(due))
			ot := tr.beginOp(k)
			res, ok := cr.one(k, seq[k], ot)
			lat := time.Since(due)
			ot.endOp()
			m.record(&cr.keys[seq[k]], res, ok, lat)
			if ok {
				latMs[k] = ms(lat)
			}
			if tr != nil && ok && k%crowdReplayEvery == 0 {
				mu.Lock()
				kept[k] = keptOp{res, ot}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return latMs, lateMs, kept
}

// run executes the crowd's phases and returns the merged measurement of
// the untraced window, its summary, and the generator's lateness samples:
//
//	warm-up  closed loop, unmeasured
//	A        open loop at p.rate: latency (op_ms, within_limit_ratio)
//	B        closed loop, 2 x conns in flight: saturation throughput
//	C        closed loop of baseline loads at the same concurrency
//
// A traced run then repeats phase A under the tracer and replays a sample
// of its requests one by one, after the last has been answered, so that
// the replays do not compete with requests in flight. The replay spans
// hang under their request's root span but start after it ended; self
// time only counts a child inside its parent, so the roots are unharmed.
func (cr *crowdRun) run(seed uint64, tr *tracer, rp *replayer) (m *measurement, s summary, lateMs []float64, traced *measurement, err error) {
	tb, p := cr.tb, cr.p
	workers := 2 * p.conns
	seq := crowdSequence(len(cr.keys), p.warmOps+p.arrivals+p.satOps+p.baseOps+p.tracedArrivals, seed)
	cut := func(n int) []int {
		head := seq[:n]
		seq = seq[n:]
		return head
	}
	warm, seqA, seqB, seqC := cut(p.warmOps), cut(p.arrivals), cut(p.satOps), cut(p.baseOps)

	cr.deadline = time.Now().Add(p.wallLimit)
	cr.closedLoop(newMeasurement(tb.w), warm, workers, false)

	m = newMeasurement(tb.w)
	mA, mB, mC := newMeasurement(tb.w), newMeasurement(tb.w), newMeasurement(tb.w)
	m.begin(tb)
	m.latMs, lateMs, _ = cr.openLoop(mA, seqA, nil)
	m.doneMs = cr.closedLoop(mB, seqB, workers, false)
	wireAB := tb.link.BytesSent() - m.link0
	m.baseDoneMs = cr.closedLoop(mC, seqC, workers, true)
	m.end(tb)
	m.truncated = cr.cut.Load()
	m.addWire(false, wireAB, mA.attempted+mB.attempted)
	m.addWire(true, m.link1-m.link0-wireAB, mC.attempted)

	for _, ph := range []*measurement{mA, mB, mC} {
		m.attempted += ph.attempted
		m.failed += ph.failed
		m.okOps += ph.okOps
		m.readMs = append(m.readMs, ph.readMs...)
		m.filterMs = append(m.filterMs, ph.filterMs...)
		m.transferMs = append(m.transferMs, ph.transferMs...)
		m.selectivity = append(m.selectivity, ph.selectivity...)
	}
	// Latency is phase A's alone: at saturation it would measure the queue.
	m.primaryAttempted = mA.primaryAttempted
	m.primaryMs, m.baselineMs = mA.primaryMs, mC.baselineMs
	m.byClass[clsNDPLZ4], m.byClass[clsBaseLZ4] = mA.primaryMs, mC.baselineMs

	// Every phase is read chunk by chunk, and the metric is the quiet
	// quantile of the chunks' figures (see quiet): the low one of times, the
	// high one of rates and shares.
	answered := func(c []float64) []float64 { // a failed arrival's latency reads 0
		var ok []float64
		for _, v := range c {
			if v > 0 {
				ok = append(ok, v)
			}
		}
		return ok
	}
	within := func(c []float64) float64 {
		n := 0
		for _, v := range answered(c) {
			if v <= ms(tb.w.limit) {
				n++
			}
		}
		return ratio(float64(n), float64(len(c)))
	}
	decks := chunks(m.latMs, crowdLatChunk)
	satRate := stats.Percentile(chunkRates(m.doneMs, crowdSatChunk), 1-quiet)
	baseRate := stats.Percentile(chunkRates(m.baseDoneMs, crowdBaseChunk), 1-quiet)
	s = summary{
		opMs:        stats.Percentile(each(decks, func(c []float64) float64 { return median(answered(c)) }), quiet),
		opN:         len(mA.primaryMs),
		baselineMs:  stats.Percentile(each(chunks(mC.baselineMs, crowdBaseChunk), median), quiet),
		baselineN:   len(mC.baselineMs),
		satOpsPerS:  satRate,
		speedup:     ratio(satRate, baseRate),
		withinLimit: stats.Percentile(each(decks, within), 1-quiet),
	}
	if tr == nil {
		return m, s, lateMs, nil, nil
	}

	traced = newMeasurement(tb.w)
	_, _, kept := cr.openLoop(traced, seq, tr)
	arrivals := make([]int, 0, len(kept))
	for k := range kept {
		arrivals = append(arrivals, k)
	}
	sort.Ints(arrivals)
	for _, k := range arrivals {
		res, ot := kept[k].res, kept[k].ot
		// Under concurrency a counter cannot be pinned on one request, so
		// liveness comes from the server's own report: an array-cache hit
		// "reads" in well under a millisecond (a stat and a fingerprint)
		// where a miss takes tens, and a payload-cache hit reports a
		// filter time of zero.
		readLive := res.stats.ReadTime > 5*time.Millisecond
		filterLive := res.stats.FilterTime > 0
		if err := rp.replay(&cr.keys[seq[k]], res, ot, readLive, filterLive); err != nil {
			return nil, s, nil, nil, err
		}
	}
	return m, s, lateMs, traced, nil
}
