package main

import (
	"context"
	"fmt"
	"time"

	"vizndp/internal/telemetry"
)

// closedRun drives a closed-loop workload with one client: cold, frame or
// wide. Each sweep is the same seeded op list; the client sends its next
// op only after the previous one completed.
type closedRun struct {
	tb   *testbed
	p    plan
	ops  []op
	refs []signature
	// notes record each reconstructing op's measured selectivity; wide
	// exists for its dense masks, so how dense they are is part of the result.
	notes []string
}

// newClosedRun runs sweep 0: every op once, untimed, each result checked
// in full by the oracle. It doubles as the warm-up: connections are open,
// code paths hot, and any cache the server has is filled. The oracle
// recomputes each result from the generated data, which for a frame costs
// more than the op did, so it works beside the sweep on the core a single
// client leaves idle.
func newClosedRun(tb *testbed, p plan, seed uint64) (*closedRun, error) {
	cr := &closedRun{tb: tb, p: p, ops: sweepOps(tb.w, tb.steps, p.n, seed)}
	cr.refs = make([]signature, len(cr.ops))
	type result struct {
		o   *op
		res *opResult
	}
	results := make(chan result, 2)
	verified := make(chan error, 1)
	go func() {
		var first error
		for r := range results {
			if err := tb.verify(r.o, r.res); err != nil && first == nil {
				first = fmt.Errorf("verification sweep: %w", err)
			}
		}
		verified <- first
	}()
	var execErr error
	for i := range cr.ops {
		o := &cr.ops[i]
		res, err := tb.exec(context.Background(), tb.clients[0], o, nil)
		if err != nil {
			execErr = fmt.Errorf("verification sweep: %s: %w", o, err)
			break
		}
		cr.refs[i] = res.sig
		if o.reconstruct {
			cr.notes = append(cr.notes, fmt.Sprintf("%s: selected %.4f of the points, %d B on the wire",
				o, res.payload.Selectivity(), len(res.payload.Data)))
		}
		results <- result{o, res}
	}
	close(results)
	if err := <-verified; execErr == nil {
		execErr = err
	}
	if execErr != nil {
		return nil, execErr
	}
	return cr, nil
}

// sweep runs the op list once into m. Timed sweeps re-check each result
// cheaply, by signature; a mismatch or an error is a failed op. With one
// client the link's byte counter attributes traffic to ops exactly. When
// tr is set every op is traced and, through rp, replayed.
func (cr *closedRun) sweep(m *measurement, tr *tracer, rp *replayer, sweepNo int) error {
	tb := cr.tb
	hits := telemetry.Default().Counter("arraycache.hits")
	for i := range cr.ops {
		o := &cr.ops[i]
		ot := tr.beginOp(sweepNo*len(cr.ops) + i)
		wire, hits0 := tb.link.BytesSent(), hits.Value()
		res, err := tb.exec(context.Background(), tb.clients[0], o, ot)
		ok := err == nil && res.sig == cr.refs[i]
		if err != nil {
			res = &opResult{}
		}
		m.addWire(o.baseline(), tb.link.BytesSent()-wire, 1)
		m.record(o, res, ok, res.dur)
		if rp != nil && ok && !o.baseline() {
			// The storage node read the array for this op unless its array
			// cache counted a hit meanwhile, and it always scans: these
			// workloads have no payload cache.
			if err := rp.replay(o, res, ot, hits.Value() == hits0, true); err != nil {
				return err
			}
		}
		ot.endOp()
	}
	m.endSweep()
	return nil
}

// run measures p.sweeps untraced sweeps and, in a traced run, p.tracedSweeps
// traced ones after them, returning both measurements.
func (cr *closedRun) run(tr *tracer, rp *replayer) (untraced, traced *measurement, err error) {
	m := newMeasurement(cr.tb.w)
	m.begin(cr.tb)
	for s := 0; s < cr.p.sweeps; s++ {
		if err := cr.sweep(m, nil, nil, s); err != nil {
			return nil, nil, err
		}
		if time.Since(m.t0) > cr.p.wallLimit {
			m.truncated = s+1 < cr.p.sweeps
			break
		}
	}
	m.end(cr.tb)
	if tr == nil {
		return m, nil, nil
	}
	traced = newMeasurement(cr.tb.w)
	for s := 0; s < cr.p.tracedSweeps; s++ {
		if err := cr.sweep(traced, tr, rp, s); err != nil {
			return nil, nil, err
		}
	}
	return m, traced, nil
}
