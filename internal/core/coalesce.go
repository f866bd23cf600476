package core

import (
	"context"
	"time"

	"vizndp/internal/arraycache"
	"vizndp/internal/telemetry"
)

// Scan-sharing metrics (default registry):
//
//	core.scan.requests        counter — fetches (of any of the four methods) admitted to the pipeline
//	core.scan.passes          counter — single-value selection scans actually run
//	core.scan.batches         counter — batches that reached their scan
//	core.scan.coalesced       counter — requests that rode another request's batch
//	core.scan.batches_aborted counter — batches dropped after the load because every member cancelled
//
// Every request runs in a batch, so on a server without WithCoalesce
// batches == requests that missed the payload cache, and passes ==
// sum(len(isovalues)) over contour requests (one per range request, none
// for slice and raw); coalescing pays off exactly when passes/requests
// drops below one — the crowd experiment's gate.
var (
	mScanRequests = telemetry.Default().Counter("core.scan.requests")
	mScanPasses   = telemetry.Default().Counter("core.scan.passes")
	mScanBatches  = telemetry.Default().Counter("core.scan.batches")
	mScanShared   = telemetry.Default().Counter("core.scan.coalesced")
	mScanAborted  = telemetry.Default().Counter("core.scan.batches_aborted")
)

// DefaultCoalesceWindow is how long a batch leader lingers after its
// storage read before closing the batch to new members. The scan for a
// production-scale array takes milliseconds, so a sub-millisecond window
// adds little latency while catching bursts of concurrent arrivals.
const DefaultCoalesceWindow = 500 * time.Microsecond

// scanMember is one request riding a batch. The leader fills res,
// filterTime, and err before closing the batch's done channel; the
// member's own goroutine reads them only after that close.
type scanMember struct {
	// ctx is the member's own request context. A joinable batch runs under
	// the leader's cancellation-stripped context, so this is the only place
	// the member's liveness survives to: the leader consults it after the
	// member set freezes and aborts the scan if every member is gone.
	ctx   context.Context
	query query
	res   *fetchResult
	// filterTime charges the member the batch's shared scan plus its own
	// encode — what its request actually waited on, not what a dedicated
	// scan would have cost.
	filterTime time.Duration
	err        error
}

// scanBatch collects the members sharing one load and scan.
type scanBatch struct {
	done    chan struct{}
	members []*scanMember
}

// fetchBatched is the pipeline's join-or-lead stage. Every request runs
// in a batch. With WithCoalesce the batch is joinable: the first request
// for a batchKey leads and registers it, later arrivals append themselves
// and wait. Without it the batch is never registered, so it has exactly
// one member and runs under that member's own context. Returns the
// member's result, its storage read time and its filter time.
func (s *Server) fetchBatched(ctx context.Context, bk batchKey, sel *selector, q query) (*fetchResult, time.Duration, time.Duration, error) {
	m := &scanMember{ctx: ctx, query: q}
	b := &scanBatch{done: make(chan struct{}), members: []*scanMember{m}}
	if s.coalesceWin > 0 {
		ev := telemetry.EventFromContext(ctx)
		s.batchMu.Lock()
		if open, ok := s.batches[bk]; ok {
			open.members = append(open.members, m)
			s.batchMu.Unlock()
			mScanShared.Inc()
			ev.SetAttr("coalesced-scan", "follower")
			select {
			case <-open.done:
				// A follower performed no storage read of its own.
				return m.res, 0, m.filterTime, m.err
			case <-ctx.Done():
				// Abandon the batch; the leader still computes this member's
				// result but nobody reads it.
				return nil, 0, 0, ctx.Err()
			}
		}
		s.batches[bk] = b
		s.batchMu.Unlock()
		ev.SetAttr("coalesced-scan", "leader")
		// Followers may join this batch, so its fate must not hang on the
		// leader's caller: detach from the leader's own cancellation and
		// run the batch to completion.
		// vizlint:ignore ctxflow followers joined this batch; it must complete for them even if the leader's caller cancels
		ctx = context.WithoutCancel(ctx)
	}
	readTime := s.runBatch(ctx, bk, b, sel)
	return m.res, readTime, m.filterTime, m.err
}

// runBatch executes one batch as its leader: load the array, linger for
// the batch window so concurrent arrivals can pile on, close the batch,
// run the selector once over the frozen member set, and retain each
// member's result in the payload cache. Returns the leader's storage
// read time.
func (s *Server) runBatch(ctx context.Context, bk batchKey, b *scanBatch, sel *selector) time.Duration {
	defer close(b.done)
	entry, readTime, err := s.loadArray(ctx, arraycache.Key{Path: bk.path, Array: bk.array, Version: bk.version})
	if s.coalesceWin > 0 {
		time.Sleep(s.coalesceWin)
		s.batchMu.Lock()
		delete(s.batches, bk)
		s.batchMu.Unlock()
	}
	// From here the member set is frozen; new arrivals lead a new batch.
	members := b.members
	failAll := func(err error) {
		for _, m := range members {
			m.err = err
		}
	}
	if err != nil {
		failAll(err)
		return 0
	}

	// A joinable batch deliberately outlives the leader's own cancellation
	// so followers aren't stranded — but when EVERY member has cancelled
	// (on an unjoinable batch: when its one caller has), nobody is left to
	// read the result and the scan would run for an empty room. Detect that
	// here, after the member set froze.
	alive := false
	for _, m := range members {
		alive = alive || m.ctx.Err() == nil
	}
	if !alive {
		mScanAborted.Inc()
		for _, m := range members {
			m.err = m.ctx.Err()
		}
		return readTime
	}
	mScanBatches.Inc()

	_, span := telemetry.StartSpan(ctx, sel.span)
	defer span.End()
	passes, err := sel.run(entry.Grid, entry.Field, members)
	if err != nil {
		span.SetAttr("error", err.Error())
		failAll(err)
		return readTime
	}
	mScanPasses.Add(int64(passes))
	span.SetAttr("array", bk.array)
	span.SetAttr("members", len(members))
	span.SetAttr("passes", passes)
	for _, m := range members {
		if m.err == nil && s.payloads != nil {
			s.payloads.Put(payloadKey{bk, m.query.id()}, m.res)
		}
	}
	return readTime
}
