package core

import (
	"context"
	"fmt"
	"math"

	"vizndp/internal/bitset"
	"vizndp/internal/grid"
	"vizndp/internal/rpc"
	"vizndp/internal/telemetry"
	"vizndp/internal/vtkio"
)

// Scatter-gather sharding metrics (default registry):
//
//	core.shard.fetches    counter — per-brick pre-filtered fetches scattered
//	core.shard.merges     counter — gathered payloads assembled client-side
//	core.shard.ghost.dups counter — ghost-region points dropped by the merge dedup
//	core.shard.degraded   counter — brick fetches served by a shard's degraded fallback
var (
	mShardFetches  = telemetry.Default().Counter("core.shard.fetches")
	mShardMerges   = telemetry.Default().Counter("core.shard.merges")
	mShardGhostDup = telemetry.Default().Counter("core.shard.ghost.dups")
	mShardDegraded = telemetry.Default().Counter("core.shard.degraded")
)

// shardFetchEvent names the client-side wide event wrapping one brick's
// scattered fetch; its brick= and path= attributes make per-brick
// latency and failure slicing possible at /debug/requests.
const shardFetchEvent = "shard.fetch"

// ShardStats is the cost breakdown of one scatter-gathered array fetch;
// the byte counts are summed across bricks.
type ShardStats struct {
	// Bricks is how many per-brick fetches were scattered.
	Bricks int
	// Degraded counts bricks served by a shard's raw-fetch fallback.
	Degraded int
	// SelectedPoints is the merged unique selected point count.
	SelectedPoints int
	// DupPoints is how many ghost-region points arrived more than once
	// and were deduplicated by global index.
	DupPoints    int
	RawBytes     int64
	PayloadBytes int64
}

// FetchBricksContext scatters one array's per-brick pre-filtered
// fetches over c and gathers them into the unsharded payload. man
// describes the bricks; it is validated and its brick geometry
// re-derived on each call, so the merge's index math is pinned to it.
// prefix is the per-timestep brick directory (ending in "/"); each
// brick's object path is prefix + its manifest key. Each brick fetch
// names its home, brick ID, with rpc.WithHome: a client over n replica
// addresses sends it to address ID mod n first, so each brick is cached
// on one replica, and fails over to a sibling when the home is dead or
// returns it corrupt (every replica mounts the same store); a client
// over one connection ignores the home.
//
// The returned payload covers the parent grid and is byte-identical to
// a single unsharded fetch of the same array in encoding enc: every
// cell, and so every edge, is scanned whole by its owning brick with
// its own values, so the union of the bricks' selections is the
// parent's selection. Selections in ghost overlap are deduplicated by
// global point index, and a value disagreement between overlapping
// bricks — which would mean the brick objects desynchronized — fails
// the merge rather than silently stitching mixed versions.
func (c *Client) FetchBricksContext(ctx context.Context, man *vtkio.Manifest, prefix, array string, isovalues []float64, enc Encoding) (*Payload, *ShardStats, error) {
	if err := man.Validate(); err != nil {
		return nil, nil, err
	}
	bricks, err := man.GridBricks()
	if err != nil {
		return nil, nil, err
	}
	g := man.Grid()
	results := make([]MultiResult, len(man.Entries))
	fanOut(ctx, len(results), func(i int, skipped error) {
		if skipped != nil {
			results[i].Err = skipped
			return
		}
		e := &man.Entries[i]
		path := prefix + e.Key
		mShardFetches.Inc()
		// One wide event per scattered fetch, on top of the client's
		// own ndp.fetch event: this one names the brick, which the inner
		// event cannot know.
		ev := telemetry.DefaultFlightRecorder().Begin(telemetry.KindClient, shardFetchEvent)
		ev.SetAttr("brick", e.ID)
		ev.SetAttr("path", path)
		ev.SetAttr("array", array)
		if span := telemetry.SpanFromContext(ctx); span != nil {
			ev.SetSpanIDs(span.Trace(), span.ID())
		}
		p, st, err := c.FetchFilteredContext(rpc.WithHome(ctx, e.ID), path, array, isovalues, enc)
		if st != nil {
			ev.SetBytesIn(st.PayloadBytes)
			if st.Degraded {
				mShardDegraded.Inc()
				ev.MarkDegraded()
			}
		}
		ev.Finish(err)
		results[i] = MultiResult{Payload: p, Stats: st, Err: err}
	})

	// Gather: decode each brick payload to its present points and scatter
	// them into the parent's values and presence. Sequential and in brick
	// order, so dedup accounting and any disagreement error are
	// deterministic.
	n := g.NumPoints()
	values := make([]float32, n)
	seen := bitset.New(n)
	largest := 0
	for _, b := range bricks {
		largest = max(largest, b.NumPoints())
	}
	buf := make([]float32, largest) // a brick's decoded values, read only where present
	agg := &ShardStats{Bricks: len(man.Entries)}
	for i := range man.Entries {
		e := &man.Entries[i]
		r := results[i]
		if r.Err != nil {
			return nil, nil, fmt.Errorf("core: brick %d (%s%s): %w", e.ID, prefix, e.Key, r.Err)
		}
		b := bricks[i]
		if r.Payload.NumPoints != b.NumPoints() {
			return nil, nil, fmt.Errorf("core: brick %d payload has %d points, extent has %d",
				e.ID, r.Payload.NumPoints, b.NumPoints())
		}
		local := buf[:b.NumPoints()]
		present := bitset.New(len(local))
		if err := r.Payload.decodeInto(local, present.Words()); err != nil {
			return nil, nil, fmt.Errorf("core: brick %d: %w", e.ID, err)
		}
		dups, err := scatterBrick(values, seen, g.Dims, b, local, present)
		if err != nil {
			return nil, nil, err
		}
		agg.DupPoints += dups
		if st := r.Stats; st != nil {
			if st.Degraded {
				agg.Degraded++
			}
			agg.RawBytes += st.RawBytes
			agg.PayloadBytes += st.PayloadBytes
		}
	}
	p, err := EncodeSelection(seen, values, enc)
	if err != nil {
		return nil, nil, err
	}
	mShardMerges.Inc()
	mShardGhostDup.Add(int64(agg.DupPoints))
	agg.SelectedPoints = p.Count
	return p, agg, nil
}

// scatterBrick writes one brick's present points into the parent's
// values and presence. Points already placed by an earlier brick are
// ghost overlap: they are counted, and their value must agree bit for
// bit with what is already there.
func scatterBrick(dst []float32, seen *bitset.Bitset, d grid.Dims, b grid.Brick, local []float32, present *bitset.Bitset) (int, error) {
	ed := b.ExtentDims()
	dups := 0
	li := 0
	for lk := 0; lk < ed.Z; lk++ {
		gk := lk + b.PointLo[2]
		for lj := 0; lj < ed.Y; lj++ {
			gj := lj + b.PointLo[1]
			gbase := (gk*d.Y+gj)*d.X + b.PointLo[0]
			for lx := 0; lx < ed.X; lx, li = lx+1, li+1 {
				if !present.Get(li) {
					continue
				}
				gi, v := gbase+lx, local[li]
				if seen.Get(gi) {
					if math.Float32bits(dst[gi]) != math.Float32bits(v) {
						return dups, fmt.Errorf("core: ghost disagreement at point %d between bricks: %08x vs %08x",
							gi, math.Float32bits(dst[gi]), math.Float32bits(v))
					}
					dups++
					continue
				}
				seen.Set(gi)
				dst[gi] = v
			}
		}
	}
	return dups, nil
}
