package core

import (
	"context"
	"fmt"
	"math"
	"net"

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
// scattered fetch; its shard=/brick= attributes make per-shard latency
// and failure slicing possible at /debug/requests.
const shardFetchEvent = "shard.fetch"

// shardOf is the one brick placement rule: an entry pinned to a shard in
// [0, n) goes to that shard, every other entry to shard ID mod n — the
// rule BuildManifest pins with, so a manifest written with a shard count
// and one written without place their bricks alike. Every shard mounts
// the same store, so placement decides cache locality, never which
// bytes come back.
func shardOf(e vtkio.ManifestBrick, n int) int {
	if e.Shard >= 0 && e.Shard < n {
		return e.Shard
	}
	return e.ID % n
}

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

// ShardedClient scatters per-brick pre-filtered fetches across shard
// clients and gathers the sparse brick payloads into one payload over
// the parent grid, byte-identical to what a single unsharded fetch of
// the parent grid returns. Build one with DialSharded (per-shard
// fault-tolerant clients with sibling failover) or NewShardedClient
// (caller-supplied clients, e.g. for tests that want one shard degraded).
type ShardedClient struct {
	man    *vtkio.Manifest
	g      *grid.Uniform
	bricks []grid.Brick
	shards []*Client
}

// NewShardedClient wraps caller-supplied shard clients. The manifest is
// validated and its brick geometry re-derived so the merge's index math
// is pinned to it; closing the sharded client closes every shard client.
func NewShardedClient(man *vtkio.Manifest, shards []*Client) (*ShardedClient, error) {
	if err := man.Validate(); err != nil {
		return nil, err
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("core: sharded client needs at least one shard")
	}
	bricks, err := man.GridBricks()
	if err != nil {
		return nil, err
	}
	return &ShardedClient{
		man:    man,
		g:      man.Grid(),
		bricks: bricks,
		shards: shards,
	}, nil
}

// DialSharded builds a sharded client over one fault-tolerant client per
// shard. Shard i's client lists addrs rotated to start at i — its own
// address first, its siblings as failover replicas — because every shard
// mounts the same object store: placement is about locality (cache
// warmth, aggregate bandwidth), not reachability, so a dead shard's
// bricks fail over to a sibling via the circuit breakers, a brick the
// owner returns corrupt is re-read from a sibling by the same retry loop,
// and when every replica refuses a fetch degrades to the raw-fetch
// fallback. opts.Retryable defaults to RetryableMethods.
func DialSharded(man *vtkio.Manifest, addrs []string, dialFn func(network, addr string) (net.Conn, error), opts rpc.ReconnectOptions) (*ShardedClient, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("core: sharded dial needs at least one address")
	}
	shards := make([]*Client, 0, len(addrs))
	for i := range addrs {
		rotated := make([]string, 0, len(addrs))
		rotated = append(rotated, addrs[i:]...)
		rotated = append(rotated, addrs[:i]...)
		shards = append(shards, DialFaultTolerant(rotated, dialFn, opts))
	}
	sc, err := NewShardedClient(man, shards)
	if err != nil {
		for _, c := range shards {
			c.Close()
		}
		return nil, err
	}
	return sc, nil
}

// Grid returns the parent grid the manifest describes.
func (sc *ShardedClient) Grid() *grid.Uniform { return sc.g }

// Close closes every shard client.
func (sc *ShardedClient) Close() error {
	var first error
	for _, c := range sc.shards {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// FetchArray scatters one array's per-brick pre-filtered fetches and
// gathers them into the unsharded payload.
func (sc *ShardedClient) FetchArray(prefix, array string, isovalues []float64, enc Encoding) (*Payload, *ShardStats, error) {
	return sc.FetchArrayContext(context.Background(), prefix, array, isovalues, enc)
}

// FetchArrayContext is FetchArray under a caller context. prefix is the
// per-timestep brick directory (ending in "/"); each brick's object
// path is prefix + its manifest key. The returned payload covers the
// parent grid and is byte-identical to a single unsharded fetch of the
// same array in encoding enc: every cell is scanned by its owning brick
// with its own corner values, so the union of the bricks' selections is
// the parent's selection. Selections in ghost overlap are deduplicated
// by global point index, and a value disagreement between overlapping
// bricks — which would mean the brick objects desynchronized — fails the
// merge rather than silently stitching mixed versions.
func (sc *ShardedClient) FetchArrayContext(ctx context.Context, prefix, array string, isovalues []float64, enc Encoding) (*Payload, *ShardStats, error) {
	results := make([]MultiResult, len(sc.man.Entries))
	fanOut(ctx, len(results), func(i int, skipped error) {
		if skipped != nil {
			results[i].Err = skipped
			return
		}
		e := &sc.man.Entries[i]
		shard := shardOf(*e, len(sc.shards))
		path := prefix + e.Key
		mShardFetches.Inc()
		// One wide event per scattered fetch, on top of the shard
		// client's own ndp.fetch event: this one carries the routing
		// decision (shard=, brick=) the inner event cannot know.
		ev := telemetry.DefaultFlightRecorder().Begin(telemetry.KindClient, shardFetchEvent)
		ev.SetAttr("shard", shard)
		ev.SetAttr("brick", e.ID)
		ev.SetAttr("path", path)
		ev.SetAttr("array", array)
		if span := telemetry.SpanFromContext(ctx); span != nil {
			ev.SetSpanIDs(span.Trace(), span.ID())
		}
		p, st, err := sc.shards[shard].FetchFilteredContext(ctx, path, array, isovalues, enc)
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
	n := sc.g.NumPoints()
	values := make([]float32, n)
	seen := bitset.New(n)
	var local []float32 // a brick's decoded values, read only where present
	agg := &ShardStats{Bricks: len(sc.man.Entries)}
	for i := range sc.man.Entries {
		e := &sc.man.Entries[i]
		r := results[i]
		if r.Err != nil {
			return nil, nil, fmt.Errorf("core: brick %d (%s%s): %w", e.ID, prefix, e.Key, r.Err)
		}
		b := sc.bricks[i]
		if r.Payload.NumPoints != b.NumPoints() {
			return nil, nil, fmt.Errorf("core: brick %d payload has %d points, extent has %d",
				e.ID, r.Payload.NumPoints, b.NumPoints())
		}
		if cap(local) < b.NumPoints() {
			local = make([]float32, b.NumPoints())
		}
		local = local[:b.NumPoints()]
		present := bitset.New(len(local))
		if err := r.Payload.decodeInto(local, present.Words()); err != nil {
			return nil, nil, fmt.Errorf("core: brick %d: %w", e.ID, err)
		}
		dups, err := scatterBrick(values, seen, sc.g.Dims, b, local, present)
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
