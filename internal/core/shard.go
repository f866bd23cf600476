package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"sort"
	"time"

	"vizndp/internal/bitset"
	"vizndp/internal/grid"
	"vizndp/internal/pipeline"
	"vizndp/internal/rpc"
	"vizndp/internal/telemetry"
	"vizndp/internal/vtkio"
)

// Scatter-gather sharding metrics (default registry):
//
//	core.shard.fetches    counter — per-brick pre-filtered fetches scattered
//	core.shard.merges     counter — gathered arrays assembled client-side
//	core.shard.ghost.dups counter — ghost-region points dropped by the merge dedup
//	core.shard.degraded   counter — brick fetches served by a shard's degraded fallback
//	core.shard.repairs    counter — brick fetches recovered from a sibling shard
//	                      after the owner returned corrupt data
var (
	mShardFetches  = telemetry.Default().Counter("core.shard.fetches")
	mShardMerges   = telemetry.Default().Counter("core.shard.merges")
	mShardGhostDup = telemetry.Default().Counter("core.shard.ghost.dups")
	mShardDegraded = telemetry.Default().Counter("core.shard.degraded")
	mShardRepairs  = telemetry.Default().Counter("core.shard.repairs")
)

// shardFetchEvent names the client-side wide event wrapping one brick's
// scattered fetch; its shard=/brick= attributes make per-shard latency
// and failure slicing possible at /debug/requests.
const shardFetchEvent = "shard.fetch"

// routerVnodes is how many ring points each shard contributes to the
// consistent-hash ring. 64 keeps the assignment spread within a few
// percent of even for single-digit shard counts while the ring stays
// tiny.
const routerVnodes = 64

// ShardRouter maps bricks to shard indices. A manifest entry that names
// its owning shard is routed there directly; unassigned entries
// (Shard < 0) fall back to consistent hashing of the brick key, so a
// manifest written without placement still spreads load and any two
// clients agree on the placement without coordination.
type ShardRouter struct {
	n    int
	ring []ringPoint
}

type ringPoint struct {
	hash  uint64
	shard int
}

// NewShardRouter builds a router over n shards (n >= 1).
func NewShardRouter(n int) (*ShardRouter, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: shard router needs at least one shard, got %d", n)
	}
	r := &ShardRouter{n: n, ring: make([]ringPoint, 0, n*routerVnodes)}
	for s := 0; s < n; s++ {
		for v := 0; v < routerVnodes; v++ {
			r.ring = append(r.ring, ringPoint{
				hash:  fnvSum(fmt.Sprintf("shard-%d#%d", s, v)),
				shard: s,
			})
		}
	}
	sort.Slice(r.ring, func(i, j int) bool { return r.ring[i].hash < r.ring[j].hash })
	return r, nil
}

func fnvSum(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// Pick returns the shard index for one manifest entry: the entry's own
// assignment when it names a valid shard, the hash ring otherwise.
func (r *ShardRouter) Pick(e vtkio.ManifestBrick) int {
	if e.Shard >= 0 && e.Shard < r.n {
		return e.Shard
	}
	return r.PickKey(e.Key)
}

// PickKey routes an arbitrary key over the consistent-hash ring: the
// first ring point at or after the key's hash, wrapping past the top.
func (r *ShardRouter) PickKey(key string) int {
	h := fnvSum(key)
	i := sort.Search(len(r.ring), func(i int) bool { return r.ring[i].hash >= h })
	if i == len(r.ring) {
		i = 0
	}
	return r.ring[i].shard
}

// ShardStats is the cost breakdown of one scatter-gathered array fetch.
// The per-brick durations and byte counts are summed across bricks —
// aggregate work, not wall time — while TotalTime is the wall-clock
// scatter-gather including the merge.
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
	ReadTime     time.Duration
	FilterTime   time.Duration
	TransferTime time.Duration
	TotalTime    time.Duration
}

// ShardedClient scatters per-brick pre-filtered fetches across shard
// clients and gathers the sparse payloads into one seamless NaN-padded
// field, bit-identical to what a single unsharded scan of the parent
// grid would reconstruct. Build one with DialSharded (per-shard
// fault-tolerant clients with sibling failover) or NewShardedClient
// (caller-supplied clients, e.g. for tests that want one shard degraded).
type ShardedClient struct {
	man    *vtkio.Manifest
	g      *grid.Uniform
	bricks []grid.Brick
	router *ShardRouter
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
	router, err := NewShardRouter(len(shards))
	if err != nil {
		return nil, err
	}
	return &ShardedClient{
		man:    man,
		g:      man.Grid(),
		bricks: bricks,
		router: router,
		shards: shards,
	}, nil
}

// DialSharded builds a sharded client over one fault-tolerant client per
// shard. Shard i's client lists addrs rotated to start at i — its own
// address first, its siblings as failover replicas — because every shard
// mounts the same object store: placement is about locality (cache
// warmth, aggregate bandwidth), not reachability, so a dead shard's
// bricks fail over to a sibling via the circuit breakers and, when every
// replica refuses, degrade to the raw-fetch fallback. opts.Retryable
// defaults to RetryableMethods.
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
// gathers the merged NaN-padded field.
func (sc *ShardedClient) FetchArray(prefix, array string, isovalues []float64, enc Encoding) ([]float32, *ShardStats, error) {
	return sc.FetchArrayContext(context.Background(), prefix, array, isovalues, enc)
}

// FetchArrayContext is FetchArray under a caller context. prefix is the
// per-timestep brick directory (ending in "/"); each brick's object
// path is prefix + its manifest key. The returned field has the parent
// grid's point count, NaN everywhere the pre-filter withheld data, and
// is bit-identical to reconstructing a single unsharded fetch of the
// same array: every cell is scanned by its owning brick with its own
// corner values, selections in ghost overlap are deduplicated by global
// point index, and a value disagreement between overlapping bricks —
// which would mean the brick objects desynchronized — fails the merge
// rather than silently stitching mixed versions.
func (sc *ShardedClient) FetchArrayContext(ctx context.Context, prefix, array string, isovalues []float64, enc Encoding) ([]float32, *ShardStats, error) {
	start := time.Now()
	results := make([]MultiResult, len(sc.man.Entries))
	fanOut(ctx, len(results), 0, func(i int, skipped error) {
		if skipped != nil {
			results[i].Err = skipped
			return
		}
		e := &sc.man.Entries[i]
		shard := sc.router.Pick(*e)
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
		// Read repair: corruption is a verdict about the OWNER's copy
		// (or its path to us), not about the brick — every shard mounts
		// the same store, so walk the siblings before giving up. Shard
		// clients over several addresses already rotate replicas
		// internally; this loop is what saves single-connection shard sets.
		if err != nil && errors.Is(err, rpc.ErrCorrupt) {
			for off := 1; off < len(sc.shards) && ctx.Err() == nil; off++ {
				sibling := (shard + off) % len(sc.shards)
				p2, st2, err2 := sc.shards[sibling].FetchFilteredContext(ctx, path, array, isovalues, enc)
				if err2 == nil {
					mShardRepairs.Inc()
					ev.SetAttr("repairedFrom", sibling)
					p, st, err = p2, st2, nil
					break
				}
				if !errors.Is(err2, rpc.ErrCorrupt) {
					break
				}
			}
		}
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

	// Gather: merge the sparse brick payloads into one parent-grid field.
	// Sequential and in brick order, so dedup accounting and any
	// disagreement error are deterministic.
	out := make([]float32, sc.g.NumPoints())
	fillNaN(out)
	seen := bitset.New(len(out))
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
		local, err := r.Payload.Reconstruct()
		if err != nil {
			return nil, nil, fmt.Errorf("core: brick %d: %w", e.ID, err)
		}
		dups, err := scatterBrick(out, seen, sc.g.Dims, b, local)
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
			agg.ReadTime += st.ReadTime
			agg.FilterTime += st.FilterTime
			agg.TransferTime += st.TransferTime
		}
	}
	mShardMerges.Inc()
	mShardGhostDup.Add(int64(agg.DupPoints))
	agg.SelectedPoints = seen.Count()
	agg.TotalTime = time.Since(start)
	return out, agg, nil
}

// scatterBrick writes one brick's reconstructed extent into the parent
// field. A NaN local value means the pre-filter withheld that point
// (genuinely-NaN data is never selected — a NaN corner disqualifies its
// cells — so NaN reliably encodes absence; see contour's selection
// invariant). Points already placed by an earlier brick are ghost
// overlap: they are counted, and their value must agree bit-for-bit
// with what is already there.
func scatterBrick(dst []float32, seen *bitset.Bitset, d grid.Dims, b grid.Brick, local []float32) (int, error) {
	ed := b.ExtentDims()
	dups := 0
	li := 0
	for lk := 0; lk < ed.Z; lk++ {
		gk := lk + b.PointLo[2]
		for lj := 0; lj < ed.Y; lj++ {
			gj := lj + b.PointLo[1]
			gbase := (gk*d.Y+gj)*d.X + b.PointLo[0]
			for lx := 0; lx < ed.X; lx++ {
				v := local[li]
				li++
				if math.IsNaN(float64(v)) {
					continue
				}
				gi := gbase + lx
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

// ShardedSource is a pipeline source that loads data through a bricked,
// sharded deployment: for each requested array it scatters per-brick
// pre-filtered fetches across the shards and gathers one seamless
// NaN-padded field. Downstream stages are exactly the ones the
// unsharded NDPSource feeds — the merged field is bit-identical.
type ShardedSource struct {
	Client *ShardedClient
	// Prefix is the per-timestep brick directory, e.g.
	// "asteroid/none/ts00003/".
	Prefix    string
	Arrays    []string
	Isovalues []float64
	Encoding  Encoding

	// Stats holds per-array scatter-gather statistics from the most
	// recent Execute.
	Stats map[string]*ShardStats
}

// Name implements pipeline.Stage; like NDPSource it reports as the
// source stage so its elapsed time is the pipeline's data load time.
func (s *ShardedSource) Name() string { return pipeline.SourceStageName }

// Execute scatter-gathers every selected array.
func (s *ShardedSource) Execute(ctx context.Context, _ any) (any, error) {
	if s.Client == nil {
		return nil, fmt.Errorf("core: ShardedSource has no client")
	}
	if len(s.Arrays) == 0 {
		return nil, fmt.Errorf("core: ShardedSource has no arrays selected")
	}
	ds := grid.NewDataset(s.Client.Grid())
	s.Stats = make(map[string]*ShardStats, len(s.Arrays))
	for _, array := range s.Arrays {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		vals, st, err := s.Client.FetchArrayContext(ctx, s.Prefix, array, s.Isovalues, s.Encoding)
		if err != nil {
			return nil, fmt.Errorf("core: sharded fetch %s%s: %w", s.Prefix, array, err)
		}
		if err := ds.AddField(&grid.Field{Name: array, Values: vals}); err != nil {
			return nil, err
		}
		s.Stats[array] = st
	}
	return ds, nil
}

var _ pipeline.Stage = (*ShardedSource)(nil)
