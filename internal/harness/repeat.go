package harness

import (
	"fmt"
	"time"

	"vizndp/internal/compress"
	"vizndp/internal/core"
	"vizndp/internal/stats"
)

// RepeatFetch measures the storage-side array cache on interactive
// re-fetch workloads (a user sweeping contour values over one loaded
// timestep). It stands up a dedicated NDP server with a decoded-array
// cache of Cfg.CacheBytes behind the same shaped link — the
// environment's shared server stays uncached so the other experiments
// keep measuring cold reads — and, per contour value, times a cold
// fetch (cache reset first) against a warm repeat of the same request.
// Cold and warm payloads are checked bit-identical against the uncached
// shared server before any row is reported.
func (e *Env) RepeatFetch(dataset string, codec compress.Kind, step int, array string) (*stats.Table, error) {
	k := e.newKit()
	defer k.close()
	n, err := k.startNode(nil, e.Link, core.WithCacheBytes(e.Cfg.CacheBytes))
	if err != nil {
		return nil, err
	}
	client, err := n.dial()
	if err != nil {
		return nil, err
	}
	led := openLedger()

	// Ground truth: the shared, uncached server's payloads.
	truth := e.newOracle(array)
	truth.dataset, truth.codec = dataset, codec
	ids := e.sweepIDs([]int{step})
	if err := truth.learn(e.ndpClient, ids); err != nil {
		return nil, err
	}

	t := stats.NewTable(
		fmt.Sprintf("Repeat fetch (%s %s, %s, cache %s): cold vs warm load times",
			dataset, array, codec, stats.FormatBytes(e.Cfg.CacheBytes)),
		"iso", "cold", "warm", "speedup", "cold read", "warm read", "payload")

	for _, id := range ids {
		var cold, warm time.Duration
		var coldRead, warmRead time.Duration
		var payloadBytes int64
		for r := 0; r < e.Cfg.Repeats; r++ {
			// Cold: an empty cache forces the full read+decompress path.
			n.srv.Cache().Reset()
			start := time.Now()
			cp, cst, err := truth.fetch(client, id)
			if err != nil {
				return nil, err
			}
			cold += time.Since(start)

			// Warm: the decoded array is resident; only filter + transfer
			// remain.
			start = time.Now()
			wp, wst, err := truth.fetch(client, id)
			if err != nil {
				return nil, err
			}
			warm += time.Since(start)

			coldRead += cst.ReadTime
			warmRead += wst.ReadTime
			payloadBytes = wst.PayloadBytes
			if err := truth.same("cold cache", id, cp); err != nil {
				return nil, err
			}
			if err := truth.same("warm cache", id, wp); err != nil {
				return nil, err
			}
		}
		reps := time.Duration(e.Cfg.Repeats)
		cold, warm = cold/reps, warm/reps
		row(t, fmt.Sprintf("%.2f", id.iso), cold, warm, speedupX(cold, warm),
			coldRead/reps, warmRead/reps, stats.FormatBytes(payloadBytes))
	}
	row(t, "cache", fmt.Sprintf("%d misses", led.delta("arraycache.misses")),
		fmt.Sprintf("%d hits", led.delta("arraycache.hits")))
	return t, nil
}
