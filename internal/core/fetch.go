package core

import (
	"context"
	"fmt"
	"time"

	"vizndp/internal/contour"
	"vizndp/internal/grid"
	"vizndp/internal/lru"
	"vizndp/internal/telemetry"
	"vizndp/internal/vtkio"
)

// The storage-side fetch pipeline. The paper's storage node does one
// thing per request — read an array, pre-filter it, ship the sparse
// result — and serveFetch is that one thing, written once for all four
// fetch methods. A selector supplies only what differs between them.

// query is one request's parsed selection arguments.
type query interface {
	// id is the query's cache identity within (method, path, array, file
	// version). Floats are folded in as lossless hex, not formatted
	// decimals: two queries map to one id exactly when every argument is
	// the same float in the same order — the condition under which the
	// selector would produce identical bytes.
	id() string
	// passes is how many scans over the whole array serving the query costs.
	passes() int
}

// fetchResult is what a selector produced for one query. Results are
// shared between concurrent readers (payload cache) and must be treated
// as immutable.
type fetchResult struct {
	data     []byte        // the bytes served
	points   int           // full array length
	selected int           // points shipped
	grid     *grid.Uniform // slice only: the extracted plane's 2D grid
	crc      uint32        // CRC32C of data, sent so clients can verify the wire
	// filterTime is what the select + encode that produced the result
	// took: what the request that ran it and the requests that waited on
	// its flight report as filterns. A later cache hit reports zero.
	filterTime time.Duration
}

func (r *fetchResult) size() int64 { return int64(len(r.data)) }

// selector is everything that distinguishes one fetch method from
// another: its argument parsing, its scan or extraction over a loaded
// (grid, field), and its own response keys. Every other stage is
// serveFetch's.
type selector struct {
	method  string // RPC method; also keys the selector's cached results
	dataKey string // response key carrying fetchResult.data
	// parse decodes the method's arguments (args[0:2] are path and array).
	parse func(args []any) (query, error)
	// run selects and encodes for one query over a loaded array.
	run func(e *arrayEntry, q query) (*fetchResult, error)
	// rows, when set, marks in need the point rows run reads given
	// bounds s on the array's rows: an uncached load reads only the
	// chunks that hold them (see readPlanned). nil reads the whole array.
	rows func(q query, s *contour.RowRanges, need []uint64)
	// respond adds the method's own keys to the shared response map.
	respond func(resp map[string]any, r *fetchResult)
}

// serveFetch is the one storage-side partial pipeline. Stages, in order,
// each run once per request: parse; stamp shard/path/array on the wide
// event; cancellation check; quarantine; file-version probe (skipped when
// nothing is cached); payload-cache lookup-or-flight, whose load is the
// array load, one select + encode and the reply checksum; respond. Each
// timed stage — probe, wait, read, prefilter, crc — is measured once, by
// the request's stage record (telemetry.ActiveEvent.Stage), and the
// histograms and the reply's readns / filterns are that measurement.
func (s *Server) serveFetch(ctx context.Context, args []any, sel *selector) (any, error) {
	path, err := argString(args, 0, "path")
	if err != nil {
		return nil, err
	}
	array, err := argString(args, 1, "array")
	if err != nil {
		return nil, err
	}
	q, err := sel.parse(args)
	if err != nil {
		return nil, err
	}
	ev := telemetry.EventFromContext(ctx)
	if s.shardName != "" {
		ev.SetAttr("shard", s.shardName)
	}
	ev.SetAttr("path", path)
	ev.SetAttr("array", array)
	mScanRequests.Inc()

	// An abandoned request — caller deadline expired, connection gone —
	// stops here instead of paying for the storage read.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Quarantine sits ahead of every cache: a resident copy of a path the
	// scrubber has since condemned must not be served either.
	if err := s.quarantined(path); err != nil {
		return nil, err
	}
	key := payloadKey{method: sel.method, path: path, array: array}
	if s.cache != nil || s.payloads != nil {
		start := time.Now()
		key.version, err = s.fileVersion(path)
		ev.Stage("probe", start)
		if err != nil {
			return nil, err
		}
	}
	// Formatting the query's id is skipped when nothing is cached.
	if s.payloads != nil {
		key.id = q.id()
	}

	// Lookup or flight: a resident result is a hit; an identical request
	// already being served is waited on, under this caller's own ctx; any
	// other request loads, selects, encodes and checksums for itself and
	// for whoever joins it meanwhile, recording those stages on its own
	// event. With no payload cache that is a direct call.
	var readTime time.Duration
	start := time.Now()
	res, outcome, err := s.payloads.GetOrLoad(ctx, key, func() (*fetchResult, error) {
		entry, rt, err := s.loadArray(ctx, arrayKey{path, array, key.version}, sel, q)
		if err != nil {
			return nil, err
		}
		readTime = rt
		// With a payload cache the flight finishes whatever became of its
		// caller — others may be waiting on it, and the result is kept.
		// With none nobody can be, so a caller that gave up during the load
		// is not scanned for.
		if s.payloads == nil {
			if err := ctx.Err(); err != nil {
				entry.release()
				return nil, err
			}
		}
		start := time.Now()
		res, err := sel.run(entry, q)
		entry.release()
		if err != nil {
			return nil, err
		}
		// Only scans that ran feed the filter-time histogram, once each;
		// cache hits would drag it toward zero.
		res.filterTime = ev.Stage("prefilter", start)
		mFetchFiltSecs.Observe(res.filterTime.Seconds())
		mScanPasses.Add(int64(q.passes()))
		start = time.Now()
		res.crc = vtkio.Checksum(res.data)
		ev.Stage("crc", start)
		return res, nil
	})
	if outcome == lru.Coalesced {
		ev.Stage("wait", start)
		ev.SetAttr("coalesced-scan", "follower")
	} else if s.payloads != nil {
		ev.SetAttr("payloadcache", outcome.String())
	}
	if err != nil {
		return nil, err
	}

	// An honest breakdown: a hit read and scanned nothing; a follower read
	// nothing and waited on the flight's select + encode.
	var filterTime time.Duration
	if outcome != lru.Hit {
		filterTime = res.filterTime
	}
	ev.SetAttr("selected", res.selected)
	ev.SetAttr("payloadBytes", len(res.data))

	resp := map[string]any{
		sel.dataKey: res.data,
		"readns":    int64(readTime),
		"filterns":  int64(filterTime),
		"rawbytes":  int64(4 * res.points),
		// CRC32C of the served bytes: new clients verify they survived the
		// wire; old clients ignore the extra key.
		"crc": int64(res.crc),
	}
	sel.respond(resp, res)
	return resp, nil
}

// selectionResult wraps what PreFilter.Run or RangePreFilter.Run
// returned: the server's selections are those calls, handed a cached
// array's row summary, whose select is word-identical to the full sweep
// (contour.FuzzSelectRowRanges), so its payloads are theirs byte for byte.
func selectionResult(p *Payload, st *PreFilterStats, err error) (*fetchResult, error) {
	if err != nil {
		return nil, err
	}
	return &fetchResult{data: p.Data, points: st.NumPoints, selected: p.Count}, nil
}

func respondSelected(resp map[string]any, r *fetchResult) {
	resp["selected"] = int64(r.selected)
}

// argEncoding decodes the optional trailing encoding-name argument.
func argEncoding(args []any, i int) (Encoding, error) {
	if len(args) <= i {
		return ParseEncoding("")
	}
	name, err := argString(args, i, "encoding")
	if err != nil {
		return 0, err
	}
	return ParseEncoding(name)
}

// contourQuery selects the points contouring at the isovalues needs:
// the split contour filter's storage half. A request whose fifth
// argument is edgesKey gets the interesting-edge selection; one without
// it, from a client that predates that rule, gets every corner of every
// straddling cell, as servers sent before it. Both contour alike on the
// client, but their bytes differ, so the rule is part of the id.
type contourQuery struct {
	isovalues []float64
	enc       Encoding
	rule      contour.Rule
}

func (q contourQuery) id() string  { return fmt.Sprintf("%x,%d,%d", q.isovalues, q.enc, q.rule) }
func (q contourQuery) passes() int { return len(q.isovalues) }

// edgesKey is the fifth ndp.fetch argument that asks for the
// interesting-edge selection. Servers that predate it ignore it and
// answer with cell corners.
const edgesKey = "edges"

var contourSelector = &selector{
	method: MethodFetch, dataKey: "payload",
	parse: func(args []any) (query, error) {
		if len(args) < 3 {
			return nil, fmt.Errorf("core: missing isovalues argument")
		}
		raw, ok := args[2].([]any)
		if !ok {
			return nil, fmt.Errorf("core: isovalues argument is %T, want array", args[2])
		}
		if len(raw) == 0 {
			return nil, fmt.Errorf("core: pre-filter has no isovalues")
		}
		q := contourQuery{isovalues: make([]float64, len(raw)), rule: contour.RuleCells}
		for i, v := range raw {
			if q.isovalues[i], ok = asFloat(v); !ok {
				return nil, fmt.Errorf("core: isovalue %d is %T, want number", i, v)
			}
		}
		var err error
		if q.enc, err = argEncoding(args, 3); err != nil {
			return nil, err
		}
		if len(args) > 4 {
			key, err := argString(args, 4, "selection rule")
			if err != nil {
				return nil, err
			}
			if key != edgesKey {
				return nil, fmt.Errorf("core: selection rule %q, want %q", key, edgesKey)
			}
			q.rule = contour.RuleEdges
		}
		return q, nil
	},
	run: func(e *arrayEntry, q query) (*fetchResult, error) {
		cq := q.(contourQuery)
		return selectionResult((&PreFilter{Isovalues: cq.isovalues, Encoding: cq.enc, rows: e.rows, rule: cq.rule}).Run(e.grid, e.field))
	},
	rows: func(q query, s *contour.RowRanges, need []uint64) {
		s.ContourRows(q.(contourQuery).isovalues, need)
	},
	respond: respondSelected,
}

// rangeQuery selects every corner of every cell with a value in
// [lo, hi]: the split threshold filter's storage half.
type rangeQuery struct {
	lo, hi float64
	enc    Encoding
}

func (q rangeQuery) id() string { return fmt.Sprintf("%x,%x,%d", q.lo, q.hi, q.enc) }
func (rangeQuery) passes() int  { return 1 }

var rangeSelector = &selector{
	method: MethodFetchRange, dataKey: "payload",
	parse: func(args []any) (query, error) {
		var q rangeQuery
		var err error
		if q.lo, err = argFloat(args, 2, "lo"); err != nil {
			return nil, err
		}
		if q.hi, err = argFloat(args, 3, "hi"); err != nil {
			return nil, err
		}
		q.enc, err = argEncoding(args, 4)
		return q, err
	},
	run: func(e *arrayEntry, q query) (*fetchResult, error) {
		rq := q.(rangeQuery)
		return selectionResult((&RangePreFilter{Lo: rq.lo, Hi: rq.hi, Encoding: rq.enc, rows: e.rows}).Run(e.grid, e.field))
	},
	rows: func(q query, s *contour.RowRanges, need []uint64) {
		rq := q.(rangeQuery)
		s.RangeRows(rq.lo, rq.hi, need)
	},
	respond: respondSelected,
}

// sliceQuery extracts exactly one axis-aligned plane — the
// near-perfect-reduction case for NDP.
type sliceQuery struct {
	axis  contour.Axis
	index int
}

func (q sliceQuery) id() string { return fmt.Sprintf("%d,%d", q.axis, q.index) }
func (sliceQuery) passes() int  { return 0 }

var sliceSelector = &selector{
	method: MethodFetchSlice, dataKey: "values",
	parse: func(args []any) (query, error) {
		name, err := argString(args, 2, "axis")
		if err != nil {
			return nil, err
		}
		axis, err := contour.ParseAxis(name)
		if err != nil {
			return nil, err
		}
		if len(args) < 4 {
			return nil, fmt.Errorf("core: missing slice index argument")
		}
		index, ok := args[3].(int64)
		if !ok {
			return nil, fmt.Errorf("core: slice index is %T, want integer", args[3])
		}
		return sliceQuery{axis: axis, index: int(index)}, nil
	},
	run: func(e *arrayEntry, q query) (*fetchResult, error) {
		sq := q.(sliceQuery)
		g2, vals, err := contour.ExtractSlice(e.grid, e.field.Values, sq.axis, sq.index)
		if err != nil {
			return nil, err
		}
		return &fetchResult{data: vtkio.FloatsToBytes(vals), points: e.field.Len(), selected: len(vals), grid: g2}, nil
	},
	respond: func(resp map[string]any, r *fetchResult) {
		g := r.grid
		resp["dims"] = []any{int64(g.Dims.X), int64(g.Dims.Y), int64(g.Dims.Z)}
		resp["origin"] = []any{g.Origin.X, g.Origin.Y, g.Origin.Z}
		resp["spacing"] = []any{g.Spacing.X, g.Spacing.Y, g.Spacing.Z}
	},
}

// rawQuery ships a whole array uncut — used for debugging, for the
// client's degraded fallback, and for measuring what the transfer would
// have cost without the pre-filter.
type rawQuery struct{}

func (rawQuery) id() string  { return "" }
func (rawQuery) passes() int { return 0 }

var rawSelector = &selector{
	method: MethodFetchRaw, dataKey: "data",
	parse: func([]any) (query, error) { return rawQuery{}, nil },
	// Re-serializing the decoded float32 values is a bit-exact inverse of
	// decoding, so the bytes are identical to the stored array's.
	run: func(e *arrayEntry, _ query) (*fetchResult, error) {
		return &fetchResult{data: vtkio.FloatsToBytes(e.field.Values), points: e.field.Len(), selected: e.field.Len()}, nil
	},
	// ndp.fetchraw's reply has always been {data, readns, crc}; there is no
	// filter to report on, so keep its key set exact.
	respond: func(resp map[string]any, _ *fetchResult) {
		delete(resp, "filterns")
		delete(resp, "rawbytes")
	},
}
