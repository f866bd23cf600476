package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vizndp/internal/bitset"
	"vizndp/internal/compress"
	"vizndp/internal/contour"
	"vizndp/internal/core"
	"vizndp/internal/grid"
	"vizndp/internal/lz4"
	"vizndp/internal/msgpack"
	"vizndp/internal/netsim"
	"vizndp/internal/render"
	"vizndp/internal/rpc"
	"vizndp/internal/s3fs"
	"vizndp/internal/stats"
	"vizndp/internal/telemetry"
	"vizndp/internal/vtkio"
)

const echoMethod = "bench.echo"

// layerSample is one replayed layer call.
type layerSample struct {
	span      int   // the tracer's span id; its self time is the layer's time
	bytes     int64 // the bytes the MB/s figure is over
	allocated uint64
	mallocs   uint64
	count     int64 // triangles, or GETs issued
}

// replayer re-runs, in process and one layer at a time, the chain a fetch
// crossed on the storage node, which cannot be spanned from outside
// across the RPC:
//
//	objstore.get -> s3fs.read -> vtkio.read_array -> lz4.decode ->
//	contour.select -> core.encode -> msgpack.marshal -> rpc.echo ->
//	netsim.transfer -> msgpack.unmarshal -> core.decode
//
// and then the client-side layers core.reconstruct -> contour.mtet ->
// render.mesh, so that every layer is measured on every workload's own
// data. The replayed payload must equal the server's byte for byte.
//
// Some layers contain others: s3fs.read issues an object-store GET,
// vtkio.read_array decompresses, and an rpc echo marshals and unmarshals.
// Only the outermost of each nest can be live (see span.Live), so the
// coverage sum counts nothing twice.
type replayer struct {
	tb      *testbed
	objects map[string][]byte // whole stored objects, fetched on first use
	samples map[string][]layerSample
	getCtr  *telemetry.Counter

	srv           *rpc.Server
	plain, shaped *rpc.Client
	serving       sync.WaitGroup
	response      atomic.Pointer[map[string]any]
}

func newReplayer(tb *testbed) *replayer {
	rp := &replayer{
		tb:      tb,
		objects: make(map[string][]byte),
		samples: make(map[string][]layerSample),
		getCtr:  telemetry.Default().Counter("objstore.requests.get"),
		srv:     rpc.NewServer(),
	}
	rp.srv.Register(echoMethod, func(context.Context, []any) (any, error) {
		return *rp.response.Load(), nil
	})
	serve := func(l *netsim.Link) *rpc.Client {
		c, s := l.Pipe()
		rp.serving.Add(1)
		go func(conn net.Conn) {
			defer rp.serving.Done()
			rp.srv.ServeConn(conn)
		}(s)
		return rpc.NewClient(c)
	}
	rp.plain = serve(netsim.Unlimited())
	rp.shaped = serve(netsim.NewLink(linkBits, linkLatency))
	return rp
}

func (rp *replayer) close() {
	rp.plain.Close()
	rp.shaped.Close()
	rp.srv.Close()
	rp.serving.Wait()
}

// layer runs fn as the named layer under the op's root span and keeps a
// sample. ReadMemStats stops the world for some tens of microseconds on
// either side; the clock runs only in between.
func (rp *replayer) layer(ot *opTrace, name string, live bool, nbytes int64, fn func() (int64, error)) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id := ot.t.start(name, ot.op, ot.root)
	count, err := fn()
	ot.t.end(id)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return fmt.Errorf("replay %s: %w", name, err)
	}
	if live {
		ot.t.setLive(id)
	}
	rp.samples[name] = append(rp.samples[name], layerSample{
		span: id, bytes: nbytes, count: count,
		allocated: m1.TotalAlloc - m0.TotalAlloc, mallocs: m1.Mallocs - m0.Mallocs,
	})
	return nil
}

// object returns the stored object's bytes, fetching and checksum-
// verifying them on first use (that verification is vtkio.verify_ms).
func (rp *replayer) object(ot *opTrace, key string) ([]byte, error) {
	if obj, ok := rp.objects[key]; ok {
		return obj, nil
	}
	obj, err := rp.tb.local.Get(bucket, key)
	if err != nil {
		return nil, err
	}
	rp.objects[key] = obj
	err = rp.layer(ot, "vtkio.verify", false, int64(len(obj)), func() (int64, error) {
		r, err := vtkio.OpenReader(bytes.NewReader(obj))
		if err != nil {
			return 0, err
		}
		return 0, r.VerifyChecksums()
	})
	return obj, err
}

// replay re-runs o's chain under ot. res is what the real op returned;
// readLive and filterLive say whether the storage node really read and
// really scanned for it (a cache hit skips either).
func (rp *replayer) replay(o *op, res *opResult, ot *opTrace, readLive, filterLive bool) error {
	key := o.key()
	obj, err := rp.object(ot, key)
	if err != nil {
		return err
	}
	hdr, err := vtkio.OpenReader(bytes.NewReader(obj))
	if err != nil {
		return err
	}
	info := hdr.Header().Array(o.array)
	if info == nil {
		return fmt.Errorf("replay: no array %q in %s", o.array, key)
	}
	stored, rawSize := info.CompressedSize(), info.RawSize()
	g := hdr.Grid()

	var extent []byte
	if err := rp.layer(ot, "objstore.get", false, stored, func() (int64, error) {
		var err error
		extent, err = rp.tb.local.GetRange(bucket, key, info.Offset, stored)
		return 0, err
	}); err != nil {
		return err
	}
	if err := rp.layer(ot, "s3fs.read", readLive, stored, func() (int64, error) {
		gets := rp.getCtr.Value()
		f, err := s3fs.New(rp.tb.local, bucket).Open(key)
		if err != nil {
			return 0, err
		}
		defer f.Close()
		_, err = f.(*s3fs.File).ReadAt(make([]byte, stored), info.Offset)
		return rp.getCtr.Value() - gets, err
	}); err != nil {
		return err
	}
	var field *grid.Field
	if err := rp.layer(ot, "vtkio.read_array", readLive, rawSize, func() (int64, error) {
		r, err := vtkio.OpenReader(bytes.NewReader(obj))
		if err != nil {
			return 0, err
		}
		field, err = r.ReadArray(o.array)
		return 0, err
	}); err != nil {
		return err
	}
	if o.codec == compress.LZ4 {
		if err := rp.layer(ot, "lz4.decode", false, rawSize, func() (int64, error) {
			off := 0
			for _, c := range info.Chunks {
				if _, err := lz4.Decompress(extent[off:off+c.Comp], c.Raw); err != nil {
					return 0, err
				}
				off += c.Comp
			}
			return 0, nil
		}); err != nil {
			return err
		}
	}

	// What the server put on the wire, rebuilt layer by layer.
	var wire []byte
	switch o.kind {
	case kindContour, kindRange:
		var mask *bitset.Bitset
		if err := rp.layer(ot, "contour.select", filterLive, rawSize, func() (int64, error) {
			var err error
			if o.kind == kindContour {
				mask, err = contour.SelectCellCorners(g, field.Values, o.isos)
			} else {
				mask, err = contour.SelectRangeCorners(g, field.Values, o.lo, o.hi)
			}
			return 0, err
		}); err != nil {
			return err
		}
		if err := rp.layer(ot, "core.encode", filterLive, int64(len(res.payload.Data)), func() (int64, error) {
			p, err := core.EncodeSelection(mask, field.Values, core.EncAuto)
			if err == nil {
				wire = p.Data
			}
			return 0, err
		}); err != nil {
			return err
		}
		if !bytes.Equal(wire, res.payload.Data) {
			return fmt.Errorf("replay %s: rebuilt payload differs from the server's", o)
		}
	case kindSlice:
		var vals []float32
		if err := rp.layer(ot, "contour.select", filterLive, rawSize, func() (int64, error) {
			var err error
			_, vals, err = contour.ExtractSlice(g, field.Values, o.axis, o.index)
			return 0, err
		}); err != nil {
			return err
		}
		if !sameBits(vals, res.values) {
			return fmt.Errorf("replay %s: rebuilt slice differs from the server's", o)
		}
		wire = vtkio.FloatsToBytes(vals)
	case kindRaw:
		wire = vtkio.FloatsToBytes(field.Values)
		if !bytes.Equal(wire, res.raw) {
			return fmt.Errorf("replay %s: rebuilt array differs from the server's", o)
		}
	}

	// A response-shaped map, as the fetch handlers build.
	resp := map[string]any{
		"payload": wire, "readns": int64(1), "filterns": int64(1),
		"rawbytes": rawSize, "selected": int64(1), "crc": int64(vtkio.Checksum(wire)),
	}
	n := int64(len(wire))
	var packed []byte
	if err := rp.layer(ot, "msgpack.marshal", false, n, func() (int64, error) {
		var err error
		packed, err = msgpack.Marshal(resp)
		return 0, err
	}); err != nil {
		return err
	}
	rp.response.Store(&resp)
	echo := func(c *rpc.Client) func() (int64, error) {
		return func() (int64, error) {
			_, err := c.Call(echoMethod)
			return 0, err
		}
	}
	if err := rp.layer(ot, "rpc.echo", false, n, echo(rp.plain)); err != nil {
		return err
	}
	if err := rp.layer(ot, "netsim.transfer", true, n, echo(rp.shaped)); err != nil {
		return err
	}
	if err := rp.layer(ot, "msgpack.unmarshal", false, n, func() (int64, error) {
		_, err := msgpack.Unmarshal(packed)
		return 0, err
	}); err != nil {
		return err
	}
	if res.payload == nil {
		return nil
	}

	var payload *core.Payload
	if err := rp.layer(ot, "core.decode", true, n, func() (int64, error) {
		var err error
		payload, err = core.DecodePayload(wire)
		return 0, err
	}); err != nil {
		return err
	}
	var vals []float32
	if err := rp.layer(ot, "core.reconstruct", false, rawSize, func() (int64, error) {
		var err error
		vals, err = payload.Reconstruct()
		return 0, err
	}); err != nil {
		return err
	}
	if o.kind != kindContour {
		return nil
	}
	var mesh *contour.Mesh
	if err := rp.layer(ot, "contour.mtet", false, rawSize, func() (int64, error) {
		var err error
		mesh, err = contour.MarchingTetrahedra(g, vals, o.isos)
		if err != nil {
			return 0, err
		}
		return int64(mesh.NumTriangles()), nil
	}); err != nil {
		return err
	}
	return rp.layer(ot, "render.mesh", false, rawSize, func() (int64, error) {
		_, err := render.Mesh(mesh, frameColor, rp.tb.frame)
		return int64(mesh.NumTriangles()), err
	})
}

// telemetryEventNS times what the program's telemetry costs one request:
// a flight-recorder event begun and finished around one span.
func telemetryEventNS() float64 {
	const loops = 20000
	ctx := context.Background()
	start := time.Now()
	for i := 0; i < loops; i++ {
		ev := telemetry.DefaultFlightRecorder().Begin(telemetry.KindClient, "bench.noop")
		_, sp := telemetry.StartSpan(ctx, "bench.noop")
		sp.End()
		ev.Finish(nil)
	}
	return float64(time.Since(start)) / loops
}

// layerStat summarises one layer's samples, each figure a median.
type layerStat struct {
	ms         float64 // self time
	mbPerS     float64 // bytes over self time
	allocPerB  float64 // bytes allocated per byte handled
	allocMB    float64 // bytes allocated, in MB
	mallocs    float64 // heap objects allocated
	count      float64 // mean of the layer's count (GETs issued)
	countPerMS float64 // count (triangles) over self time
	n          int
}

func (rp *replayer) stat(self map[int]int64, layer string) layerStat {
	var t, rate, perB, mb, mal, cnt, cntRate []float64
	for _, s := range rp.samples[layer] {
		d := float64(self[s.span]) / 1e6
		t = append(t, d)
		if d > 0 {
			rate = append(rate, float64(s.bytes)/1e6/(d/1e3))
			cntRate = append(cntRate, float64(s.count)/d)
		}
		if s.bytes > 0 {
			perB = append(perB, float64(s.allocated)/float64(s.bytes))
		}
		mb = append(mb, float64(s.allocated)/1e6)
		mal = append(mal, float64(s.mallocs))
		cnt = append(cnt, float64(s.count))
	}
	return layerStat{ms: median(t), mbPerS: median(rate), allocPerB: median(perB), allocMB: median(mb),
		mallocs: median(mal), count: stats.Mean(cnt), countPerMS: median(cntRate), n: len(t)}
}

// layers turns the replay's samples and the trace's spans into the
// per-layer metrics that come from a traced run.
func (rp *replayer) layers(spans []span) map[string]metric {
	self := selfTimes(spans)
	out := make(map[string]metric)
	put := func(name string, v float64, unit string, n int) { out[name] = metric{Value: v, Unit: unit, N: n} }
	// timed puts a layer's time and, where asked, its rate.
	timed := func(layer, prefix string, rate bool) layerStat {
		s := rp.stat(self, layer)
		put(prefix+"_ms", s.ms, "ms", s.n)
		if rate {
			put(prefix+"_mb_per_s", s.mbPerS, "MB/s", s.n)
		}
		return s
	}

	s := timed("objstore.get", "objstore.get", true)
	put("objstore.alloc_b_per_b", s.allocPerB, "B/B", s.n)
	s = timed("s3fs.read", "s3fs.read", true)
	put("s3fs.gets_per_read", s.count, "count", s.n)
	s = timed("vtkio.read_array", "vtkio.read_array", true)
	put("vtkio.alloc_b_per_b", s.allocPerB, "B/B", s.n)
	timed("vtkio.verify", "vtkio.verify", false)
	timed("lz4.decode", "lz4.decode", true)
	timed("contour.select", "contour.select", true)
	s = timed("core.encode", "core.encode", true)
	put("core.encode_allocs", s.mallocs, "count", s.n)
	timed("msgpack.marshal", "msgpack.marshal", false)
	timed("msgpack.unmarshal", "msgpack.unmarshal", false)
	s = timed("rpc.echo", "rpc.echo", true)
	put("rpc.alloc_b_per_b", s.allocPerB, "B/B", s.n)
	timed("core.decode", "core.decode", false)
	timed("core.reconstruct", "core.reconstruct", true)
	s = timed("contour.mtet", "contour.mtet", false)
	put("contour.mtet_mtris_per_s", s.countPerMS/1e3, "Mtri/s", s.n)
	put("contour.mtet_alloc_mb", s.allocMB, "MB", s.n)
	s = timed("render.mesh", "render.mesh", false)
	put("render.mtris_per_s", s.countPerMS/1e3, "Mtri/s", s.n)

	// The link's own cost: the shaped echo less the unshaped one, per op.
	var shaping []float64
	plain, shaped := rp.samples["rpc.echo"], rp.samples["netsim.transfer"]
	for i := range shaped {
		d := float64(self[shaped[i].span]-self[plain[i].span]) / 1e6
		if d < 0 {
			d = 0
		}
		shaping = append(shaping, d)
	}
	put("netsim.transfer_ms", median(shaping), "ms", len(shaping))

	// What the replayed chain explains of the real fetch: per op, the
	// live layers' self time over the client.fetch span's duration. The
	// remainder is handler, checksum, telemetry and scheduling time.
	live := make(map[int]int64)
	fetch := make(map[int]int64)
	for _, s := range spans {
		if s.Live {
			live[s.Op] += self[s.ID]
		}
		if s.Name == "client.fetch" {
			fetch[s.Op] = s.EndNS - s.StartNS
		}
	}
	var coverage []float64
	for op, l := range live {
		if fetch[op] > 0 {
			coverage = append(coverage, float64(l)/float64(fetch[op]))
		}
	}
	put("trace.coverage_ratio", median(coverage), "ratio", len(coverage))
	return out
}
