package main

import (
	"bytes"
	"context"
	"fmt"
	"image"
	"image/color"
	"math"
	"time"

	"vizndp/internal/contour"
	"vizndp/internal/core"
	"vizndp/internal/grid"
	"vizndp/internal/render"
	"vizndp/internal/s3fs"
	"vizndp/internal/vtkio"
)

var frameColor = color.RGBA{R: 80, G: 200, B: 255, A: 255}

// signature condenses an op's outputs. The verification sweep checks the
// outputs in full against the generated data and records the signature;
// timed sweeps then only compare signatures, which is cheap.
type signature struct {
	bytes  int    // payload, raw or array byte length
	sum    uint32 // CRC32C of the payload or raw bytes
	count  int    // selected points
	valSum uint32 // hash of the loaded, reconstructed or slice values
	tris   int    // triangles of a frame's mesh
	imgSum uint32 // CRC32C of a frame's pixels
}

// opResult is what one executed op produced.
type opResult struct {
	dur   time.Duration
	stats *core.FetchStats // nil for baseline and raw ops
	sig   signature

	payload   *core.Payload
	values    []float32 // baseline array, reconstructed array, or slice
	sliceGrid *grid.Uniform
	raw       []byte
	mesh      *contour.Mesh
	img       *image.RGBA
}

// baselineLoad is the baseline pipeline's data load: mount the store over
// the shaped link, open the time-step object, read one whole array.
func (tb *testbed) baselineLoad(key, array string) (*grid.Field, error) {
	f, err := s3fs.New(tb.remote, bucket).Open(key)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	reader, err := vtkio.OpenReader(f.(*s3fs.File))
	if err != nil {
		return nil, err
	}
	return reader.ReadArray(array)
}

// exec runs one op through client c and times it. Spans go to ot when the
// run is traced. The signature is computed after the clock stops.
func (tb *testbed) exec(ctx context.Context, c *core.Client, o *op, ot *opTrace) (*opResult, error) {
	res := &opResult{}
	key := o.key()
	var err error
	start := time.Now()
	switch o.kind {
	case kindBaseline:
		end := ot.span("client.baseline")
		var f *grid.Field
		if f, err = tb.baselineLoad(key, o.array); err == nil {
			res.values = f.Values
		}
		end()
	case kindContour:
		end := ot.span("client.fetch")
		res.payload, res.stats, err = c.FetchFilteredContext(ctx, key, o.array, o.isos, core.EncAuto)
		end()
	case kindRange:
		end := ot.span("client.fetch")
		res.payload, res.stats, err = c.FetchRangeContext(ctx, key, o.array, o.lo, o.hi, core.EncAuto)
		end()
	case kindSlice:
		end := ot.span("client.fetch")
		res.sliceGrid, res.values, res.stats, err = c.FetchSliceContext(ctx, key, o.array, o.axis, o.index)
		end()
	case kindRaw:
		end := ot.span("client.fetch")
		res.raw, _, err = c.FetchRawContext(ctx, key, o.array)
		end()
	}
	if err != nil {
		return nil, err
	}
	if o.reconstruct {
		end := ot.span("client.reconstruct")
		res.values, err = res.payload.Reconstruct()
		end()
		if err != nil {
			return nil, err
		}
	}
	if o.frame {
		g := tb.grids[key]
		if o.baseline() {
			end := ot.span("client.contour")
			res.mesh, err = contour.MarchingTetrahedra(g, res.values, o.isos)
			end()
		} else {
			end := ot.span("client.postfilter")
			res.mesh, err = (&core.PostFilter{Isovalues: o.isos}).Contour(g, o.array, res.payload)
			end()
		}
		if err != nil {
			return nil, err
		}
		end := ot.span("client.render")
		res.img, err = render.Mesh(res.mesh, frameColor, tb.frame)
		end()
		if err != nil {
			return nil, err
		}
	}
	res.dur = time.Since(start)
	res.sig = sign(res)
	return res, nil
}

// floatsHash is FNV-1a over the values' bit patterns; it allocates
// nothing, so checking an 8 MiB array does not show in alloc_mb_per_op.
func floatsHash(v []float32) uint32 {
	h := uint32(2166136261)
	for _, f := range v {
		h = (h ^ math.Float32bits(f)) * 16777619
	}
	return h
}

func sign(res *opResult) signature {
	var s signature
	switch {
	case res.payload != nil:
		s.bytes, s.sum, s.count = len(res.payload.Data), vtkio.Checksum(res.payload.Data), res.payload.Count
	case res.raw != nil:
		s.bytes, s.sum = len(res.raw), vtkio.Checksum(res.raw)
	default:
		s.bytes = 4 * len(res.values)
	}
	if res.values != nil {
		s.valSum = floatsHash(res.values)
	}
	if res.mesh != nil {
		s.tris, s.imgSum = res.mesh.NumTriangles(), vtkio.Checksum(res.img.Pix)
	}
	return s
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// verify is the verification sweep's oracle: it checks everything an op
// returned against truth computed from the generated data set. NDP
// payloads must equal the pre-filter's output byte for byte, whole-array
// and raw loads the generated field bit for bit, slices
// contour.ExtractSlice, and every mesh the full-array contour.
func (tb *testbed) verify(o *op, res *opResult) error {
	g, field, err := tb.truth(o)
	if err != nil {
		return err
	}
	if got := tb.grids[o.key()]; got == nil || !got.Equal(g) {
		return fmt.Errorf("%s: described grid %v differs from the generated grid", o, got)
	}
	switch o.kind {
	case kindBaseline:
		if !sameBits(res.values, field.Values) {
			return fmt.Errorf("%s: loaded array differs from the generated field", o)
		}
	case kindContour, kindRange:
		var want *core.Payload
		if o.kind == kindContour {
			want, _, err = (&core.PreFilter{Isovalues: o.isos, Encoding: core.EncAuto}).Run(g, field)
		} else {
			want, _, err = (&core.RangePreFilter{Lo: o.lo, Hi: o.hi, Encoding: core.EncAuto}).Run(g, field)
		}
		if err != nil {
			return err
		}
		if !bytes.Equal(res.payload.Data, want.Data) {
			return fmt.Errorf("%s: payload of %d bytes differs from the pre-filter's %d bytes",
				o, len(res.payload.Data), len(want.Data))
		}
		if res.stats.SelectedPoints != want.Count || res.payload.Count != want.Count {
			return fmt.Errorf("%s: %d points selected, stats say %d, want %d",
				o, res.payload.Count, res.stats.SelectedPoints, want.Count)
		}
		if o.reconstruct {
			kept := 0
			for i, v := range res.values {
				if math.IsNaN(float64(v)) {
					continue
				}
				kept++
				if math.Float32bits(v) != math.Float32bits(field.Values[i]) {
					return fmt.Errorf("%s: reconstructed point %d differs from the generated field", o, i)
				}
			}
			if kept != want.Count || len(res.values) != len(field.Values) {
				return fmt.Errorf("%s: reconstructed %d of %d points, want %d of %d",
					o, kept, len(res.values), want.Count, len(field.Values))
			}
		}
	case kindSlice:
		wantGrid, want, err := contour.ExtractSlice(g, field.Values, o.axis, o.index)
		if err != nil {
			return err
		}
		if !res.sliceGrid.Equal(wantGrid) || !sameBits(res.values, want) {
			return fmt.Errorf("%s: slice differs from contour.ExtractSlice", o)
		}
	case kindRaw:
		if !bytes.Equal(res.raw, vtkio.FloatsToBytes(field.Values)) {
			return fmt.Errorf("%s: raw bytes differ from the generated field", o)
		}
	}
	if o.frame {
		want, err := contour.MarchingTetrahedra(g, field.Values, o.isos)
		if err != nil {
			return err
		}
		if !res.mesh.Equal(want) {
			return fmt.Errorf("%s: mesh of %d triangles differs from the full-array contour's %d",
				o, res.mesh.NumTriangles(), want.NumTriangles())
		}
		img, err := render.Mesh(want, frameColor, tb.frame)
		if err != nil {
			return err
		}
		if !bytes.Equal(res.img.Pix, img.Pix) {
			return fmt.Errorf("%s: picture differs from the full-array contour's", o)
		}
	}
	return nil
}
