package core

import (
	"fmt"
	"sync"
	"time"

	"vizndp/internal/bitset"
	"vizndp/internal/contour"
	"vizndp/internal/grid"
)

// PreFilter is the storage-side half of the split contour filter. It
// scans a full data array and emits the sparse payload the client-side
// post-filter needs. One instance is dedicated to one data array, as in
// the VTK prototype.
type PreFilter struct {
	// Isovalues are the contour values the downstream filter will render;
	// the selection is the union over all of them.
	Isovalues []float64
	// Encoding selects the payload wire format (EncAuto by default).
	Encoding Encoding
	// rows is the array's row summary when the server holds one (a cached
	// array's): the select then sweeps only the row pairs it leaves live.
	// The payload is the same either way.
	rows *contour.RowRanges
	// rule is what the selection ships: interesting edges unless the
	// server answers a request that did not ask for them.
	rule contour.Rule
}

// PreFilterStats reports what the pre-filter did, mirroring the
// measurements the paper reports (selection rate, reduced transfer size).
type PreFilterStats struct {
	// NumPoints is the full array length.
	NumPoints int
	// SelectedPoints is how many points the contour needs.
	SelectedPoints int
	// RawBytes is the full array's in-memory size.
	RawBytes int64
	// PayloadBytes is the encoded transfer size.
	PayloadBytes int64
	// FilterTime is the time spent scanning and encoding.
	FilterTime time.Duration
}

// Selectivity returns the selected fraction of mesh points.
func (s *PreFilterStats) Selectivity() float64 {
	if s.NumPoints == 0 {
		return 0
	}
	return float64(s.SelectedPoints) / float64(s.NumPoints)
}

// Reduction returns RawBytes/PayloadBytes, the transfer-size reduction
// factor analogous to the paper's Fig. 1.
func (s *PreFilterStats) Reduction() float64 {
	if s.PayloadBytes == 0 {
		return 0
	}
	return float64(s.RawBytes) / float64(s.PayloadBytes)
}

// Run selects and encodes the subset of field needed to contour it at
// the configured isovalues.
func (f *PreFilter) Run(g *grid.Uniform, field *grid.Field) (*Payload, *PreFilterStats, error) {
	if len(f.Isovalues) == 0 {
		return nil, nil, fmt.Errorf("core: pre-filter has no isovalues")
	}
	start := time.Now()
	mask, err := f.rows.SelectContour(g, field.Values, f.Isovalues, f.rule)
	if err != nil {
		return nil, nil, fmt.Errorf("core: pre-filter %q: %w", field.Name, err)
	}
	payload, err := EncodeSelection(mask, field.Values, f.Encoding)
	if err != nil {
		return nil, nil, err
	}
	return payload, statsOf(field, payload, start), nil
}

// statsOf reports what a pre-filter run over field, begun at start,
// produced.
func statsOf(field *grid.Field, p *Payload, start time.Time) *PreFilterStats {
	return &PreFilterStats{
		NumPoints:      field.Len(),
		SelectedPoints: p.Count,
		RawBytes:       int64(4 * field.Len()),
		PayloadBytes:   int64(p.WireSize()),
		FilterTime:     time.Since(start),
	}
}

// PostFilter is the client-side half: it completes contour generation
// from the sparse payload. Its isovalues must match the pre-filter's (the
// RPC client keeps them in sync).
type PostFilter struct {
	Isovalues []float64
}

// decodeScratch recycles the arrays payload values are decoded into. One
// is NumPoints long but only written and read at the payload's own
// points, so it is neither cleared nor NaN-filled between uses.
var decodeScratch sync.Pool

// decodeSparse decodes p, a payload over g, into the form the sparse
// kernels read — values known only at the present points — and hands
// both to use. The values are pooled and valid only during use.
func decodeSparse(g *grid.Uniform, p *Payload, use func(values []float32, present *bitset.Bitset) error) error {
	if g.NumPoints() != p.NumPoints {
		return fmt.Errorf("core: payload has %d points, grid %q has %d",
			p.NumPoints, g.Dims, g.NumPoints())
	}
	scratch, _ := decodeScratch.Get().(*[]float32)
	if scratch == nil || cap(*scratch) < p.NumPoints {
		s := make([]float32, p.NumPoints)
		scratch = &s
	}
	defer decodeScratch.Put(scratch)
	values := (*scratch)[:p.NumPoints]
	present := bitset.New(p.NumPoints)
	if err := p.decodeInto(values, present.Words()); err != nil {
		return err
	}
	return use(values, present)
}

// Contour extracts the contour from the payload's own points, producing
// exactly the mesh a full-array contour would: the payload holds both
// ends of every edge an isovalue crosses and the NaN corners of the
// cells the full-array contour skips for them, an absent corner lies on
// the same side as its neighbours, and the kernel reaches the cells that
// emit triangles in the order a sweep of the full array would (see
// contour's kernel comment). A payload of a server that ships every
// corner of every straddling cell contours the same way on a field
// without NaN. The NaN-padded array of Reconstruct is never built.
func (f *PostFilter) Contour(g *grid.Uniform, name string, p *Payload) (mesh *contour.Mesh, err error) {
	err = decodeSparse(g, p, func(values []float32, present *bitset.Bitset) error {
		mesh, err = contour.MarchingCubesSparse(g, values, present, f.Isovalues)
		return err
	})
	return mesh, err
}

// RangePreFilter is the storage-side half of a split threshold filter —
// the paper's "more filter types" future-work item. It selects every
// corner of every cell with at least one value in [Lo, Hi].
type RangePreFilter struct {
	Lo, Hi   float64
	Encoding Encoding
	rows     *contour.RowRanges // as PreFilter's
}

// Run selects and encodes the subset of field the threshold needs.
func (f *RangePreFilter) Run(g *grid.Uniform, field *grid.Field) (*Payload, *PreFilterStats, error) {
	start := time.Now()
	mask, err := f.rows.SelectRangeCorners(g, field.Values, f.Lo, f.Hi)
	if err != nil {
		return nil, nil, fmt.Errorf("core: range pre-filter %q: %w", field.Name, err)
	}
	payload, err := EncodeSelection(mask, field.Values, f.Encoding)
	if err != nil {
		return nil, nil, err
	}
	return payload, statsOf(field, payload, start), nil
}

// ThresholdFromPayload evaluates the threshold filter over the payload's
// own points, producing exactly the cell set a full-array evaluation
// would: the payload holds every corner of every kept cell, and a
// dropped cell has no in-range corner to ship. A shipped NaN is present
// but, like an absent point, never in range.
func ThresholdFromPayload(g *grid.Uniform, p *Payload, lo, hi float64) (cells *contour.CellSet, err error) {
	err = decodeSparse(g, p, func(values []float32, present *bitset.Bitset) error {
		cells, err = contour.ThresholdCellsSparse(g, values, present, lo, hi)
		return err
	})
	return cells, err
}
