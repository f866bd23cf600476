package pipeline

import (
	"context"
	"fmt"
	"io"
	"io/fs"

	"vizndp/internal/contour"
	"vizndp/internal/grid"
	"vizndp/internal/vtkio"
)

// SourceStageName is the conventional name of the data-loading stage;
// its timing is the paper's "data load time".
const SourceStageName = "source"

// ContourStageName names contour filter stages.
const ContourStageName = "contour"

// FileSource reads a dataset file through a filesystem (a local dir via
// os.DirFS, or the s3fs layer) and loads the selected arrays. This is the
// baseline pipeline's source: the entire selected arrays cross the
// filesystem, decompressing as needed.
type FileSource struct {
	FS     fs.FS
	Path   string
	Arrays []string // empty = all arrays
}

// Name implements Stage.
func (s *FileSource) Name() string { return SourceStageName }

// Execute loads the selected arrays into a dataset.
func (s *FileSource) Execute(_ context.Context, _ any) (any, error) {
	f, err := s.FS.Open(s.Path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ra, ok := f.(io.ReaderAt)
	if !ok {
		return nil, fmt.Errorf("pipeline: %s does not support random access", s.Path)
	}
	r, err := vtkio.OpenReader(ra)
	if err != nil {
		return nil, err
	}
	return r.ReadDataset(s.Arrays...)
}

// DatasetSource injects an in-memory dataset, for tests and generators.
type DatasetSource struct {
	Dataset *grid.Dataset
}

// Name implements Stage.
func (s *DatasetSource) Name() string { return SourceStageName }

// Execute implements Stage.
func (s *DatasetSource) Execute(context.Context, any) (any, error) {
	if s.Dataset == nil {
		return nil, fmt.Errorf("pipeline: nil dataset")
	}
	return s.Dataset, nil
}

// ContourFilter extracts isosurfaces (3D) or isolines (2D) of one array,
// like a vtkContourFilter instance bound to a data array.
type ContourFilter struct {
	Array     string
	Isovalues []float64
}

// Name implements Stage.
func (f *ContourFilter) Name() string { return ContourStageName }

// Execute implements Stage. Input must be a *grid.Dataset; output is a
// *contour.Mesh for 3D grids or a *contour.LineSet for 2D grids.
func (f *ContourFilter) Execute(_ context.Context, in any) (any, error) {
	ds, ok := in.(*grid.Dataset)
	if !ok {
		return nil, fmt.Errorf("pipeline: contour input is %T, want *grid.Dataset", in)
	}
	fld := ds.Field(f.Array)
	if fld == nil {
		return nil, fmt.Errorf("pipeline: dataset has no array %q", f.Array)
	}
	if ds.Grid.Is2D() {
		return contour.MarchingSquares(ds.Grid, fld.Values, f.Isovalues)
	}
	return contour.MarchingTetrahedra(ds.Grid, fld.Values, f.Isovalues)
}

// MultiContour runs one contour filter per array over the same input
// dataset — the paper's setup for contouring v02 and v03 simultaneously,
// with one filter instance dedicated to each array. The output is a map
// from array name to mesh (or line set).
type MultiContour struct {
	Filters []*ContourFilter
}

// Name implements Stage.
func (m *MultiContour) Name() string { return "multi-contour" }

// Execute implements Stage.
func (m *MultiContour) Execute(ctx context.Context, in any) (any, error) {
	out := make(map[string]any, len(m.Filters))
	for _, f := range m.Filters {
		res, err := f.Execute(ctx, in)
		if err != nil {
			return nil, err
		}
		out[f.Array] = res
	}
	return out, nil
}

// ThresholdFilter keeps the cells with at least one corner value inside
// [Lo, Hi], like a vtkThreshold in any-point mode. Output is a
// *contour.CellSet. It evaluates NaN-padded NDP payloads exactly (see
// contour.SelectRangeCorners).
type ThresholdFilter struct {
	Array  string
	Lo, Hi float64
}

// Name implements Stage.
func (f *ThresholdFilter) Name() string { return "threshold" }

// Execute implements Stage.
func (f *ThresholdFilter) Execute(_ context.Context, in any) (any, error) {
	ds, ok := in.(*grid.Dataset)
	if !ok {
		return nil, fmt.Errorf("pipeline: threshold input is %T, want *grid.Dataset", in)
	}
	fld := ds.Field(f.Array)
	if fld == nil {
		return nil, fmt.Errorf("pipeline: dataset has no array %q", f.Array)
	}
	return contour.ThresholdCells(ds.Grid, fld.Values, f.Lo, f.Hi)
}
