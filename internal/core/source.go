package core

import (
	"context"
	"fmt"

	"vizndp/internal/grid"
	"vizndp/internal/pipeline"
)

// NDPSource is a pipeline source that loads data through a remote NDP
// server instead of reading whole arrays: for each requested array it
// fetches the pre-filtered payload and reconstructs the NaN-padded field.
// Downstream stages (the post-filter contour, the renderer) are exactly
// the same stages a baseline pipeline uses — only the source changes,
// mirroring Fig. 10 of the paper.
type NDPSource struct {
	Client    *Client
	Path      string
	Arrays    []string
	Isovalues []float64
	Encoding  Encoding

	// Stats holds per-array fetch statistics from the most recent
	// Execute.
	Stats map[string]*FetchStats
}

// Name implements pipeline.Stage; NDPSource reports as the source stage
// so its elapsed time is the pipeline's data load time.
func (s *NDPSource) Name() string { return pipeline.SourceStageName }

// Execute fetches and reconstructs the selected arrays.
func (s *NDPSource) Execute(ctx context.Context, _ any) (any, error) {
	if s.Client == nil {
		return nil, fmt.Errorf("core: NDPSource has no client")
	}
	if len(s.Arrays) == 0 {
		return nil, fmt.Errorf("core: NDPSource has no arrays selected")
	}
	desc, err := s.Client.DescribeContext(ctx, s.Path)
	if err != nil {
		return nil, fmt.Errorf("core: describe %s: %w", s.Path, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Fetch all arrays concurrently: the RPC client multiplexes requests
	// over one connection, so the storage node overlaps its reads and
	// filtering across arrays while payloads share the link.
	reqs := make([]MultiRequest, len(s.Arrays))
	for i, array := range s.Arrays {
		reqs[i] = MultiRequest{
			Path: s.Path, Array: array,
			Isovalues: s.Isovalues, Encoding: s.Encoding,
		}
	}
	results := s.Client.FetchFilteredMultiContext(ctx, reqs)

	ds := grid.NewDataset(desc.Grid)
	s.Stats = make(map[string]*FetchStats, len(s.Arrays))
	for i, array := range s.Arrays {
		r := results[i]
		if r.Err != nil {
			return nil, fmt.Errorf("core: fetch %s/%s: %w", s.Path, array, r.Err)
		}
		if r.Payload.NumPoints != desc.Grid.NumPoints() {
			return nil, fmt.Errorf("core: payload for %q has %d points, grid has %d",
				array, r.Payload.NumPoints, desc.Grid.NumPoints())
		}
		vals, err := r.Payload.Reconstruct()
		if err != nil {
			return nil, err
		}
		if err := ds.AddField(&grid.Field{Name: array, Values: vals}); err != nil {
			return nil, err
		}
		s.Stats[array] = r.Stats
	}
	return ds, nil
}

var _ pipeline.Stage = (*NDPSource)(nil)
