// Package pipeline models VTK-style visualization pipelines: a source
// that introduces data, filters that transform it, and a sink that
// consumes the result. Stages execute sequentially and each stage runs
// under a telemetry span, which is how the experiments separate "data
// load time" (the source stage — the quantity every figure in the paper
// reports) from downstream contour generation and rendering time (which
// the paper excludes). When the caller's context already carries a
// span (for example vizpipe -v), the stage spans — and, through the
// instrumented RPC layer, the storage-side pre-filter spans — all join
// that one trace.
package pipeline

import (
	"context"
	"fmt"
	"time"

	"vizndp/internal/telemetry"
)

// Stage is one pipeline element. Sources receive a nil input; filters
// and sinks receive the previous stage's output.
type Stage interface {
	// Name identifies the stage in timing reports.
	Name() string
	// Execute transforms in to out.
	Execute(ctx context.Context, in any) (any, error)
}

// Pipeline is an ordered chain of stages.
type Pipeline struct {
	stages []Stage
	spans  []telemetry.SpanData
}

// New builds a pipeline from stages, in order: source first, sink last.
func New(stages ...Stage) *Pipeline {
	return &Pipeline{stages: stages}
}

// Run executes the pipeline and returns the final stage's output. Each
// stage runs under a span named after the stage, all parented to one
// "pipeline" span; the finished span data doubles as the per-stage
// timing record StageTime and Total read until the next Run.
func (p *Pipeline) Run(ctx context.Context) (any, error) {
	if len(p.stages) == 0 {
		return nil, fmt.Errorf("pipeline: no stages")
	}
	p.spans = p.spans[:0]
	pctx, pspan := telemetry.StartSpan(ctx, "pipeline")
	defer pspan.End()
	var data any
	for _, s := range p.stages {
		if err := pctx.Err(); err != nil {
			return nil, err
		}
		sctx, span := telemetry.StartSpan(pctx, s.Name())
		out, err := s.Execute(sctx, data)
		if err != nil {
			span.SetAttr("error", err.Error())
		}
		span.End()
		p.spans = append(p.spans, span.Data())
		if err != nil {
			return nil, fmt.Errorf("pipeline: stage %q: %w", s.Name(), err)
		}
		data = out
	}
	return data, nil
}

// StageTime returns the elapsed time of the named stage in the most
// recent Run, or 0 if the stage did not run.
func (p *Pipeline) StageTime(name string) time.Duration {
	for _, d := range p.spans {
		if d.Name == name {
			return d.Dur
		}
	}
	return 0
}

// Total returns the summed stage time of the most recent Run.
func (p *Pipeline) Total() time.Duration {
	var sum time.Duration
	for _, d := range p.spans {
		sum += d.Dur
	}
	return sum
}
