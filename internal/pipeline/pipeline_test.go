package pipeline

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"vizndp/internal/compress"
	"vizndp/internal/contour"
	"vizndp/internal/grid"
	"vizndp/internal/vtkio"
)

// sphereDataset builds a dataset with a distance field named "d".
// funcStage adapts a function to the Stage interface.
type funcStage struct {
	name string
	fn   func(ctx context.Context, in any) (any, error)
}

func (s funcStage) Name() string { return s.name }

func (s funcStage) Execute(ctx context.Context, in any) (any, error) { return s.fn(ctx, in) }

func sphereDataset(n int) *grid.Dataset {
	g := grid.NewUniform(n, n, n)
	ds := grid.NewDataset(g)
	f := grid.NewField("d", g.NumPoints())
	c := float64(n-1) / 2
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				dx, dy, dz := float64(i)-c, float64(j)-c, float64(k)-c
				f.Values[g.PointIndex(i, j, k)] = float32(math.Sqrt(dx*dx + dy*dy + dz*dz))
			}
		}
	}
	ds.MustAddField(f)
	return ds
}

func TestRunSourceFilterSink(t *testing.T) {
	ds := sphereDataset(16)
	p := New(
		&DatasetSource{Dataset: ds},
		&ContourFilter{Array: "d", Isovalues: []float64{5}},
		funcStage{"sink", func(_ context.Context, in any) (any, error) { return in, nil }},
	)
	out, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	mesh, ok := out.(*contour.Mesh)
	if !ok {
		t.Fatalf("output is %T", out)
	}
	if mesh.NumTriangles() == 0 {
		t.Error("no triangles")
	}
	if p.StageTime(ContourStageName) <= 0 {
		t.Error("contour stage time not recorded")
	}
	if p.Total() < p.StageTime(ContourStageName) {
		t.Error("total < stage time")
	}
}

func TestEmptyPipeline(t *testing.T) {
	if _, err := New().Run(context.Background()); err == nil {
		t.Error("empty pipeline ran")
	}
}

func TestStageErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	p := New(funcStage{"bad", func(context.Context, any) (any, error) {
		return nil, boom
	}})
	if _, err := p.Run(context.Background()); !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := New(&DatasetSource{Dataset: sphereDataset(4)})
	if _, err := p.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v", err)
	}
}

func TestContourFilterErrors(t *testing.T) {
	f := &ContourFilter{Array: "missing", Isovalues: []float64{1}}
	if _, err := f.Execute(context.Background(), sphereDataset(4)); err == nil {
		t.Error("missing array accepted")
	}
	if _, err := f.Execute(context.Background(), "not a dataset"); err == nil {
		t.Error("wrong input type accepted")
	}
}

func TestContourFilter2D(t *testing.T) {
	g := grid.NewUniform(16, 16, 1)
	ds := grid.NewDataset(g)
	f := grid.NewField("d", g.NumPoints())
	for j := 0; j < 16; j++ {
		for i := 0; i < 16; i++ {
			dx, dy := float64(i)-7.5, float64(j)-7.5
			f.Values[g.PointIndex(i, j, 0)] = float32(math.Sqrt(dx*dx + dy*dy))
		}
	}
	ds.MustAddField(f)
	out, err := (&ContourFilter{Array: "d", Isovalues: []float64{5}}).
		Execute(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	ls, ok := out.(*contour.LineSet)
	if !ok || ls.NumSegments() == 0 {
		t.Errorf("2D contour output = %T with %v", out, ls)
	}
}

func TestMultiContour(t *testing.T) {
	ds := sphereDataset(12)
	f2 := grid.NewField("d2", ds.Grid.NumPoints())
	copy(f2.Values, ds.Field("d").Values)
	ds.MustAddField(f2)

	m := &MultiContour{Filters: []*ContourFilter{
		{Array: "d", Isovalues: []float64{4}},
		{Array: "d2", Isovalues: []float64{4}},
	}}
	out, err := m.Execute(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	results := out.(map[string]any)
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	a := results["d"].(*contour.Mesh)
	b := results["d2"].(*contour.Mesh)
	if !a.Equal(b) {
		t.Error("identical arrays produced different meshes")
	}
}

func TestFileSourceLocalFS(t *testing.T) {
	dir := t.TempDir()
	ds := sphereDataset(12)
	f2 := grid.NewField("extra", ds.Grid.NumPoints())
	ds.MustAddField(f2)
	if err := vtkio.WriteFile(filepath.Join(dir, "ts0.vnd"), ds,
		vtkio.WriteOptions{Codec: compress.LZ4}); err != nil {
		t.Fatal(err)
	}

	src := &FileSource{FS: os.DirFS(dir), Path: "ts0.vnd", Arrays: []string{"d"}}
	p := New(src, &ContourFilter{Array: "d", Isovalues: []float64{4}})
	out, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.(*contour.Mesh).NumTriangles() == 0 {
		t.Error("no triangles from file-sourced pipeline")
	}
	if p.StageTime(SourceStageName) <= 0 {
		t.Error("source stage time not recorded")
	}
	// Selecting only "d" must not load "extra".
	dsOut, err := (&FileSource{FS: os.DirFS(dir), Path: "ts0.vnd", Arrays: []string{"d"}}).
		Execute(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if dsOut.(*grid.Dataset).Field("extra") != nil {
		t.Error("unselected array was loaded")
	}
}

func TestFileSourceMissing(t *testing.T) {
	src := &FileSource{FS: os.DirFS(t.TempDir()), Path: "nope.vnd"}
	if _, err := src.Execute(context.Background(), nil); err == nil {
		t.Error("missing file accepted")
	}
}

func TestTimingsResetPerRun(t *testing.T) {
	p := New(&DatasetSource{Dataset: sphereDataset(4)})
	for i := 0; i < 3; i++ {
		if _, err := p.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if p.Total() != p.StageTime(SourceStageName) {
		t.Errorf("timings accumulated across runs: total %v, one stage %v",
			p.Total(), p.StageTime(SourceStageName))
	}
}

func TestStageTimeUnknown(t *testing.T) {
	p := New(&DatasetSource{Dataset: sphereDataset(4)})
	if _, err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if p.StageTime("nope") != time.Duration(0) {
		t.Error("unknown stage has nonzero time")
	}
}

func TestThresholdFilterStage(t *testing.T) {
	ds := sphereDataset(12)
	f := &ThresholdFilter{Array: "d", Lo: 3, Hi: 5}
	if f.Name() != "threshold" {
		t.Errorf("Name = %q", f.Name())
	}
	out, err := f.Execute(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	cs := out.(*contour.CellSet)
	if cs.Count() == 0 {
		t.Error("no cells kept")
	}
	if _, err := f.Execute(context.Background(), "junk"); err == nil {
		t.Error("bad input accepted")
	}
	if _, err := (&ThresholdFilter{Array: "ghost", Lo: 1, Hi: 2}).
		Execute(context.Background(), ds); err == nil {
		t.Error("missing array accepted")
	}
}

func TestStageNames(t *testing.T) {
	if (&MultiContour{}).Name() != "multi-contour" {
		t.Error("MultiContour name")
	}
	if (&FileSource{}).Name() != SourceStageName {
		t.Error("FileSource name")
	}
}
