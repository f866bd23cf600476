package harness

import (
	"bytes"
	"context"
	"fmt"
	"image/color"
	"math"
	"time"

	"vizndp/internal/compress"
	"vizndp/internal/contour"
	"vizndp/internal/core"
	"vizndp/internal/grid"
	"vizndp/internal/netsim"
	"vizndp/internal/render"
	"vizndp/internal/sim"
	"vizndp/internal/stats"
	"vizndp/internal/vtkio"
)

// AblationLinkSpeed projects NDP's speedup over the baseline as the
// inter-node link capacity varies, using an analytic cost model fed by
// measured local (unshaped) load times and stored sizes:
//
//	baseline(bw) = local load time + stored size / bw
//	ndp(bw)      = local load + pre-filter time + payload size / bw
//
// This extends the paper's observation that NDP's advantage is bounded
// by local read time: as links get faster the baseline catches up.
func (e *Env) AblationLinkSpeed(array string, iso float64, linkBits []float64) (*stats.Table, error) {
	t := stats.NewTable(
		fmt.Sprintf("Ablation: NDP speedup vs link speed (%s, iso %.2f, raw data)", array, iso),
		"link", "baseline", "ndp", "speedup")

	// One measurement pass at a representative (middle) timestep.
	step := e.steps[len(e.steps)/2]
	local, err := e.LocalLoad("asteroid", compress.None, step, array)
	if err != nil {
		return nil, err
	}
	size, err := e.StoredSize("asteroid", compress.None, step, array)
	if err != nil {
		return nil, err
	}
	ds := e.asteroidSet[step]
	pre := &core.PreFilter{Isovalues: []float64{iso}, Encoding: core.EncAuto}
	payload, st, err := pre.Run(ds.Grid, ds.Field(array))
	if err != nil {
		return nil, err
	}

	for _, bits := range linkBits {
		link := netsim.NewLink(bits, 0)
		baseline := local.LoadTime + link.TransferTime(size)
		ndp := local.LoadTime + st.FilterTime + link.TransferTime(int64(payload.WireSize()))
		row(t, fmt.Sprintf("%.1f Gb/s", bits/netsim.Gbps), baseline, ndp, speedupX(baseline, ndp))
	}
	return t, nil
}

// AblationEncoding compares the two payload encodings (plus auto) across
// contour values on the asteroid dataset — the DESIGN.md encoding
// trade-off, measured.
func (e *Env) AblationEncoding(array string) (*stats.Table, error) {
	t := stats.NewTable(
		fmt.Sprintf("Ablation: payload encoding sizes (%s)", array),
		"step", "iso", "selectivity", "indexvalue", "blockbitmap", "auto picks")
	for _, step := range e.steps {
		ds := e.asteroidSet[step]
		for _, iso := range e.Cfg.ContourValues {
			row := []string{fmt.Sprintf("%d", step), fmt.Sprintf("%.1f", iso)}
			var autoPick string
			var sel float64
			sizes := make(map[core.Encoding]int)
			for _, enc := range []core.Encoding{core.EncIndexValue, core.EncBlockBitmap, core.EncAuto} {
				pre := &core.PreFilter{Isovalues: []float64{iso}, Encoding: enc}
				payload, st, err := pre.Run(ds.Grid, ds.Field(array))
				if err != nil {
					return nil, err
				}
				if enc == core.EncAuto {
					autoPick = payload.Encoding.String()
				} else {
					sizes[enc] = payload.WireSize()
				}
				sel = st.Selectivity()
			}
			row = append(row,
				fmt.Sprintf("%.3f%%", 100*sel),
				stats.FormatBytes(int64(sizes[core.EncIndexValue])),
				stats.FormatBytes(int64(sizes[core.EncBlockBitmap])),
				autoPick,
			)
			t.AddRow(row...)
		}
	}
	return t, nil
}

// EndToEnd extends the paper's measurements (which stop at data load
// time) to full pipeline runtimes — the paper's stated future work:
// load + contour generation + rendering, baseline vs NDP, per codec.
func (e *Env) EndToEnd(array string, iso float64) (*stats.Table, error) {
	t := stats.NewTable(
		fmt.Sprintf("Extension: end-to-end pipeline time (%s, iso %.1f)", array, iso),
		"codec", "base load", "base total", "ndp load", "ndp total", "total speedup")
	step := e.steps[len(e.steps)/2]
	isos := []float64{iso}
	post := &core.PostFilter{Isovalues: isos}
	renderOpts := render.Options{Width: 256, Height: 256, AzimuthDeg: 35, ElevationDeg: 25}

	draw := func(mesh *contour.Mesh) error {
		_, err := render.Mesh(mesh, color.RGBA{R: 200, A: 255}, renderOpts)
		return err
	}

	// Each side's load time is its load call alone, as BaselineLoad and
	// NDPLoad time it; its total runs on through contour and render.
	for _, codec := range Codecs {
		key := ObjectKey("asteroid", codec, step)
		desc, err := e.ndpClient.Describe(key)
		if err != nil {
			return nil, err
		}
		// Baseline: full-array read over the link, contour, render.
		start := time.Now()
		field, err := loadArray(e.remote, key, array)
		if err != nil {
			return nil, err
		}
		baseLoad := time.Since(start)
		baseMesh, err := contour.MarchingTetrahedra(desc.Grid, field.Values, isos)
		if err == nil {
			err = draw(baseMesh)
		}
		if err != nil {
			return nil, err
		}
		baseTotal := time.Since(start)

		// NDP: pre-filtered fetch, post-filter contour, render.
		start = time.Now()
		payload, _, err := e.ndpClient.FetchFilteredContext(context.Background(), key, array, isos, core.EncAuto)
		if err != nil {
			return nil, err
		}
		ndpLoad := time.Since(start)
		ndpMesh, err := post.Contour(desc.Grid, array, payload)
		if err == nil {
			err = draw(ndpMesh)
		}
		if err != nil {
			return nil, err
		}
		ndpTotal := time.Since(start)

		// The two pipelines must agree exactly.
		if !baseMesh.Equal(ndpMesh) {
			return nil, fmt.Errorf("harness: end-to-end meshes differ for %s", codec)
		}

		row(t, codec.String(), baseLoad, baseTotal, ndpLoad, ndpTotal, speedupX(baseTotal, ndpTotal))
	}
	return t, nil
}

// AblationLossy implements the paper's compression future-work item:
// store the Nyx baryon density with the error-bounded quantizing codec
// at several bounds and compare stored size and load times against the
// lossless codecs, verifying the error bound and that NDP composes with
// lossy storage unchanged.
func (e *Env) AblationLossy(bounds []float64) (*stats.Table, error) {
	t := stats.NewTable(
		"Extension: error-bounded lossy storage (nyx baryon density)",
		"storage", "stored size", "baseline", "ndp", "max abs err")
	const array = "baryon_density"
	want := e.nyxDS.Field(array).Values
	isos := []float64{sim.NyxHaloThreshold}

	addRow := func(label, key string) error {
		reader, f, err := openReader(e.local, key)
		if err != nil {
			return err
		}
		size := reader.Header().Array(array).CompressedSize()
		got, err := reader.ReadArray(array)
		f.Close()
		if err != nil {
			return err
		}
		maxErr := 0.0
		for i := range want {
			if d := math.Abs(float64(got.Values[i]) - float64(want[i])); d > maxErr {
				maxErr = d
			}
		}
		base, err := e.baselineLoadKey(key, array)
		if err != nil {
			return err
		}
		ndp, err := e.ndpLoadKey(key, array, isos)
		if err != nil {
			return err
		}
		row(t, label, stats.FormatBytes(size), base.LoadTime, ndp.LoadTime, fmt.Sprintf("%.2g", maxErr))
		return nil
	}

	for _, codec := range Codecs {
		if err := addRow(codec.String(), ObjectKey("nyx", codec, 0)); err != nil {
			return nil, err
		}
	}
	for _, bound := range bounds {
		key := vtkio.ObjectKey("nyx", fmt.Sprintf("qlz4-%g", bound), 0)
		if err := e.putDataset(key, e.nyxDS, vtkio.WriteOptions{LossyBound: bound, Checksum: true}); err != nil {
			return nil, err
		}
		if err := addRow(fmt.Sprintf("qlz4 (err %g)", bound), key); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// ExtensionSlice measures the split slice filter: fetching one plane of
// an array versus loading the whole array to slice it locally — the
// best case for near-data processing (reduction equals the grid edge
// length regardless of data content).
func (e *Env) ExtensionSlice(array string) (*stats.Table, error) {
	t := stats.NewTable(
		fmt.Sprintf("Extension: split slice filter (%s, raw data, z mid-plane)", array),
		"step", "baseline", "ndp slice", "speedup", "baseline net", "slice net")
	for _, step := range e.steps {
		ds := e.asteroidSet[step]
		index := ds.Grid.Dims.Z / 2
		key := ObjectKey("asteroid", compress.None, step)

		base, err := e.BaselineLoad("asteroid", compress.None, step, array)
		if err != nil {
			return nil, err
		}

		var g2 *grid.Uniform
		var vals []float32
		slice, err := e.measure(func() (err error) {
			g2, vals, _, err = e.ndpClient.FetchSliceContext(context.Background(), key, array, contour.AxisZ, index)
			return err
		}, func() error {
			// Verify against the in-memory dataset once.
			wantGrid, want, err := contour.ExtractSlice(ds.Grid, ds.Field(array).Values, contour.AxisZ, index)
			if err != nil {
				return err
			}
			// Bytes, not values: value equality misstates NaN and ±0.
			if !g2.Equal(wantGrid) || !bytes.Equal(vtkio.FloatsToBytes(vals), vtkio.FloatsToBytes(want)) {
				return fmt.Errorf("harness: slice mismatch at step %d", step)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		row(t, step, base.LoadTime, slice.LoadTime, speedupX(base.LoadTime, slice.LoadTime),
			stats.FormatBytes(base.NetworkBytes), stats.FormatBytes(slice.NetworkBytes))
	}
	return t, nil
}

// AblationMultiIso compares fetching all contour values in one
// pre-filtered payload against one fetch per value — the benefit of the
// prototype's multi-isovalue support.
func (e *Env) AblationMultiIso(array string) (*stats.Table, error) {
	t := stats.NewTable(
		fmt.Sprintf("Ablation: multi-isovalue single pass vs per-value passes (%s, raw data)", array),
		"step", "single pass", "per-value passes", "single bytes", "per-value bytes")
	for _, step := range e.steps {
		m, err := e.NDPLoad("asteroid", compress.None, step, array, e.Cfg.ContourValues)
		if err != nil {
			return nil, err
		}
		singleBytes := m.NetworkBytes

		var perTotal time.Duration
		var perBytes int64
		for _, iso := range e.Cfg.ContourValues {
			pm, err := e.NDPLoad("asteroid", compress.None, step, array, []float64{iso})
			if err != nil {
				return nil, err
			}
			perTotal += pm.LoadTime
			perBytes += pm.NetworkBytes
		}
		row(t, step, m.LoadTime, perTotal, stats.FormatBytes(singleBytes), stats.FormatBytes(perBytes))
	}
	return t, nil
}
