package harness

import (
	"fmt"
	"time"

	"vizndp/internal/compress"
	"vizndp/internal/contour"
	"vizndp/internal/core"
	"vizndp/internal/sim"
	"vizndp/internal/stats"
)

// row appends a table row, formatting integers as counts and durations
// the way every table prints them; strings pass through. Short rows are
// padded by the table.
func row(t *stats.Table, cells ...any) {
	out := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			out[i] = v
		case time.Duration:
			out[i] = stats.FormatDuration(v)
		default:
			out[i] = fmt.Sprint(v)
		}
	}
	t.AddRow(out...)
}

// speedupX formats how many times faster fast is than base.
func speedupX(base, fast time.Duration) string {
	return fmt.Sprintf("%.2fx", stats.Speedup(base, fast))
}

// asteroidArrays are the two arrays the paper contours.
var asteroidArrays = []string{"v02", "v03"}

// Fig1 reproduces Fig. 1: the range of data-reduction ratios achieved by
// GZip, LZ4, and contour-based (NDP) data selection across timesteps and
// contour values, on the asteroid dataset.
func (e *Env) Fig1() (*stats.Table, error) {
	var gzipRatios, lz4Ratios, ndpRatios []float64
	for _, array := range asteroidArrays {
		for _, step := range e.steps {
			ds := e.asteroidSet[step]
			raw := int64(4 * ds.Grid.NumPoints())
			for _, codec := range []compress.Kind{compress.Gzip, compress.LZ4} {
				size, err := e.StoredSize("asteroid", codec, step, array)
				if err != nil {
					return nil, err
				}
				r := float64(raw) / float64(size)
				if codec == compress.Gzip {
					gzipRatios = append(gzipRatios, r)
				} else {
					lz4Ratios = append(lz4Ratios, r)
				}
			}
			for _, iso := range e.Cfg.ContourValues {
				pre := &core.PreFilter{Isovalues: []float64{iso}, Encoding: core.EncAuto}
				_, st, err := pre.Run(ds.Grid, ds.Field(array))
				if err != nil {
					return nil, err
				}
				ndpRatios = append(ndpRatios, st.Reduction())
			}
		}
	}
	t := stats.NewTable("Fig. 1: data reduction ratios (higher is better)",
		"technology", "min", "max")
	add := func(name string, xs []float64) {
		lo, hi := stats.MinMax(xs)
		t.AddRow(name, fmt.Sprintf("%.1fx", lo), fmt.Sprintf("%.1fx", hi))
	}
	add("gzip", gzipRatios)
	add("lz4", lz4Ratios)
	add("contour selection (NDP)", ndpRatios)
	return t, nil
}

// Fig5 reproduces Fig. 5 for one asteroid array: stored sizes (5a/5d),
// remote object-store load times (5b/5e), and local load times (5c/5f)
// under RAW, GZip, and LZ4.
func (e *Env) Fig5(array string) (*stats.Table, error) {
	t := stats.NewTable(
		fmt.Sprintf("Fig. 5 (%s): compressed sizes and load times", array),
		"step", "raw", "gzip", "lz4",
		"remote raw", "remote gzip", "remote lz4",
		"local raw", "local gzip", "local lz4")
	for _, step := range e.steps {
		row := []string{fmt.Sprintf("%d", step)}
		for _, codec := range Codecs {
			size, err := e.StoredSize("asteroid", codec, step, array)
			if err != nil {
				return nil, err
			}
			row = append(row, stats.FormatBytes(size))
		}
		for _, codec := range Codecs {
			m, err := e.BaselineLoad("asteroid", codec, step, array)
			if err != nil {
				return nil, err
			}
			row = append(row, stats.FormatDuration(m.LoadTime))
		}
		for _, codec := range Codecs {
			m, err := e.LocalLoad("asteroid", codec, step, array)
			if err != nil {
				return nil, err
			}
			row = append(row, stats.FormatDuration(m.LoadTime))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig6 reproduces Fig. 6: contour data selection rates in permillage for
// one asteroid array, per timestep and contour value, using the paper's
// interesting-edge-point metric.
func (e *Env) Fig6(array string) (*stats.Table, error) {
	headers := []string{"step"}
	for _, v := range e.Cfg.ContourValues {
		headers = append(headers, fmt.Sprintf("iso %.1f", v))
	}
	t := stats.NewTable(
		fmt.Sprintf("Fig. 6 (%s): selection rates (permillage of mesh points)", array),
		headers...)
	for _, step := range e.steps {
		ds := e.asteroidSet[step]
		row := []string{fmt.Sprintf("%d", step)}
		for _, iso := range e.Cfg.ContourValues {
			mask, err := contour.InterestingEdgePoints(ds.Grid, ds.Field(array).Values,
				[]float64{iso})
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.3f‰", 1000*contour.Selectivity(mask)))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig13 reproduces Fig. 13 for one array and codec: baseline vs NDP data
// load times per timestep, with one NDP series per contour value.
func (e *Env) Fig13(array string, codec compress.Kind) (*stats.Table, error) {
	headers := []string{"step", "baseline"}
	for _, v := range e.Cfg.ContourValues {
		headers = append(headers, fmt.Sprintf("ndp %.1f", v))
	}
	t := stats.NewTable(
		fmt.Sprintf("Fig. 13 (%s, %s): baseline vs NDP load times", array, codec),
		headers...)
	for _, step := range e.steps {
		base, err := e.BaselineLoad("asteroid", codec, step, array)
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprintf("%d", step), stats.FormatDuration(base.LoadTime)}
		for _, iso := range e.Cfg.ContourValues {
			m, err := e.NDPLoad("asteroid", codec, step, array, []float64{iso})
			if err != nil {
				return nil, err
			}
			row = append(row, stats.FormatDuration(m.LoadTime))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Table2 reproduces Table II: speedups in data load time over the RAW
// baseline for every combination of data reduction techniques, per array
// and contour value, aggregated across timesteps.
func (e *Env) Table2() (*stats.Table, error) {
	t := stats.NewTable("Table II: speedups in data load times vs RAW baseline",
		"array", "iso", "RAW", "NDP", "GZip", "LZ4", "GZip+NDP", "LZ4+NDP")

	type key struct {
		codec compress.Kind
		ndp   bool
		iso   float64
	}
	for _, array := range asteroidArrays {
		// Totals across timesteps, per technique.
		rawTotal := time.Duration(0)
		totals := make(map[key]time.Duration)
		for _, step := range e.steps {
			base, err := e.BaselineLoad("asteroid", compress.None, step, array)
			if err != nil {
				return nil, err
			}
			rawTotal += base.LoadTime
			for _, codec := range []compress.Kind{compress.Gzip, compress.LZ4} {
				m, err := e.BaselineLoad("asteroid", codec, step, array)
				if err != nil {
					return nil, err
				}
				totals[key{codec, false, 0}] += m.LoadTime
			}
			for _, iso := range e.Cfg.ContourValues {
				for _, codec := range Codecs {
					m, err := e.NDPLoad("asteroid", codec, step, array, []float64{iso})
					if err != nil {
						return nil, err
					}
					totals[key{codec, true, iso}] += m.LoadTime
				}
			}
		}
		sp := func(d time.Duration) string { return speedupX(rawTotal, d) }
		for _, iso := range e.Cfg.ContourValues {
			t.AddRow(array, fmt.Sprintf("%.1f", iso),
				"1.00x",
				sp(totals[key{compress.None, true, iso}]),
				sp(totals[key{compress.Gzip, false, 0}]),
				sp(totals[key{compress.LZ4, false, 0}]),
				sp(totals[key{compress.Gzip, true, iso}]),
				sp(totals[key{compress.LZ4, true, iso}]),
			)
		}
	}
	return t, nil
}

// Fig14 reproduces Fig. 14: Nyx baryon-density load times, baseline vs
// NDP, for RAW, GZip, and LZ4, contouring at the halo threshold.
func (e *Env) Fig14() (*stats.Table, error) {
	t := stats.NewTable("Fig. 14: Nyx baryon density load times (halo threshold 81.66)",
		"codec", "baseline", "ndp", "speedup", "baseline net", "ndp net")
	iso := []float64{sim.NyxHaloThreshold}
	for _, codec := range Codecs {
		base, err := e.BaselineLoad("nyx", codec, 0, "baryon_density")
		if err != nil {
			return nil, err
		}
		ndp, err := e.NDPLoad("nyx", codec, 0, "baryon_density", iso)
		if err != nil {
			return nil, err
		}
		row(t, codec.String(), base.LoadTime, ndp.LoadTime, speedupX(base.LoadTime, ndp.LoadTime),
			stats.FormatBytes(base.NetworkBytes), stats.FormatBytes(ndp.NetworkBytes))
	}
	return t, nil
}
