package stats

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 2})
	if lo != -1 || hi != 7 {
		t.Errorf("MinMax = %v, %v", lo, hi)
	}
	lo, hi = MinMax(nil)
	if lo != 0 || hi != 0 {
		t.Errorf("empty MinMax = %v, %v", lo, hi)
	}
	lo, hi = MinMax([]float64{5})
	if lo != 5 || hi != 5 {
		t.Errorf("single MinMax = %v, %v", lo, hi)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("empty Mean != 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("Mean wrong")
	}
}

func TestSpeedup(t *testing.T) {
	if s := Speedup(10*time.Second, 2*time.Second); s != 5 {
		t.Errorf("Speedup = %v", s)
	}
	if Speedup(time.Second, 0) != 0 {
		t.Error("zero divisor should yield 0")
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		512:     "512B",
		2048:    "2.0KiB",
		3 << 20: "3.00MiB",
		5 << 30: "5.00GiB",
	}
	for n, want := range cases {
		if got := FormatBytes(n); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestFormatDuration(t *testing.T) {
	if got := FormatDuration(1234567 * time.Nanosecond); got != "1.2ms" {
		t.Errorf("FormatDuration = %q", got)
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("Demo", "name", "value")
	tab.AddRow("alpha", "1")
	tab.AddRow("b") // short row padded
	out := tab.String()
	if !strings.Contains(out, "== Demo ==") {
		t.Error("missing title")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "name ") {
		t.Errorf("header = %q", lines[1])
	}
	// Alignment: all lines after the title should have equal prefix width
	// for the first column.
	if !strings.Contains(lines[3], "alpha") || !strings.Contains(lines[4], "b") {
		t.Error("rows missing")
	}
}

func TestTableNoTitle(t *testing.T) {
	tab := NewTable("", "a")
	tab.AddRow("x")
	if strings.Contains(tab.String(), "==") {
		t.Error("unexpected title markers")
	}
}

func TestPercentile(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		p    float64
		want float64
	}{
		{"empty", nil, 0.5, 0},
		{"single", []float64{42}, 0.99, 42},
		{"median-odd", []float64{3, 1, 2}, 0.5, 2},
		{"median-even-interpolated", []float64{1, 2, 3, 4}, 0.5, 2.5},
		{"p25-interpolated", []float64{0, 10}, 0.25, 2.5},
		{"p95-interpolated", []float64{10, 20, 30, 40, 50}, 0.95, 48},
		{"p0-is-min", []float64{5, -2, 9}, 0, -2},
		{"p100-is-max", []float64{5, -2, 9}, 1, 9},
		{"p-below-range-clamps", []float64{1, 2}, -0.5, 1},
		{"p-above-range-clamps", []float64{1, 2}, 1.5, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Percentile(tc.xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("Percentile(%v, %v) = %v, want %v", tc.xs, tc.p, got, tc.want)
			}
		})
	}
	// Percentile must not reorder the caller's slice.
	xs := []float64{3, 1, 2}
	Percentile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}
