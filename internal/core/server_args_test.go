package core

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vizndp/internal/compress"
	"vizndp/internal/grid"
	"vizndp/internal/vtkio"
)

func TestAsFloat(t *testing.T) {
	cases := []struct {
		name string
		in   any
		want float64
		ok   bool
	}{
		{"float64", float64(7.5), 7.5, true},
		{"float32", float32(2.25), 2.25, true},
		{"int64", int64(7), 7, true},
		{"negative int64", int64(-3), -3, true},
		{"uint64", uint64(12), 12, true},
		{"string", "7", 0, false},
		{"nil", nil, 0, false},
		{"bool", true, 0, false},
		{"slice", []any{1.0}, 0, false},
	}
	for _, tc := range cases {
		got, ok := asFloat(tc.in)
		if ok != tc.ok || got != tc.want {
			t.Errorf("asFloat(%s) = (%v, %v), want (%v, %v)",
				tc.name, got, ok, tc.want, tc.ok)
		}
	}
}

// argsServer serves a sphere dataset for direct handler invocation.
func argsServer(t *testing.T) *Server {
	t.Helper()
	g, f := sphereField(16)
	ds := grid.NewDataset(g)
	ds.MustAddField(f)
	dir := t.TempDir()
	if err := vtkio.WriteFile(filepath.Join(dir, "ts0.vnd"), ds,
		vtkio.WriteOptions{Codec: compress.None}); err != nil {
		t.Fatal(err)
	}
	return NewServer(os.DirFS(dir))
}

// TestFetchAcceptsIntegerEncodedIsovalues pins the wire-robustness fix:
// msgpack encodes whole numbers as ints, so a client sending isovalue 7
// delivers int64(7), which the handler must accept as 7.0.
func TestFetchAcceptsIntegerEncodedIsovalues(t *testing.T) {
	s := argsServer(t)
	ctx := context.Background()

	asMap := func(v any, err error) map[string]any {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v.(map[string]any)
	}

	// Integer-encoded and float-encoded isovalues must select the same
	// points and produce identical payloads.
	intRes := asMap(s.serveFetch(ctx, []any{"ts0.vnd", "d", []any{int64(5)}, "indexvalue"}, contourSelector))
	floatRes := asMap(s.serveFetch(ctx, []any{"ts0.vnd", "d", []any{float64(5)}, "indexvalue"}, contourSelector))
	if string(intRes["payload"].([]byte)) != string(floatRes["payload"].([]byte)) {
		t.Error("int-encoded isovalue payload differs from float-encoded")
	}
	if intRes["selected"].(int64) == 0 {
		t.Error("int-encoded isovalue selected nothing")
	}

	// Mixed numeric kinds in one request, including float32 and uint64.
	asMap(s.serveFetch(ctx, []any{"ts0.vnd", "d",
		[]any{int64(5), float32(6.5), uint64(7)}, "indexvalue"}, contourSelector))

	// Non-numeric isovalues still fail with a typed error.
	if _, err := s.serveFetch(ctx, []any{"ts0.vnd", "d", []any{"7"}, "indexvalue"}, contourSelector); err == nil ||
		!strings.Contains(err.Error(), "want number") {
		t.Errorf("string isovalue error = %v, want 'want number'", err)
	}
}

// TestFetchRangeAcceptsIntegerEncodedBounds does the same for the
// lo/hi bounds of fetchrange.
func TestFetchRangeAcceptsIntegerEncodedBounds(t *testing.T) {
	s := argsServer(t)
	ctx := context.Background()

	cases := []struct {
		name   string
		lo, hi any
	}{
		{"int64 bounds", int64(4), int64(8)},
		{"mixed int/float", int64(4), float64(8)},
		{"uint64/float32", uint64(4), float32(8)},
	}
	var want string
	for i, tc := range cases {
		v, err := s.serveFetch(ctx, []any{"ts0.vnd", "d", tc.lo, tc.hi, "indexvalue"}, rangeSelector)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		payload := string(v.(map[string]any)["payload"].([]byte))
		if i == 0 {
			want = payload
			if len(payload) == 0 {
				t.Fatalf("%s: empty payload", tc.name)
			}
		} else if payload != want {
			t.Errorf("%s: payload differs from int64-bounds payload", tc.name)
		}
	}

	if _, err := s.serveFetch(ctx, []any{"ts0.vnd", "d", "4", float64(8), "indexvalue"}, rangeSelector); err == nil ||
		!strings.Contains(err.Error(), "want number") {
		t.Errorf("string lo error = %v, want 'want number'", err)
	}
	if _, err := s.serveFetch(ctx, []any{"ts0.vnd", "d", float64(4)}, rangeSelector); err == nil {
		t.Error("missing hi argument accepted")
	}
}
