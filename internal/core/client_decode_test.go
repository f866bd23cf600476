package core

import (
	"context"
	"net"
	"testing"
	"time"

	"vizndp/internal/contour"
	"vizndp/internal/rpc"
	"vizndp/internal/vtkio"
)

// validPayloadBytes builds encoded payload bytes the decoder accepts.
func validPayloadBytes(t *testing.T) []byte {
	t.Helper()
	g, f := sphereField(8)
	pre := &PreFilter{Isovalues: []float64{3}, Encoding: EncIndexValue}
	payload, _, err := pre.Run(g, f)
	if err != nil {
		t.Fatal(err)
	}
	return payload.Data
}

// replyDataKeys are the data keys of the four fetch replies plus the
// manifest's: every one goes through decodeReply.
var replyDataKeys = []string{"payload", "values", "data", "manifest"}

func TestDecodeFetchResultMissingOptionalKeys(t *testing.T) {
	data := validPayloadBytes(t)
	total := 100 * time.Millisecond
	for _, key := range replyDataKeys {
		// Only the data key: all server-side timings default to zero and
		// the whole client-observed time is attributed to transfer.
		got, m, st, err := decodeReply(map[string]any{key: data}, key, total)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if string(got) != string(data) || m == nil {
			t.Fatalf("%s: data or reply map not handed back", key)
		}
		if st.ReadTime != 0 || st.FilterTime != 0 {
			t.Errorf("%s: missing timing keys decoded to %v/%v, want 0/0", key, st.ReadTime, st.FilterTime)
		}
		if st.TransferTime != total {
			t.Errorf("%s: TransferTime = %v, want full total %v", key, st.TransferTime, total)
		}
		if st.TotalTime != total {
			t.Errorf("%s: TotalTime = %v, want %v", key, st.TotalTime, total)
		}
		if st.RawBytes != 0 || st.SelectedPoints != 0 {
			t.Errorf("%s: missing size keys decoded to %d/%d, want 0/0", key, st.RawBytes, st.SelectedPoints)
		}
		if st.PayloadBytes != int64(len(data)) {
			t.Errorf("%s: PayloadBytes = %d, not derived from the %d data bytes", key, st.PayloadBytes, len(data))
		}
	}
	payload, st, err := decodeFetchResult(map[string]any{"payload": data}, total)
	if err != nil {
		t.Fatal(err)
	}
	if payload == nil || len(payload.Data) == 0 || st.PayloadBytes != int64(payload.WireSize()) {
		t.Fatal("payload not decoded")
	}
}

func TestDecodeFetchResultClampsTransferTime(t *testing.T) {
	data := validPayloadBytes(t)
	for _, key := range replyDataKeys {
		// Server-reported work exceeds the client-observed total (clock
		// skew, coarse timers): TransferTime must clamp at zero, never
		// negative.
		res := map[string]any{
			key:        data,
			"readns":   int64(80 * time.Millisecond),
			"filterns": int64(40 * time.Millisecond),
			"rawbytes": int64(4000),
			"selected": int64(17),
		}
		_, _, st, err := decodeReply(res, key, 100*time.Millisecond)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if st.TransferTime != 0 {
			t.Errorf("%s: TransferTime = %v, want clamped 0", key, st.TransferTime)
		}
		if st.ReadTime != 80*time.Millisecond || st.FilterTime != 40*time.Millisecond {
			t.Errorf("%s: server timings mangled: %v/%v", key, st.ReadTime, st.FilterTime)
		}
		if st.RawBytes != 4000 || st.SelectedPoints != 17 {
			t.Errorf("%s: sizes = %d/%d, want 4000/17", key, st.RawBytes, st.SelectedPoints)
		}
	}
}

func TestDecodeFetchResultBadShapes(t *testing.T) {
	data := validPayloadBytes(t)
	for _, key := range replyDataKeys {
		bad := map[string]any{
			"non-map result":      "nope",
			"non-bytes data":      map[string]any{key: "nope"},
			"data under no key":   map[string]any{},
			"data under some key": map[string]any{"other": data},
			"crc of a wrong type": map[string]any{key: data, "crc": "nope"},
		}
		for name, res := range bad {
			if _, _, _, err := decodeReply(res, key, time.Second); err == nil {
				t.Errorf("%s: %s accepted", key, name)
			}
		}
	}
	if _, _, err := decodeFetchResult("nope", time.Second); err == nil {
		t.Error("non-map result accepted")
	}
	if _, _, err := decodeFetchResult(map[string]any{"payload": "nope"}, time.Second); err == nil {
		t.Error("non-bytes payload accepted")
	}
	if _, _, err := decodeFetchResult(map[string]any{"payload": []byte("not a payload")}, time.Second); err == nil {
		t.Error("undecodable payload bytes accepted")
	}
}

// TestFetchSliceStatsClamp drives FetchSliceContext against a handler
// returning a crafted reply whose server-side timings exceed the
// client total, so the slice path's clamp is exercised over a real RPC
// round trip.
func TestFetchSliceStatsClamp(t *testing.T) {
	vals := make([]float32, 9)
	for i := range vals {
		vals[i] = float32(i)
	}
	srv := rpc.NewServer()
	srv.Register(MethodFetchSlice, func(_ context.Context, _ []any) (any, error) {
		return map[string]any{
			"dims":    []any{int64(3), int64(3), int64(1)},
			"origin":  []any{float64(0), float64(0), float64(2)},
			"spacing": []any{float64(1), float64(1), float64(1)},
			"values":  vtkio.FloatsToBytes(vals),
			// An hour of claimed server work: total - read - filter is
			// hugely negative and must clamp to zero.
			"readns":   int64(time.Hour),
			"filterns": int64(time.Hour),
			"rawbytes": int64(4000),
		}, nil
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	client, err := Dial(ln.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	g2, got, st, err := client.FetchSlice("any.vnd", "d", contour.AxisZ, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Dims.X != 3 || g2.Dims.Y != 3 || g2.Dims.Z != 1 {
		t.Errorf("slice dims = %+v", g2.Dims)
	}
	if g2.Origin.Z != 2 {
		t.Errorf("slice origin Z = %v, want 2", g2.Origin.Z)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("value %d = %v, want %v", i, got[i], vals[i])
		}
	}
	if st.TransferTime != 0 {
		t.Errorf("TransferTime = %v, want clamped 0", st.TransferTime)
	}
	if st.ReadTime != time.Hour || st.FilterTime != time.Hour {
		t.Errorf("server timings mangled: %v/%v", st.ReadTime, st.FilterTime)
	}
	if st.RawBytes != 4000 || st.PayloadBytes != int64(4*len(vals)) {
		t.Errorf("sizes = %d/%d", st.RawBytes, st.PayloadBytes)
	}
	if st.SelectedPoints != len(vals) {
		t.Errorf("SelectedPoints = %d, want %d", st.SelectedPoints, len(vals))
	}
}
