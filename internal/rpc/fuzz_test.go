package rpc

import (
	"testing"
	"time"

	"vizndp/internal/telemetry"
)

// FuzzDecodeIncoming hammers the server-side frame decoder with
// arbitrary bodies. The server feeds it bytes straight off the socket
// (after the length prefix), so it must fail with an error on garbage,
// never panic.
func FuzzDecodeIncoming(f *testing.F) {
	if req, err := encodeRequest(7, "Fetch", []any{"sim", "v02", 0.3}, ""); err == nil {
		f.Add(req)
	}
	if req, err := encodeRequest(1, "Ping", nil, "trace:span"); err == nil {
		f.Add(req)
	}
	// Deadline-bearing meta elements: traced, untraced, and malformed
	// (non-numeric, negative, overflowing) deadlines must all decode —
	// the bad ones just losing the deadline — without panicking.
	if req, err := encodeRequest(2, "Fetch", []any{"k"},
		encodeMeta("trace:span", 250*time.Millisecond)); err == nil {
		f.Add(req)
	}
	if req, err := encodeRequest(3, "Fetch", []any{"k"}, encodeMeta("", time.Second)); err == nil {
		f.Add(req)
	}
	if req, err := encodeRequest(4, "Fetch", nil, "trace:span;dl=bogus"); err == nil {
		f.Add(req)
	}
	if req, err := encodeRequest(5, "Fetch", nil, ";dl=-1;dl=99999999999999999999"); err == nil {
		f.Add(req)
	}
	f.Add([]byte{})
	f.Add([]byte{0x90})       // empty array
	f.Add([]byte{0x94, 0xc0}) // 4-array starting with nil

	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = decodeIncoming(data)
	})
}

// FuzzDecodeResponse does the same for the client-side decoder.
func FuzzDecodeResponse(f *testing.F) {
	if resp, err := encodeResponse(7, nil, []any{int64(1), "ok"}, nil); err == nil {
		f.Add(resp)
	}
	if resp, err := encodeResponse(9, ErrShutdown, nil, []telemetry.SpanData{}); err == nil {
		f.Add(resp)
	}
	// Busy-marked error strings: a well-formed shed response, a bare
	// prefix with no message, and a truncated/embedded prefix must all
	// decode (or fail) without panicking.
	if resp, err := encodeResponse(3, ErrBusy, nil, nil); err == nil {
		f.Add(resp)
	}
	if resp, err := encodeResponse(4, busyError(""), nil, nil); err == nil {
		f.Add(resp)
	}
	if resp, err := encodeResponse(5, ServerError("mid\x01busy\x01dle"), nil, nil); err == nil {
		f.Add(resp)
	}
	// Markers damaged in flight: garbled past the leading byte, and with
	// the leading byte alone hit.
	if resp, err := encodeResponse(6, ServerError("\x01b/)#[(*9`z)?(,?(zbusy: 2 in flight, 2 queued"), nil, nil); err == nil {
		f.Add(resp)
	}
	if resp, err := encodeResponse(8, ServerError("\x41corrupt\x01page 3"), nil, nil); err == nil {
		f.Add(resp)
	}
	f.Add([]byte{})
	f.Add([]byte{0x94, 0x01, 0xc0, 0xc0})

	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, _ = decodeResponse(data)
	})
}

// FuzzParseWireContext hammers the request-meta parser — the
// "<trace>:<span>;dl=<ns>" string a peer fully controls — with
// arbitrary inputs, checking the invariants the server relies on:
// splitMeta never yields a negative deadline, a successful trace parse
// never yields zero ids, and whatever was decoded re-encodes to a meta
// element that decodes identically (so a proxy may parse and re-emit).
func FuzzParseWireContext(f *testing.F) {
	f.Add("0123456789abcdef:fedcba9876543210;dl=2500000")
	f.Add("0123456789abcdef:fedcba9876543210")
	f.Add("deadbeef:cafe;dl=-42")
	f.Add(";dl=1")
	f.Add("::;dl=;dl=")
	f.Add("0:0")
	f.Add("ffffffffffffffff:ffffffffffffffff;dl=9223372036854775807")
	f.Add("a;dl=99999999999999999999")
	f.Add(encodeMeta("00ab:00cd", 3*time.Second))

	f.Fuzz(func(t *testing.T, meta string) {
		wireCtx, dl := splitMeta(meta)
		if dl < 0 {
			t.Fatalf("splitMeta(%q) produced negative deadline %v", meta, dl)
		}
		trace, span, ok := telemetry.ParseWireContext(wireCtx)
		if ok && (trace == 0 || span == 0) {
			t.Fatalf("ParseWireContext(%q) ok with zero id (trace=%d span=%d)", wireCtx, trace, span)
		}
		// Round trip: splitMeta's head never contains the separator, so
		// re-encoding must reproduce both parts exactly.
		wc2, dl2 := splitMeta(encodeMeta(wireCtx, dl))
		if wc2 != wireCtx || dl2 != dl {
			t.Fatalf("meta round trip changed (%q, %v) -> (%q, %v)", wireCtx, dl, wc2, dl2)
		}
		t2, s2, ok2 := telemetry.ParseWireContext(wc2)
		if ok2 != ok || t2 != trace || s2 != span {
			t.Fatalf("trace parse disagrees after round trip: (%d,%d,%v) vs (%d,%d,%v)",
				trace, span, ok, t2, s2, ok2)
		}
	})
}
