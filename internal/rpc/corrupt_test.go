package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestCorruptErrorWireRoundTrip(t *testing.T) {
	herr := fmt.Errorf("%w: brick0003.vnd page 7", ErrCorrupt)
	body, err := encodeResponse(42, herr, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	msgid, resp, err := decodeResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	if msgid != 42 {
		t.Fatalf("msgid = %d, want 42", msgid)
	}
	if !errors.Is(resp.err, ErrCorrupt) {
		t.Fatalf("decoded error %v does not match ErrCorrupt", resp.err)
	}
	if got := resp.err.Error(); got != herr.Error() {
		t.Fatalf("decoded message %q, want %q", got, herr.Error())
	}
	// The decoded identity must stay data-level: not a busy rejection,
	// and not a ServerError verdict (which retry layers treat as final).
	if errors.Is(resp.err, ErrBusy) {
		t.Error("corrupt error also matches ErrBusy")
	}
	var se ServerError
	if errors.As(resp.err, &se) {
		t.Error("corrupt error decodes as ServerError")
	}
}

func TestCorruptErrorOldClientDegradation(t *testing.T) {
	// An old client has no corruptWirePrefix branch: it sees the prefixed
	// string as a plain ServerError. Emulate by stripping our decoding —
	// the wire bytes must be an ordinary string error, prefix included.
	body, err := encodeResponse(7, fmt.Errorf("%w: step 2", ErrCorrupt), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, resp, err := decodeResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	ce, ok := resp.err.(corruptError)
	if !ok {
		t.Fatalf("decoded error is %T, want corruptError", resp.err)
	}
	// Old-client view: the raw wire string with the reserved prefix.
	old := ServerError(corruptWirePrefix + string(ce))
	if !strings.Contains(old.Error(), "corrupt data") {
		t.Errorf("old-client message %q lost the description", old.Error())
	}
	if errors.Is(old, ErrCorrupt) || errors.Is(old, ErrBusy) {
		t.Error("plain ServerError must not match the sentinels")
	}
}

func TestPlainErrorsNeverGainCorruptIdentity(t *testing.T) {
	// A handler error whose MESSAGE merely mentions corruption must not
	// round-trip into ErrCorrupt; only the sentinel wrapping does.
	body, err := encodeResponse(1, errors.New("data looked corrupt to me"), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, resp, err := decodeResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	if errors.Is(resp.err, ErrCorrupt) {
		t.Fatal("plain error message gained corrupt identity")
	}
	if _, ok := resp.err.(ServerError); !ok {
		t.Fatalf("decoded error is %T, want ServerError", resp.err)
	}
}

func TestCorruptErrorEndToEnd(t *testing.T) {
	// Over a real connection: the handler's wrapped ErrCorrupt arrives as
	// errors.Is-able corruption, and the connection stays usable after —
	// corruption is a data verdict, not a transport failure.
	_, addr := startBoundedServer(t, func(s *Server) {
		s.Register("bad", func(context.Context, []any) (any, error) {
			return nil, fmt.Errorf("%w: object %q failed crc32c", ErrCorrupt, "ts0/brick0001.vnd")
		})
		s.Register("good", func(context.Context, []any) (any, error) { return "ok", nil })
	})
	c, err := Dial("tcp", addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.Call("bad")
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("remote error %v does not match ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), "ts0/brick0001.vnd") {
		t.Errorf("remote error %q lost the object path", err)
	}
	if got, err := c.Call("good"); err != nil || got != "ok" {
		t.Fatalf("call after corrupt rejection = %v, %v; want ok, nil", got, err)
	}
}

// TestMarkerBitFlipsStayRetryable: a wire flip inside a busy or corrupt
// marker must not turn the reply into a ServerError, which ends a call's
// retries. Every single-bit flip of either prefix, and a marker garbled
// past its leading byte as netsim's corrupting links leave it, decodes
// as ErrBusy or ErrCorrupt.
func TestMarkerBitFlipsStayRetryable(t *testing.T) {
	check := func(name string, body []byte) {
		t.Helper()
		_, resp, err := decodeResponse(body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var se ServerError
		if errors.As(resp.err, &se) || !(errors.Is(resp.err, ErrBusy) || errors.Is(resp.err, ErrCorrupt)) {
			t.Errorf("%s: decoded %T %q, want ErrBusy or ErrCorrupt", name, resp.err, resp.err)
		}
	}
	for _, tc := range []struct {
		prefix string
		herr   error
	}{
		{busyWirePrefix, fmt.Errorf("%w: 2 in flight, 2 queued", ErrBusy)},
		{corruptWirePrefix, fmt.Errorf("%w: ts0/brick0001.vnd page 3", ErrCorrupt)},
	} {
		body, err := encodeResponse(11, tc.herr, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		at := bytes.Index(body, []byte(tc.prefix))
		if at < 0 {
			t.Fatalf("%q not on the wire", tc.prefix)
		}
		for i := range len(tc.prefix) {
			for bit := range 8 {
				flipped := bytes.Clone(body)
				flipped[at+i] ^= 1 << bit
				check(fmt.Sprintf("%q byte %d bit %d", tc.prefix, i, bit), flipped)
			}
		}
	}
	body, err := encodeResponse(12, ServerError("\x01b/)#[(*9`z)?(,?(zbusy: 2 in flight, 2 queued"), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	check("garbled busy marker", body)
}
