package objstore

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"

	"vizndp/internal/netsim"
	"vizndp/internal/telemetry"
)

// readerFromRecorder is a response writer with its own ReadFrom, as
// net/http's is; it notes whether a body went through it.
type readerFromRecorder struct {
	*httptest.ResponseRecorder
	readFrom bool
}

func (r *readerFromRecorder) ReadFrom(src io.Reader) (int64, error) {
	r.readFrom = true
	return io.Copy(struct{ io.Writer }{r.ResponseRecorder}, src)
}

// TestGetBodyTakesReaderFrom: a GET body reaches the wrapped writer's
// ReadFrom — net/http's, which sends a file with sendfile — through the
// accounting wrapper, whole and ranged.
func TestGetBodyTakesReaderFrom(t *testing.T) {
	s, err := NewServer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 100_000)
	rand.New(rand.NewSource(1)).Read(data)
	put := httptest.NewRequest(http.MethodPut, "/b/k", bytes.NewReader(data))
	s.ServeHTTP(httptest.NewRecorder(), put)
	for _, rng := range []string{"", "bytes=1000-50999"} {
		req := httptest.NewRequest(http.MethodGet, "/b/k", nil)
		want := data
		if rng != "" {
			req.Header.Set("Range", rng)
			want = data[1000:51000]
		}
		rec := &readerFromRecorder{ResponseRecorder: httptest.NewRecorder()}
		s.ServeHTTP(rec, req)
		if !rec.readFrom {
			t.Errorf("range %q: the body bypassed the writer's ReadFrom", rng)
		}
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("range %q: body of %d bytes, want %d", rng, rec.Body.Len(), len(want))
		}
	}
}

// TestGetBytesOutAccounting: the bytes-out counter and the request's wide
// event both count exactly the body, for a whole and a ranged GET over a
// real connection, where the body goes out through ReadFrom.
func TestGetBytesOutAccounting(t *testing.T) {
	s, err := NewServer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{}, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.ServeHTTP(w, r) // accounts before it returns
		served <- struct{}{}
	}))
	t.Cleanup(ts.Close)
	c := NewClient(ts.Listener.Addr().String(), nil)
	data := make([]byte, 300_000)
	rand.New(rand.NewSource(2)).Read(data)
	if err := c.Put("b", "acct", data); err != nil {
		t.Fatal(err)
	}
	<-served

	flight := telemetry.DefaultFlightRecorder()
	for _, tc := range []struct {
		name   string
		get    func() ([]byte, error)
		length int
	}{
		{"whole", func() ([]byte, error) { return c.Get("b", "acct") }, len(data)},
		{"ranged", func() ([]byte, error) { return c.GetRange("b", "acct", 70_000, 123_457) }, 123_457},
	} {
		out0, seq0 := mReqBytesOut.Value(), flight.Seq()
		body, err := tc.get()
		if err != nil {
			t.Fatal(err)
		}
		<-served
		if len(body) != tc.length {
			t.Fatalf("%s: %d body bytes, want %d", tc.name, len(body), tc.length)
		}
		if got := mReqBytesOut.Value() - out0; got != int64(tc.length) {
			t.Errorf("%s: objstore.bytes.out moved %d, body is %d", tc.name, got, tc.length)
		}
		var events []telemetry.WideEvent
		for _, ev := range flight.Events(telemetry.EventFilter{Method: "s3.get", SinceSeq: seq0}) {
			if ev.Attrs["path"] == "/b/acct" {
				events = append(events, ev)
			}
		}
		if len(events) != 1 || events[0].BytesOut != int64(tc.length) {
			t.Errorf("%s: wide events %s, want one with bytesOut %d", tc.name, bytesOut(events), tc.length)
		}
	}
}

func bytesOut(evs []telemetry.WideEvent) string {
	var out []int64
	for _, ev := range evs {
		out = append(out, ev.BytesOut)
	}
	return fmt.Sprint(out)
}

// TestShapedGetCrossesLink: behind a netsim-shaped listener the body of a
// GET still crosses the link, because a shaped connection has no ReadFrom
// of its own for net/http to hand the file to.
func TestShapedGetCrossesLink(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	link := netsim.NewLink(0, 0)
	if _, ok := link.Conn(a).(io.ReaderFrom); ok {
		t.Fatal("a shaped connection has a ReadFrom: sendfile would skip the link")
	}

	s, err := NewServer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	addr, shutdown, err := s.ListenAndServe("127.0.0.1:0", link.Listener)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	c := NewClient(addr, nil)
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(3)).Read(data)
	if err := c.Put("b", "shaped", data); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int64{int64(len(data)), 200_000} {
		sent0 := link.BytesSent()
		body, err := c.GetRange("b", "shaped", 0, n)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, data[:n]) {
			t.Fatalf("GET of %d bytes returned different bytes", n)
		}
		if got := link.BytesSent() - sent0; got < n {
			t.Errorf("GET of %d bytes moved %d over the link", n, got)
		}
	}
}
