package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"sync"
	"testing"

	"vizndp/internal/compress"
	"vizndp/internal/grid"
	"vizndp/internal/netsim"
	"vizndp/internal/rpc"
	"vizndp/internal/sim"
	"vizndp/internal/vtkio"
)

// writeLZ4Run writes run/ts0.vnd under a new directory: an n³ grid
// whose one array "d" is a stepped sphere field (distances floored, so
// rows hold long runs), LZ4-coded in 4 KiB chunks with page checksums —
// an array whose stored chunks are far fewer bytes than it holds. With
// codec None it is the same array stored raw.
func writeLZ4Run(t testing.TB, n int, codec compress.Kind) (string, *grid.Dataset) {
	t.Helper()
	g, f := sphereField(n)
	for i, v := range f.Values {
		f.Values[i] = float32(math.Floor(float64(v)))
	}
	ds := grid.NewDataset(g)
	ds.MustAddField(f)
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "run"), 0o755); err != nil {
		t.Fatal(err)
	}
	opts := vtkio.WriteOptions{Codec: codec, ChunkSize: 4 << 10, Checksum: true}
	if err := vtkio.WriteFile(filepath.Join(dir, "run", "ts0.vnd"), ds, opts); err != nil {
		t.Fatal(err)
	}
	return dir, ds
}

// storedInfo is array d's header entry in dir's run/ts0.vnd.
func storedInfo(t testing.TB, dir string) *vtkio.ArrayInfo {
	t.Helper()
	r, closer, err := vtkio.OpenFile(filepath.Join(dir, "run", "ts0.vnd"))
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	return r.Header().Array("d")
}

// unpackChunks is vtkio's parse of a stored reply's chunk table, under
// the name FuzzDecodeReply holds a decoded stored reply's length to.
var unpackChunks = vtkio.UnpackChunks

func replyKeys(t *testing.T, reply any) []string {
	t.Helper()
	m, ok := reply.(map[string]any)
	if !ok {
		t.Fatalf("reply is %T", reply)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestOldClientRawReplyUnchanged: a fetchraw without the third argument
// — every client that predates it — gets the reply it always got, the
// key set {data, readns, crc} and the array's bytes, whether the object
// is stored raw or as LZ4 chunks that a stored reply would forward, and
// from a server with or without caches.
func TestOldClientRawReplyUnchanged(t *testing.T) {
	for _, codec := range []compress.Kind{compress.None, compress.LZ4} {
		dir, ds := writeLZ4Run(t, 24, codec)
		want := vtkio.FloatsToBytes(ds.Field("d").Values)
		for _, opts := range [][]ServerOption{nil, {WithCacheBytes(16 << 20), WithPayloadCacheBytes(16 << 20)}} {
			srv := NewServer(os.DirFS(dir), opts...)
			for i := 0; i < 2; i++ {
				reply, err := srv.serveFetch(context.Background(), []any{"run/ts0.vnd", "d"}, rawSelector)
				if err != nil {
					t.Fatal(err)
				}
				if keys := replyKeys(t, reply); !slices.Equal(keys, []string{"crc", "data", "readns"}) {
					t.Fatalf("%s, %d options: reply keys %v, want [crc data readns]", codec, len(opts), keys)
				}
				m := reply.(map[string]any)
				if data, _ := m["data"].([]byte); !bytes.Equal(data, want) {
					t.Fatalf("%s, %d options: data differs from the stored array", codec, len(opts))
				}
				if m["crc"] != int64(vtkio.Checksum(want)) {
					t.Fatalf("%s, %d options: crc %v, want the data's %d", codec, len(opts), m["crc"], vtkio.Checksum(want))
				}
			}
			srv.Close()
		}
	}
}

// TestRawStoredOverOldServer: a server that predates the stored reply
// ignores the third argument and answers with the decoded array; the
// new client, which always asks, decodes that plain reply.
func TestRawStoredOverOldServer(t *testing.T) {
	want := vtkio.FloatsToBytes([]float32{1, 2, 3, 4.5})
	old := rpc.NewServer()
	var mu sync.Mutex
	var asked []any
	old.Register(MethodFetchRaw, func(_ context.Context, args []any) (any, error) {
		mu.Lock()
		asked = args
		mu.Unlock()
		return map[string]any{"data": want, "readns": int64(7), "crc": int64(vtkio.Checksum(want))}, nil
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go old.Serve(ln)
	defer old.Close()
	client, err := Dial(ln.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	got, read, err := client.FetchRawContext(context.Background(), "run/ts0.vnd", "d")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) || read != 7 {
		t.Fatalf("got %d bytes read in %v, want the plain reply's %d in 7ns", len(got), read, len(want))
	}
	mu.Lock()
	defer mu.Unlock()
	if len(asked) != 3 || asked[2] != storedKey {
		t.Fatalf("client sent %v, want path, array and %q", asked, storedKey)
	}
}

// TestRawStoredKeysThePayloadCache: the stored and the plain reply of one
// array are cached apart, in either order, so neither is ever served for
// the other; both decode to the array's bytes, and the stored one is
// {stored, chunks, readns, crc} and smaller. An unknown third argument
// is refused.
func TestRawStoredKeysThePayloadCache(t *testing.T) {
	dir, ds := writeLZ4Run(t, 24, compress.LZ4)
	want := vtkio.FloatsToBytes(ds.Field("d").Values)
	srv := NewServer(os.DirFS(dir), WithPayloadCacheBytes(16<<20))
	defer srv.Close()
	fetch := func(extra ...any) map[string]any {
		t.Helper()
		reply, err := srv.serveFetch(context.Background(), append([]any{"run/ts0.vnd", "d"}, extra...), rawSelector)
		if err != nil {
			t.Fatal(err)
		}
		return reply.(map[string]any)
	}
	for round := 0; round < 2; round++ {
		var stored, plain map[string]any
		if round == 0 {
			stored, plain = fetch(storedKey), fetch()
		} else {
			plain, stored = fetch(), fetch(storedKey)
		}
		if keys := replyKeys(t, stored); !slices.Equal(keys, []string{"chunks", "crc", "readns", "stored"}) {
			t.Fatalf("round %d: stored reply keys %v", round, keys)
		}
		if keys := replyKeys(t, plain); !slices.Equal(keys, []string{"crc", "data", "readns"}) {
			t.Fatalf("round %d: plain reply keys %v", round, keys)
		}
		for name, reply := range map[string]map[string]any{"stored": stored, "plain": plain} {
			got, _, err := decodeRaw(reply, 0)
			if err != nil {
				t.Fatalf("round %d: %s reply: %v", round, name, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("round %d: %s reply decodes to bytes that differ from the array's", round, name)
			}
		}
		// The crc is CRC32C over the extent and then the chunk table.
		ext, table := stored[storedKey].([]byte), stored[chunksKey].([]byte)
		if stored["crc"] != int64(vtkio.Checksum(append(append([]byte{}, ext...), table...))) {
			t.Fatalf("round %d: stored reply's crc %v is not over its extent and chunk table", round, stored["crc"])
		}
		if n := len(ext); int64(n) != storedInfo(t, dir).CompressedSize() || n >= len(want) {
			t.Fatalf("round %d: stored reply carries %d bytes for %d stored, %d raw", round, n, storedInfo(t, dir).CompressedSize(), len(want))
		}
	}
	if srv.payloads.Len() != 2 {
		t.Errorf("%d cached payloads, want one per reply form", srv.payloads.Len())
	}
	if _, err := srv.serveFetch(context.Background(), []any{"run/ts0.vnd", "d", "packed"}, rawSelector); err == nil {
		t.Error("unknown raw form accepted")
	}
}

// TestStoredReplyOnlyWhereItShrinks: the stored reply goes out only for
// an LZ4 array with page checksums that stores fewer bytes than it
// holds. A raw or GZip object, an unchecksummed file and an array LZ4
// does not shrink all get the plain reply, and every reply decodes to
// the array's bytes.
func TestStoredReplyOnlyWhereItShrinks(t *testing.T) {
	g := grid.NewUniform(16, 16, 16)
	noise := grid.NewField("d", g.NumPoints())
	x := uint32(12345)
	for i := range noise.Values {
		x = x*1664525 + 1013904223
		noise.Values[i] = math.Float32frombits(x>>2 | 0x3f000000)
	}
	_, sphere := sphereField(16)
	for i, v := range sphere.Values {
		sphere.Values[i] = float32(math.Floor(float64(v)))
	}
	for _, tc := range []struct {
		name   string
		field  *grid.Field
		opts   vtkio.WriteOptions
		stored bool
	}{
		{"lz4 checksummed", sphere, vtkio.WriteOptions{Codec: compress.LZ4, Checksum: true}, true},
		{"raw", sphere, vtkio.WriteOptions{Codec: compress.None, Checksum: true}, false},
		{"gzip", sphere, vtkio.WriteOptions{Codec: compress.Gzip, Checksum: true}, false},
		{"lz4 unchecksummed", sphere, vtkio.WriteOptions{Codec: compress.LZ4}, false},
		{"lz4 incompressible", noise, vtkio.WriteOptions{Codec: compress.LZ4, Checksum: true}, false},
	} {
		ds := grid.NewDataset(g)
		ds.MustAddField(tc.field)
		dir := t.TempDir()
		if err := vtkio.WriteFile(filepath.Join(dir, "ts0.vnd"), ds, tc.opts); err != nil {
			t.Fatal(err)
		}
		srv := NewServer(os.DirFS(dir))
		reply, err := srv.serveFetch(context.Background(), []any{"ts0.vnd", "d", storedKey}, rawSelector)
		srv.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, stored := reply.(map[string]any)[storedKey]; stored != tc.stored {
			t.Errorf("%s: stored reply = %v, want %v", tc.name, stored, tc.stored)
		}
		got, _, err := decodeRaw(reply, 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(got, vtkio.FloatsToBytes(tc.field.Values)) {
			t.Errorf("%s: reply decodes to bytes that differ from the array's", tc.name)
		}
	}
}

// TestStoredReplyDamageIsErrCorrupt: a stored reply damaged in flight —
// a flipped bit in the extent or the chunk table, a table gone — fails
// its wire CRC, and one whose CRC was recomputed over the damage fails
// the table's checks or the decode; every one is rpc.ErrCorrupt, so a
// retrying client re-reads it, as it does a damaged plain reply.
func TestStoredReplyDamageIsErrCorrupt(t *testing.T) {
	dir, _ := writeLZ4Run(t, 24, compress.LZ4)
	srv := NewServer(os.DirFS(dir))
	defer srv.Close()
	reply, err := srv.serveFetch(context.Background(), []any{"run/ts0.vnd", "d", storedKey}, rawSelector)
	if err != nil {
		t.Fatal(err)
	}
	clean := reply.(map[string]any)
	// damage copies the reply, lets f change the copy's bins, and with
	// recrc set stamps the crc of what f left.
	damage := func(recrc bool, f func(ext, table []byte) []byte) map[string]any {
		m := map[string]any{}
		for k, v := range clean {
			m[k] = v
		}
		ext := append([]byte{}, clean[storedKey].([]byte)...)
		table := f(ext, append([]byte{}, clean[chunksKey].([]byte)...))
		m[storedKey], m[chunksKey] = ext, table
		if recrc {
			m["crc"] = int64(replyCRC(ext, table))
		}
		return m
	}
	for name, m := range map[string]map[string]any{
		"extent bit":       damage(false, func(ext, table []byte) []byte { ext[len(ext)/2] ^= 4; return table }),
		"table bit":        damage(false, func(ext, table []byte) []byte { table[0] ^= 1; return table }),
		"table short":      damage(true, func(ext, table []byte) []byte { return table[:len(table)-2] }),
		"chunk undecoded":  damage(true, func(ext, table []byte) []byte { clear(ext[:3]); return table }),
		"raw size 255x up": damage(true, func(ext, table []byte) []byte { return append(table[:len(table)-1], 0xff, 0xff, 0x7f) }),
	} {
		if _, _, err := decodeRaw(m, 0); !errors.Is(err, rpc.ErrCorrupt) {
			t.Errorf("%s: err = %v, want rpc.ErrCorrupt", name, err)
		}
	}
	delete(clean, chunksKey)
	if _, _, err := decodeRaw(clean, 0); !errors.Is(err, rpc.ErrCorrupt) {
		t.Errorf("no chunk table: err = %v, want rpc.ErrCorrupt", err)
	}
}

// TestStoredChunkSizeLieIsCorrupt: the header that frames the chunks
// carries no checksum. Two digit flips in an LZ4 array's chunk sizes
// that keep their sum leave every page verifying, yet shift the chunks
// onto bytes that do not decode at the sizes claimed. The server must
// refuse to forward them — a vtkio.ErrCorrupt, sent as rpc.ErrCorrupt —
// and drop the header, so the next fetch reads it again, as a failed
// decode of the plain reply does.
func TestStoredChunkSizeLieIsCorrupt(t *testing.T) {
	dir, _ := writeLZ4Run(t, 24, compress.LZ4)
	path := filepath.Join(dir, "run", "ts0.vnd")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	head := data[:8+int(data[4])<<24|int(data[5])<<16|int(data[6])<<8|int(data[7])]
	comps := regexp.MustCompile(`"comp":(\d+)`).FindAllSubmatchIndex(head, -1)
	// The last digit of one size goes up by one and of a later one down.
	up, down := -1, -1
	for i, m := range comps {
		last := head[m[3]-1]
		if up < 0 && last < '9' {
			up = i
		} else if up >= 0 && last > '0' {
			down = i
			break
		}
	}
	if up < 0 || down < 0 {
		t.Fatalf("no pair of chunk sizes to flip among %d", len(comps))
	}
	head[comps[up][3]-1]++
	head[comps[down][3]-1]--
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, closer, err := vtkio.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	if err := r.VerifyChecksums(); err != nil {
		t.Fatalf("the lie fails a page: %v", err)
	}
	lied, _ := strconv.Atoi(string(head[comps[up][2]:comps[up][3]]))
	if r.Header().Array("d").Chunks[up].Comp != lied {
		t.Fatal("the header does not carry the flipped size")
	}

	srv := NewServer(os.DirFS(dir))
	defer srv.Close()
	args := []any{"run/ts0.vnd", "d", storedKey}
	for i := 0; i < 2; i++ {
		misses := metaMetrics.Misses.Value()
		_, err := srv.serveFetch(context.Background(), args, rawSelector)
		if !errors.Is(err, vtkio.ErrCorrupt) || !errors.Is(err, rpc.ErrCorrupt) {
			t.Fatalf("fetch %d through the lying header: err = %v, want vtkio.ErrCorrupt as rpc.ErrCorrupt", i, err)
		}
		if got := metaMetrics.Misses.Value() - misses; got != 1 {
			t.Fatalf("fetch %d read the header %d times, want 1: the failed fetch kept it", i, got)
		}
	}
	client := serveFS(t, os.DirFS(dir))
	if _, _, err := client.FetchRawContext(context.Background(), "run/ts0.vnd", "d"); !errors.Is(err, rpc.ErrCorrupt) {
		t.Fatalf("client raw fetch through the lying header: err = %v, want rpc.ErrCorrupt", err)
	}
}

// TestDegradedFetchMovesStoredBytes: a degraded fetch of a compressible
// LZ4 array moves its stored chunks, not the decoded array: what crosses
// the link from the server is at most the stored size plus 4 KiB of
// framing and describe reply, and the payload the client builds from
// them is the storage-side pre-filter's, byte for byte.
func TestDegradedFetchMovesStoredBytes(t *testing.T) {
	dir, ds := writeLZ4Run(t, 32, compress.LZ4)
	stored := storedInfo(t, dir).CompressedSize()
	if raw := int64(4 * ds.Grid.NumPoints()); 2*stored > raw {
		t.Fatalf("array stores %d bytes of %d: not compressible enough to tell", stored, raw)
	}
	srv := NewServer(os.DirFS(dir))
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	link := netsim.NewLink(1e9, 0)
	go srv.Serve(link.Listener(ln))
	client, err := Dial(ln.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	isos := []float64{7.5}
	want, _, err := client.FetchFilteredContext(context.Background(), "run/ts0.vnd", "d", isos, EncAuto)
	if err != nil {
		t.Fatal(err)
	}

	broken := &Client{
		rpc:      &flakyCaller{inner: client.rpc, fail: map[string]error{MethodFetch: errors.New("injected transport failure")}},
		fallback: true,
	}
	link.ResetCounters()
	got, st, err := broken.FetchFilteredContext(context.Background(), "run/ts0.vnd", "d", isos, EncAuto)
	if err != nil {
		t.Fatal(err)
	}
	moved := link.BytesSent()
	if !st.Degraded {
		t.Error("fetch not marked degraded")
	}
	if !bytes.Equal(got.Data, want.Data) {
		t.Fatal("degraded payload differs from the storage-side pre-filter's")
	}
	if moved > stored+4<<10 {
		t.Errorf("degraded fetch moved %d link bytes for %d stored (%d raw)", moved, stored, 4*ds.Grid.NumPoints())
	}
	if st.PayloadBytes < stored || st.PayloadBytes > moved {
		t.Errorf("degraded PayloadBytes %d, want the stored reply's bytes (%d stored, %d moved)", st.PayloadBytes, stored, moved)
	}
}

// BenchmarkFetchRaw128 is one raw fetch of the benchmark's wide raw
// array — seed 1 asteroid, last step, v02, 128³, LZ4-coded with page
// checksums as the benchmark stores it — from a caching server over a
// 1 Gb/s, 100 µs link, the client's decode included.
func BenchmarkFetchRaw128(b *testing.B) {
	cfg := sim.AsteroidConfig{N: 128, Seed: 1}
	steps := cfg.Timesteps(3)
	full, err := cfg.Generate(steps[len(steps)-1])
	if err != nil {
		b.Fatal(err)
	}
	ds := grid.NewDataset(full.Grid)
	ds.MustAddField(full.Field("v02"))
	dir := b.TempDir()
	if err := vtkio.WriteFile(filepath.Join(dir, "ts.vnd"), ds, vtkio.WriteOptions{Codec: compress.LZ4, Checksum: true}); err != nil {
		b.Fatal(err)
	}
	srv := NewServer(os.DirFS(dir), WithCacheBytes(64<<20))
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(netsim.NewLink(1e9, 100e3).Listener(ln))
	client, err := Dial(ln.Addr().String(), nil)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	want := vtkio.FloatsToBytes(ds.Field("v02").Values)
	if got, _, err := client.FetchRawContext(context.Background(), "ts.vnd", "v02"); err != nil || !bytes.Equal(got, want) {
		b.Fatalf("first fetch: err = %v, equal = %v", err, bytes.Equal(got, want))
	}
	b.SetBytes(int64(len(want)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := client.FetchRawContext(context.Background(), "ts.vnd", "v02"); err != nil {
			b.Fatal(err)
		}
	}
}
