// Package harness reproduces the paper's experimental setup and drives
// every figure and table in its evaluation.
//
// The testbed (Fig. 11) is emulated on one machine:
//
//   - a "storage node" runs the object store (internal/objstore, the
//     MinIO stand-in) backed by a directory (the local SSD);
//   - in the baseline setup the client node mounts the store over the
//     shaped inter-node link (internal/netsim) via the s3fs layer and
//     reads whole arrays;
//   - in the NDP setup an NDP server (internal/core) runs on the storage
//     node with an unshaped, node-local s3fs mount of the same object
//     store, and the client fetches pre-filtered payloads over the
//     shaped link via RPC.
//
// Both setups therefore use the same storage I/O stack (s3fs + object
// store + local disk); the only difference is what crosses the shaped
// link — exactly the fairness argument of Sec. VI.
package harness

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"time"

	"vizndp/internal/compress"
	"vizndp/internal/core"
	"vizndp/internal/grid"
	"vizndp/internal/netsim"
	"vizndp/internal/objstore"
	"vizndp/internal/s3fs"
	"vizndp/internal/sim"
	"vizndp/internal/vtkio"
)

// Bucket is the object-store bucket holding all datasets.
const Bucket = "sim"

// Config parameterizes an experiment environment. The defaults reproduce
// the paper's setup scaled to benchmark-friendly grid sizes.
type Config struct {
	// AsteroidN and NyxN are grid edge lengths (paper: 500 and 512).
	AsteroidN, NyxN int
	// NumTimesteps is how many asteroid timesteps to generate (paper: 9).
	NumTimesteps int
	// ContourValues are the isovalues swept (paper: 0.1..0.9).
	ContourValues []float64
	// LinkBits is the inter-node bandwidth in bits/sec (paper: 1 GbE).
	LinkBits float64
	// LinkLatency is the link's one-way latency.
	LinkLatency time.Duration
	// Repeats is how many times each measurement runs (paper: 5).
	Repeats int
	// DataDir backs the object store; a caller-managed scratch dir.
	DataDir string
	// CacheBytes is the decoded-array cache budget of the servers that
	// cache: the RepeatFetch experiment's dedicated one and the chaos
	// replicas. The environment's shared NDP server never caches, so
	// every other experiment keeps measuring cold reads.
	CacheBytes int64
	// Seed varies the synthetic datasets.
	Seed uint32
}

// DefaultConfig returns the full-scale harness configuration used by
// cmd/benchviz.
func DefaultConfig(dataDir string) Config {
	return Config{
		AsteroidN:     128,
		NyxN:          128,
		NumTimesteps:  9,
		ContourValues: []float64{0.1, 0.3, 0.5, 0.7, 0.9},
		LinkBits:      1 * netsim.Gbps,
		LinkLatency:   100 * time.Microsecond,
		Repeats:       3,
		DataDir:       dataDir,
		CacheBytes:    256 << 20,
		Seed:          7,
	}
}

// QuickConfig returns a scaled-down configuration for unit tests and
// `go test -bench`: smaller grids, fewer steps, a faster link.
func QuickConfig(dataDir string) Config {
	return Config{
		AsteroidN:     40,
		NyxN:          40,
		NumTimesteps:  3,
		ContourValues: []float64{0.1, 0.5, 0.9},
		LinkBits:      4 * netsim.Gbps,
		LinkLatency:   50 * time.Microsecond,
		Repeats:       1,
		DataDir:       dataDir,
		CacheBytes:    64 << 20,
		Seed:          7,
	}
}

// Codecs are evaluated in the paper's order.
var Codecs = []compress.Kind{compress.None, compress.Gzip, compress.LZ4}

// Env is a running experiment environment.
type Env struct {
	Cfg Config

	// Link is the shaped inter-node link; its counters report network
	// traffic volumes.
	Link *netsim.Link

	store       *objstore.Server
	storeClose  func() error
	storeAddr   string
	local       *objstore.Client // storage-node-local (unshaped)
	remote      *objstore.Client // client-node view (shaped)
	base        *kit             // owns the shared NDP server and client
	ndpClient   *core.Client
	steps       []int
	nyxDS       *grid.Dataset // kept for in-memory analyses (Fig. 12)
	asteroidSet map[int]*grid.Dataset
}

// ObjectKey names the stored object for a dataset/codec/timestep.
func ObjectKey(dataset string, codec compress.Kind, step int) string {
	return fmt.Sprintf("%s/%s/ts%05d.vnd", dataset, codec, step)
}

// NewEnv builds the full environment: generates both datasets, populates
// the object store in all three codecs, and starts the baseline and NDP
// data paths.
func NewEnv(cfg Config) (_ *Env, err error) {
	if cfg.Repeats < 1 {
		cfg.Repeats = 1
	}
	e := &Env{
		Cfg:         cfg,
		Link:        netsim.NewLink(cfg.LinkBits, cfg.LinkLatency),
		asteroidSet: make(map[int]*grid.Dataset),
	}
	e.base = e.newKit()
	defer func() {
		if err != nil {
			e.Close()
		}
	}()
	store, err := objstore.NewServer(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	// The object store accepts both unshaped (node-local) and shaped
	// (cross-node) connections on the same listener: shaping lives in the
	// client dialer plus a server-side wrap keyed by connection. To keep
	// each path honest, run two listeners over the same backing dir: a
	// loopback one for the storage node and a shaped one for the client.
	addrLocal, stopLocal, err := store.ListenAndServe("127.0.0.1:0", nil)
	if err != nil {
		return nil, err
	}
	e.base.onClose(func() { stopLocal() })
	addrRemote, stopRemote, err := store.ListenAndServe("127.0.0.1:0", e.Link.Listener)
	if err != nil {
		return nil, err
	}
	e.base.onClose(func() { stopRemote() })
	e.local = objstore.NewClient(addrLocal, nil)
	e.remote = objstore.NewClient(addrRemote, e.Link.Dial)

	if err := e.populate(); err != nil {
		return nil, err
	}

	// NDP server on the storage node, reading through a node-local s3fs
	// mount of the object store, and its client across the shaped link.
	ndp, err := e.base.startNode(nil, e.Link)
	if err != nil {
		return nil, err
	}
	if e.ndpClient, err = ndp.dial(); err != nil {
		return nil, err
	}

	// Warm both data paths (TCP + HTTP connection setup, code paths) so
	// the first measurement is not a cold-start outlier.
	step := e.steps[0]
	if _, err := e.BaselineLoad("asteroid", compress.None, step, "v03"); err != nil {
		return nil, err
	}
	if _, err := e.NDPLoad("asteroid", compress.None, step, "v03", cfg.ContourValues[:1]); err != nil {
		return nil, err
	}
	return e, nil
}

// populate generates the datasets and uploads every codec variant.
func (e *Env) populate() error {
	acfg := sim.AsteroidConfig{N: e.Cfg.AsteroidN, Seed: e.Cfg.Seed}
	e.steps = acfg.Timesteps(e.Cfg.NumTimesteps)
	for _, step := range e.steps {
		ds, err := acfg.Generate(step)
		if err != nil {
			return err
		}
		e.asteroidSet[step] = ds
		if err := e.putAllCodecs("asteroid", step, ds); err != nil {
			return err
		}
	}
	ncfg := sim.NyxConfig{N: e.Cfg.NyxN, Seed: e.Cfg.Seed + 6}
	nyx, err := ncfg.Generate()
	if err != nil {
		return err
	}
	e.nyxDS = nyx
	return e.putAllCodecs("nyx", 0, nyx)
}

func (e *Env) putAllCodecs(dataset string, step int, ds *grid.Dataset) error {
	for _, codec := range Codecs {
		// Checksums on every stored object: they are what catches the chaos
		// experiment's injected storage corruption, and they give every
		// other experiment end-to-end verified reads at the cost the
		// paper's pipelines would really pay.
		opts := vtkio.WriteOptions{Codec: codec, Checksum: true}
		if err := e.putDataset(ObjectKey(dataset, codec, step), ds, opts); err != nil {
			return err
		}
	}
	return nil
}

// putDataset encodes ds and stores it under key through the storage
// node's local client.
func (e *Env) putDataset(key string, ds *grid.Dataset, opts vtkio.WriteOptions) error {
	var buf bytes.Buffer
	if err := vtkio.Write(&buf, ds, opts); err != nil {
		return err
	}
	if err := e.local.Put(Bucket, key, buf.Bytes()); err != nil {
		return fmt.Errorf("harness: storing %s: %w", key, err)
	}
	return nil
}

// Close tears the environment down.
func (e *Env) Close() { e.base.close() }

// Steps returns the asteroid timesteps in the store.
func (e *Env) Steps() []int {
	out := make([]int, len(e.steps))
	copy(out, e.steps)
	return out
}

// Measurement is one data-load observation.
type Measurement struct {
	// LoadTime is the measured data load time (the paper's metric).
	LoadTime time.Duration
	// NetworkBytes is what crossed the shaped link.
	NetworkBytes int64
}

// BaselineLoad measures the baseline pipeline's data load: the client
// opens the timestep object through shaped s3fs and reads one array in
// full (decompressing as needed). Averaged over Config.Repeats runs.
func (e *Env) BaselineLoad(dataset string, codec compress.Kind, step int, array string) (Measurement, error) {
	return e.baselineLoadKey(ObjectKey(dataset, codec, step), array)
}

// openReader opens one stored object through store's s3fs mount. The
// caller closes the file.
func openReader(store *objstore.Client, key string) (*vtkio.Reader, fs.File, error) {
	f, err := s3fs.New(store, Bucket).Open(key)
	if err != nil {
		return nil, nil, err
	}
	reader, err := vtkio.OpenReader(f.(*s3fs.File))
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return reader, f, nil
}

// loadArray is the baseline pipeline's whole data load: open the object,
// read one array in full (decompressing as needed), close.
func loadArray(store *objstore.Client, key, array string) (*grid.Field, error) {
	reader, f, err := openReader(store, key)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return reader.ReadArray(array)
}

// measure times load Config.Repeats times and averages, reporting what
// the last run moved across the shaped link. verify, if not nil, checks
// the first run's result outside the timed region.
func (e *Env) measure(load, verify func() error) (Measurement, error) {
	var total time.Duration
	var bytesMoved int64
	for r := 0; r < e.Cfg.Repeats; r++ {
		e.Link.ResetCounters()
		start := time.Now()
		if err := load(); err != nil {
			return Measurement{}, err
		}
		total += time.Since(start)
		bytesMoved = e.Link.BytesSent()
		if r == 0 && verify != nil {
			if err := verify(); err != nil {
				return Measurement{}, err
			}
		}
	}
	return Measurement{
		LoadTime:     total / time.Duration(e.Cfg.Repeats),
		NetworkBytes: bytesMoved,
	}, nil
}

func (e *Env) baselineLoadKey(key, array string) (Measurement, error) {
	return e.measure(func() error {
		_, err := loadArray(e.remote, key, array)
		return err
	}, nil)
}

// NDPLoad measures the NDP pipeline's data load: the remote pre-filter
// reads, decompresses, and filters the array, then ships the payload.
// The load ends with the payload in client memory; an untimed check
// holds it to the local pre-filter's. Averaged over repeats.
func (e *Env) NDPLoad(dataset string, codec compress.Kind, step int, array string, isovalues []float64) (Measurement, error) {
	return e.ndpLoadKey(ObjectKey(dataset, codec, step), array, isovalues)
}

func (e *Env) ndpLoadKey(key, array string, isovalues []float64) (Measurement, error) {
	var payload *core.Payload
	// The paper's NDP load time "includes the time taken to read,
	// decompress, and filter the data, as well as the time required to
	// send the filtered data to the client" — it ends when the payload is
	// in client memory. Expanding it back to a full array belongs to the
	// post-filter, which, like contour generation, is excluded from load
	// time, so the payload is checked once, outside the timed region.
	return e.measure(func() (err error) {
		payload, _, err = e.ndpClient.FetchFilteredContext(context.Background(), key, array, isovalues, core.EncAuto)
		return err
	}, func() error {
		return e.checkPayload(key, array, isovalues, payload)
	})
}

// checkPayload holds an NDP payload to the degraded path's twin: the
// array as the baseline reads it, pre-filtered on the client. The bytes
// must be equal, lossy arrays included.
func (e *Env) checkPayload(key, array string, isovalues []float64, got *core.Payload) error {
	reader, f, err := openReader(e.local, key)
	if err != nil {
		return err
	}
	defer f.Close()
	field, err := reader.ReadArray(array)
	if err != nil {
		return err
	}
	want, _, err := (&core.PreFilter{Isovalues: isovalues, Encoding: core.EncAuto}).Run(reader.Grid(), field)
	if err != nil {
		return err
	}
	if !bytes.Equal(got.Data, want.Data) {
		return fmt.Errorf("harness: NDP payload of %s %s at %v is not the local pre-filter's (%d bytes, want %d)",
			key, array, isovalues, len(got.Data), len(want.Data))
	}
	return nil
}

// LocalLoad measures reading one array from the node-local store without
// the shaped link — the paper's Fig. 5c/5f local-filesystem runs, which
// isolate decompression overhead from transfer cost.
func (e *Env) LocalLoad(dataset string, codec compress.Kind, step int, array string) (Measurement, error) {
	return e.measure(func() error {
		_, err := loadArray(e.local, ObjectKey(dataset, codec, step), array)
		return err
	}, nil)
}

// StoredSize returns the stored (compressed) size of one array.
func (e *Env) StoredSize(dataset string, codec compress.Kind, step int, array string) (int64, error) {
	reader, f, err := openReader(e.local, ObjectKey(dataset, codec, step))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	info := reader.Header().Array(array)
	if info == nil {
		return 0, fmt.Errorf("harness: no array %q in %s", array, dataset)
	}
	return info.CompressedSize(), nil
}
