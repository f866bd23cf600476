package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"vizndp/internal/core"
	"vizndp/internal/grid"
	"vizndp/internal/harness"
	"vizndp/internal/netsim"
	"vizndp/internal/objstore"
	"vizndp/internal/render"
	"vizndp/internal/s3fs"
	"vizndp/internal/sim"
	"vizndp/internal/vtkio"
)

// All data sets live in the harness's bucket, under the harness's keys.
const bucket = harness.Bucket

// The paper's testbed link: 1 GbE with a LAN latency.
const (
	linkBits    = 1 * netsim.Gbps
	linkLatency = 100 * time.Microsecond
)

type dsKey struct {
	dataset string
	step    int
}

// buildTimes splits one build of the data set by layer, so that work a
// later change moves into set-up shows where it landed.
type buildTimes struct {
	generate, write, put time.Duration
}

func (b buildTimes) total() time.Duration { return b.generate + b.write + b.put }

// testbed hosts the whole experiment in one process, exactly as
// internal/harness.NewEnv does: the object store on loopback, a
// storage-node-local s3fs mount under the NDP server, and everything the
// client does crossing one shaped link.
type testbed struct {
	w     *workload
	link  *netsim.Link
	frame render.Options // a frame's size

	storeDir string
	local    *objstore.Client // storage-node view, unshaped
	remote   *objstore.Client // client-node view, over the link
	srv      *core.Server
	clients  []*core.Client
	closers  []func()

	steps []int
	// data is the generated truth. It stays resident for the whole run, as
	// it does in internal/harness, and so sets the collector's pace: with
	// some 280 MB live a collection runs every few ops. Released after
	// verification, the heap shrinks to a few MB, every 8 MiB array read
	// triggers a collection, and cold's NDP load goes from 26 to 42 ms and
	// twice as noisy. runtime.gc_cycles_per_op reports the pace.
	data  map[dsKey]*grid.Dataset
	grids map[string]*grid.Uniform

	builds []buildTimes // every build made, in order
	build  buildTimes   // the median build, which setup_s reports
}

// storePrefix names the object store's directory; staleStore is the age
// past which one left behind by a killed run is removed.
const (
	storePrefix = "vizndp-bench-store-"
	staleStore  = 15 * time.Minute
)

// makeStoreDir creates the object store's backing directory. /dev/shm is
// preferred when it is there: a disk-backed store has the kernel write
// some 550 MB of dirty pages back in the middle of the timed window, which
// showed as set-up and op-time noise. parent (the working directory) is
// the fallback. Directories a killed run left in /dev/shm are swept first,
// so that they cannot pile up in memory.
func makeStoreDir(parent string) (string, error) {
	const shm = "/dev/shm"
	if old, err := filepath.Glob(filepath.Join(shm, storePrefix+"*")); err == nil {
		for _, dir := range old {
			if fi, err := os.Stat(dir); err == nil && time.Since(fi.ModTime()) > staleStore {
				os.RemoveAll(dir)
			}
		}
	}
	if dir, err := os.MkdirTemp(shm, storePrefix); err == nil {
		return dir, nil
	}
	return os.MkdirTemp(parent, "."+storePrefix)
}

// newTestbed builds the data set p.setups times (keeping the last), then
// starts the servers and dials p.conns clients. storeDir is an empty
// directory for the object store; the caller removes it.
func newTestbed(w *workload, p plan, seed uint64, storeDir string) (*testbed, error) {
	tb := &testbed{
		w:     w,
		link:  netsim.NewLink(linkBits, linkLatency),
		frame: render.Options{Width: p.pixels, Height: p.pixels},
		grids: make(map[string]*grid.Uniform),
	}
	ok := false
	defer func() {
		if !ok {
			tb.close()
		}
	}()

	tb.storeDir = storeDir
	store, err := objstore.NewServer(storeDir)
	if err != nil {
		return nil, err
	}
	// Two listeners over one backing directory, as in the harness: a plain
	// one for the storage node, a shaped one for the client node.
	addrLocal, closeLocal, err := store.ListenAndServe("127.0.0.1:0", nil)
	if err != nil {
		return nil, err
	}
	tb.closers = append(tb.closers, func() { closeLocal() })
	addrRemote, closeRemote, err := store.ListenAndServe("127.0.0.1:0", tb.link.Listener)
	if err != nil {
		return nil, err
	}
	tb.closers = append(tb.closers, func() { closeRemote() })
	tb.local = objstore.NewClient(addrLocal, nil)
	tb.remote = objstore.NewClient(addrRemote, tb.link.Dial)

	// One pre-sized buffer reused for every object: encoding each 92 MB
	// object into a fresh growing buffer made set-up swing 3.7-6.7 s.
	var buf bytes.Buffer
	buf.Grow(12*4*p.n*p.n*p.n + 1<<20)
	for i := 0; i < p.setups; i++ {
		// One data set resident at a time, in memory and in the store. A
		// disk-backed store must not see an object replaced: ext4 answers
		// a rename over a file by writing the new one back at once, some
		// 550 MB in the middle of the timed window.
		for key := range tb.data {
			for _, codec := range w.codecs {
				if err := tb.local.Delete(bucket, harness.ObjectKey(key.dataset, codec, key.step)); err != nil {
					return nil, err
				}
			}
		}
		tb.data = nil
		bt, err := tb.buildData(&buf, seed, p.n)
		if err != nil {
			return nil, err
		}
		tb.builds = append(tb.builds, bt)
	}
	sorted := append([]buildTimes(nil), tb.builds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].total() < sorted[j].total() })
	tb.build = sorted[len(sorted)/2]

	tb.srv = core.NewServer(s3fs.New(tb.local, bucket), w.serverOpts()...)
	tb.closers = append(tb.closers, tb.srv.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	// Serve returns once tb.srv.Close runs; it owns the listener.
	go tb.srv.Serve(tb.link.Listener(ln))
	for i := 0; i < p.conns; i++ {
		c, err := core.Dial(ln.Addr().String(), tb.link.Dial)
		if err != nil {
			return nil, err
		}
		tb.clients = append(tb.clients, c)
		tb.closers = append(tb.closers, func() { c.Close() })
	}
	for key := range tb.data {
		for _, codec := range w.codecs {
			path := harness.ObjectKey(key.dataset, codec, key.step)
			desc, err := tb.clients[0].Describe(path)
			if err != nil {
				return nil, fmt.Errorf("describe %s: %w", path, err)
			}
			tb.grids[path] = desc.Grid
		}
	}
	ok = true
	return tb, nil
}

// buildData generates the workload's data sets and stores each in the
// codecs the workload reads.
func (tb *testbed) buildData(buf *bytes.Buffer, seed uint64, n int) (buildTimes, error) {
	var bt buildTimes
	tb.data = make(map[dsKey]*grid.Dataset)
	store := func(key dsKey, ds *grid.Dataset) error {
		tb.data[key] = ds
		for _, codec := range tb.w.codecs {
			buf.Reset()
			t := time.Now()
			if err := vtkio.Write(buf, ds, vtkio.WriteOptions{Codec: codec, Checksum: true}); err != nil {
				return err
			}
			bt.write += time.Since(t)
			t = time.Now()
			path := harness.ObjectKey(key.dataset, codec, key.step)
			if err := tb.local.Put(bucket, path, buf.Bytes()); err != nil {
				return fmt.Errorf("storing %s: %w", path, err)
			}
			bt.put += time.Since(t)
		}
		return nil
	}
	acfg := sim.AsteroidConfig{N: n, Seed: uint32(seed)}
	tb.steps = acfg.Timesteps(3)
	for _, step := range tb.steps {
		t := time.Now()
		ds, err := acfg.Generate(step)
		if err != nil {
			return bt, err
		}
		bt.generate += time.Since(t)
		if err := store(dsKey{"asteroid", step}, ds); err != nil {
			return bt, err
		}
	}
	if tb.w.nyx {
		t := time.Now()
		ds, err := sim.NyxConfig{N: n, Seed: uint32(seed) + 6}.Generate()
		if err != nil {
			return bt, err
		}
		bt.generate += time.Since(t)
		if err := store(dsKey{"nyx", 0}, ds); err != nil {
			return bt, err
		}
	}
	return bt, nil
}

// truth returns the generated grid and field an op reads.
func (tb *testbed) truth(o *op) (*grid.Uniform, *grid.Field, error) {
	ds := tb.data[dsKey{o.dataset, o.step}]
	if ds == nil {
		return nil, nil, fmt.Errorf("no data set %s step %d", o.dataset, o.step)
	}
	f := ds.Field(o.array)
	if f == nil {
		return nil, nil, fmt.Errorf("no array %q in %s", o.array, o.dataset)
	}
	return ds.Grid, f, nil
}

// close stops every server and connection.
func (tb *testbed) close() {
	for i := len(tb.closers) - 1; i >= 0; i-- {
		tb.closers[i]()
	}
	tb.closers = nil
}

// envInfo describes the host, next to every result. All MB/s figures of a
// run are cache-resident when the last-level cache exceeds the 8 MiB
// arrays, which the label says outright.
type envInfo struct {
	NProc         int    `json:"nproc"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	GoVersion     string `json:"go"`
	LLC           string `json:"llc"`
	Store         string `json:"store"`
	CacheResident string `json:"mb_per_s_note"`
}

func hostEnv(storeDir string) envInfo {
	llc := "unknown"
	for _, idx := range []string{"index3", "index2"} {
		b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/" + idx + "/size")
		if err == nil {
			llc = strings.TrimSpace(string(b))
			break
		}
	}
	return envInfo{
		NProc:         runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		LLC:           llc,
		Store:         storeDir,
		CacheResident: "arrays are 8 MiB; when the LLC is larger, every MB/s figure is cache-resident",
	}
}
