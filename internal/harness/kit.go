package harness

import (
	"bytes"
	"fmt"
	"io/fs"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"vizndp/internal/compress"
	"vizndp/internal/core"
	"vizndp/internal/netsim"
	"vizndp/internal/rpc"
	"vizndp/internal/s3fs"
	"vizndp/internal/stats"
	"vizndp/internal/telemetry"
	"vizndp/internal/vtkio"
)

// The experiment kit: what every robustness experiment shares, written
// once. kit/node bring servers and clients up and tear them down; oracle
// is the ground truth and the only place payload bytes are compared;
// burst drives fetches and tallies outcomes; ledger reads counter deltas
// and reconciles them with the flight ring. DESIGN.md has the rationale.

// kit owns what one experiment started: the cleanup stack releases it
// whichever way the experiment returns.
type kit struct {
	e       *Env
	mu      sync.Mutex // guards nodes: replicas start while clients re-dial
	nodes   map[string]*node
	cleanup []func()
}

func (e *Env) newKit() *kit { return &kit{e: e, nodes: make(map[string]*node)} }

// newLink returns a fresh shaped link of the configured capacity, so a
// node's injected faults cannot leak into the environment's shared path.
func (e *Env) newLink() *netsim.Link { return netsim.NewLink(e.Cfg.LinkBits, e.Cfg.LinkLatency) }

// onClose pushes a release; unwind runs, newest first, everything pushed
// since mark (a phase's bracket); close runs them all.
func (k *kit) onClose(f func()) { k.cleanup = append(k.cleanup, f) }

func (k *kit) mark() int { return len(k.cleanup) }

func (k *kit) unwind(to int) {
	for len(k.cleanup) > to {
		last := len(k.cleanup) - 1
		f := k.cleanup[last]
		k.cleanup = k.cleanup[:last]
		f()
	}
}

func (k *kit) close() { k.unwind(0) }

// node is one NDP server on the storage node. link is the shaped link
// its clients cross; nil means unshaped loopback.
type node struct {
	k    *kit
	srv  *core.Server
	addr string
	link *netsim.Link
}

// startNode serves fsys (nil: the node-local s3fs mount of the object
// store) behind link until the kit unwinds past it.
func (k *kit) startNode(fsys fs.FS, link *netsim.Link, opts ...core.ServerOption) (*node, error) {
	if fsys == nil {
		fsys = s3fs.New(k.e.local, Bucket)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{k: k, srv: core.NewServer(fsys, opts...), addr: ln.Addr().String(), link: link}
	if link != nil {
		ln = link.Listener(ln)
	}
	go n.srv.Serve(ln)
	k.mu.Lock()
	k.nodes[n.addr] = n
	k.mu.Unlock()
	k.onClose(n.srv.Close)
	return n, nil
}

// dialConn routes a connection over the link of the node it targets, so
// one client can span replicas that each sit behind their own link.
func (k *kit) dialConn(network, addr string) (net.Conn, error) {
	k.mu.Lock()
	n := k.nodes[addr]
	k.mu.Unlock()
	if n != nil && n.link != nil {
		return n.link.Dial(network, addr)
	}
	return net.Dial(network, addr)
}

// dial opens the plain fail-fast client onto n.
func (n *node) dial() (*core.Client, error) {
	c, err := core.Dial(n.addr, n.k.dialConn)
	if err != nil {
		return nil, err
	}
	n.k.onClose(func() { c.Close() })
	return c, nil
}

// dialFT opens the retrying client over a replica set.
func (k *kit) dialFT(opts rpc.ReconnectOptions, replicas ...*node) *core.Client {
	addrs := make([]string, len(replicas))
	for i, n := range replicas {
		addrs[i] = n.addr
	}
	c := core.DialFaultTolerant(addrs, k.dialConn, opts)
	k.onClose(func() { c.Close() })
	return c
}

// setFaults arms n's link with a fault schedule until the kit unwinds.
func (n *node) setFaults(f *netsim.Faults) {
	n.link.SetFaults(f)
	n.k.onClose(func() { n.link.SetFaults(nil) })
}

// dialDegraded is the forced-degradation recipe: n's link kills its
// first connection mid-frame and the returned client may not retry
// Fetch, so its first fetch must fall back to Describe + FetchRaw + a
// local pre-filter on the replacement connection.
func (n *node) dialDegraded() *core.Client {
	retryable := core.RetryableMethods()
	retryable[core.MethodFetch] = false
	n.setFaults(&netsim.Faults{
		Seed:           11,
		KillConnEvery:  1 << 30, // only the first connection is armed
		KillAfterBytes: 128,
	})
	return n.k.dialFT(rpc.ReconnectOptions{
		MaxAttempts:    4,
		InitialBackoff: time.Millisecond,
		MaxBackoff:     20 * time.Millisecond,
		Seed:           11,
		Retryable:      retryable,
	}, n)
}

// breakerOptions tunes the retrying client for overload and replica
// death: aggressive retries with tight backoff so shed requests recover
// quickly, and a fast breaker so a dead replica is benched immediately.
func breakerOptions() rpc.ReconnectOptions {
	return rpc.ReconnectOptions{
		MaxAttempts:      256,
		InitialBackoff:   time.Millisecond,
		MaxBackoff:       50 * time.Millisecond,
		CallTimeout:      10 * time.Second,
		Seed:             11,
		BreakerThreshold: 2,
		BreakerCooldown:  75 * time.Millisecond,
	}
}

// fetchID names one fetch of a contour sweep.
type fetchID struct {
	step int
	iso  float64
}

// repeatTo repeats ids whole until there are at least n: a burst deep
// enough to saturate an undersized server even in -quick configurations.
func repeatTo(ids []fetchID, n int) []fetchID {
	var out []fetchID
	for len(out) < n {
		out = append(out, ids...)
	}
	return out
}

// sweepIDs is the stock sweep over steps: each at every contour value.
func (e *Env) sweepIDs(steps []int) []fetchID {
	var ids []fetchID
	for _, step := range steps {
		for _, iso := range e.Cfg.ContourValues {
			ids = append(ids, fetchID{step, iso})
		}
	}
	return ids
}

// oracle holds the ground truth of one experiment: what a clean fetch of
// every id of its sweep returns.
type oracle struct {
	e       *Env
	dataset string
	codec   compress.Kind
	array   string
	// Set by learn: the clean client, its sweep's tally and payloads.
	clean    *core.Client
	cleanRun *tally
	want     map[fetchID]*core.Payload
}

// newOracle returns an oracle over the raw asteroid objects, the stock
// sweep's dataset, with nothing learned yet.
func (e *Env) newOracle(array string) *oracle {
	return &oracle{e: e, dataset: "asteroid", codec: compress.None, array: array}
}

// learn runs the clean sequential sweep whose payloads every later
// phase is held to.
func (o *oracle) learn(clean *core.Client, ids []fetchID) error {
	t, err := o.sweep(clean, "clean", ids)
	if err != nil {
		return err
	}
	o.clean, o.cleanRun, o.want = clean, t, t.got
	return nil
}

// groundTruth is every experiment's opening move: an unbounded,
// uncached server behind link, a plain client onto it, and the oracle
// learned through it.
func (k *kit) groundTruth(array string, link *netsim.Link, ids []fetchID) (*oracle, *node, error) {
	n, err := k.startNode(nil, link)
	if err != nil {
		return nil, nil, err
	}
	clean, err := n.dial()
	if err != nil {
		return nil, nil, err
	}
	o := k.e.newOracle(array)
	return o, n, o.learn(clean, ids)
}

// fetch issues one fetch of the sweep.
func (o *oracle) fetch(c *core.Client, id fetchID) (*core.Payload, *core.FetchStats, error) {
	p, st, err := c.FetchFiltered(ObjectKey(o.dataset, o.codec, id.step), o.array, []float64{id.iso}, core.EncAuto)
	if err != nil {
		return nil, nil, fmt.Errorf("harness: step %d iso %g: %w", id.step, id.iso, err)
	}
	return p, st, nil
}

// same is the one payload comparison: p must be byte-identical to the
// ground truth of id.
func (o *oracle) same(phase string, id fetchID, p *core.Payload) error {
	if want := o.want[id]; want == nil || !bytes.Equal(p.Data, want.Data) {
		return fmt.Errorf("harness: %s payload differs from ground truth at step %d iso %g", phase, id.step, id.iso)
	}
	return nil
}

// sameRaw reads step's whole array through c and holds it, byte for
// byte, to the field the store was written from: the check for damage in
// cells no contour selects, which the payload comparison cannot see.
func (o *oracle) sameRaw(c *core.Client, step int) error {
	data, _, err := c.FetchRaw(ObjectKey(o.dataset, o.codec, step), o.array)
	if err != nil {
		return fmt.Errorf("harness: raw step %d: %w", step, err)
	}
	if !bytes.Equal(data, vtkio.FloatsToBytes(o.e.asteroidSet[step].Field(o.array).Values)) {
		return fmt.Errorf("harness: whole %s array differs from the stored field at step %d", o.array, step)
	}
	return nil
}

// bitsEqual compares float arrays bit for bit: the claim is payload
// identity, which value equality misstates for NaN and ±0.
func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// tally is the outcome and latency accounting of one burst.
type tally struct {
	mu      sync.Mutex
	got     map[fetchID]*core.Payload // last payload served per id
	lats    []float64                 // per served fetch, ms
	elapsed time.Duration
	maxWire int // largest payload's wire size
	err     error
}

func newTally() *tally { return &tally{got: make(map[fetchID]*core.Payload)} }

// attempt issues one fetch, holds it to the ground truth once there is
// one, and records the outcome in t. It reports whether the driver may
// carry on.
func (o *oracle) attempt(c *core.Client, phase string, id fetchID, t *tally) bool {
	start := time.Now()
	p, _, err := o.fetch(c, id)
	lat := float64(time.Since(start)) / float64(time.Millisecond)
	if err == nil && o.want != nil {
		err = o.same(phase, id, p)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case err == nil:
		t.got[id] = p
		t.lats = append(t.lats, lat)
		if w := p.WireSize(); w > t.maxWire {
			t.maxWire = w
		}
	case t.err == nil:
		t.err = err
	}
	return t.err == nil
}

// p50p99 formats the tally's latency percentiles.
func (t *tally) p50p99() (string, string) {
	return fmt.Sprintf("%.1fms", stats.Percentile(t.lats, 0.50)),
		fmt.Sprintf("%.1fms", stats.Percentile(t.lats, 0.99))
}

// burst is a closed-loop drive of ids through one client.
type burst struct {
	ids     []fetchID
	workers int
	// hook, when set, fires once after `after` fetches have completed.
	after int
	hook  func()
}

// run drives the burst: the workers are released together by a barrier,
// pull ids in order, and stop at the first failure.
func (o *oracle) run(c *core.Client, phase string, b burst) (*tally, error) {
	t := newTally()
	var next, done atomic.Int64
	var hookOnce sync.Once
	release := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < b.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-release
			for {
				i := int(next.Add(1)) - 1
				if i >= len(b.ids) || !o.attempt(c, phase, b.ids[i], t) {
					return
				}
				if b.hook != nil && int(done.Add(1)) >= b.after {
					hookOnce.Do(b.hook)
				}
			}
		}()
	}
	start := time.Now()
	close(release)
	wg.Wait()
	t.elapsed = time.Since(start)
	return t, t.err
}

// sweep fetches ids once each, in order: a burst of one worker.
func (o *oracle) sweep(c *core.Client, phase string, ids []fetchID) (*tally, error) {
	return o.run(c, phase, burst{ids: ids, workers: 1})
}

// ledger reads the process-wide counters relative to the moment it was
// opened, and reconciles them against the flight ring from that moment.
type ledger struct {
	base map[string]int64
	rec  *telemetry.FlightRecorder
	seq0 uint64
}

func openLedger() *ledger {
	rec := telemetry.DefaultFlightRecorder()
	return &ledger{base: telemetry.Default().Snapshot().Counters, rec: rec, seq0: rec.Seq()}
}

// delta is how far the named counter has advanced since the ledger
// opened (a counter first touched later started from zero).
func (l *ledger) delta(name string) int64 {
	return telemetry.Default().Counter(name).Value() - l.base[name]
}

// awaitEvents polls until pred accepts the wide events recorded since
// the ledger opened: a server finishes its event just after writing the
// response, so a client can see completion before the recorder does. A
// ring that wrapped meanwhile fails, for pred saw only part of it.
func (l *ledger) awaitEvents(pred func(evs []telemetry.WideEvent) error) error {
	err := poll(func() error { return pred(l.rec.Events(telemetry.EventFilter{SinceSeq: l.seq0})) })
	if n := l.rec.Seq() - l.seq0; n > uint64(l.rec.Capacity()) {
		return fmt.Errorf("harness: flight ring wrapped (%d events > capacity %d); reconciliation would be partial",
			n, l.rec.Capacity())
	}
	return err
}

// eventCount pairs a counter with the wide events that must account for
// every one of its increments.
type eventCount struct {
	counter string
	match   func(ev *telemetry.WideEvent) bool
}

// reconcile awaits the books balancing: for each pair, as many matching
// events since the ledger opened as the counter advanced.
func (l *ledger) reconcile(pairs ...eventCount) error {
	return l.awaitEvents(func(evs []telemetry.WideEvent) error {
		for _, p := range pairs {
			if n, d := countEvents(evs, p.match), l.delta(p.counter); n != d {
				return fmt.Errorf("harness: wide events do not reconcile with counters: %s advanced %d but the flight ring has %d matching events",
					p.counter, d, n)
			}
		}
		return nil
	})
}

// count is how many of the wide events recorded since the ledger opened
// match: after reconcile, the books' settled count.
func (l *ledger) count(match func(ev *telemetry.WideEvent) bool) int64 {
	return countEvents(l.rec.Events(telemetry.EventFilter{SinceSeq: l.seq0}), match)
}

func countEvents(evs []telemetry.WideEvent, match func(ev *telemetry.WideEvent) bool) int64 {
	var n int64
	for i := range evs {
		if match(&evs[i]) {
			n++
		}
	}
	return n
}

// poll retries cond every 10ms until it returns nil, giving up with its
// last error after 3s.
func poll(cond func() error) error {
	deadline := time.Now().Add(3 * time.Second)
	for {
		err := cond()
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(10 * time.Millisecond)
	}
}
