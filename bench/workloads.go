package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"vizndp/internal/compress"
	"vizndp/internal/contour"
	"vizndp/internal/core"
	"vizndp/internal/harness"
)

// Workload names. They are the contract later issues cite, together with
// the metric names in metrics.go and BENCHMARK.json.
const (
	wlCold  = "cold"
	wlFrame = "frame"
	wlWide  = "wide"
	wlCrowd = "crowd"
)

var workloadNames = []string{wlCold, wlFrame, wlWide, wlCrowd}

// Contour values swept by cold and frame: the paper's 0.1..0.9.
var sweepIsos = []float64{0.1, 0.3, 0.5, 0.7, 0.9}

// The two asteroid arrays the paper contours (water and asteroid volume
// fractions).
var asteroidArrays = []string{"v02", "v03"}

// workload is the static description of one benchmark workload.
type workload struct {
	name string
	// codecs the workload reads; set-up generates only these.
	codecs []compress.Kind
	nyx    bool
	// serverOpts configure the NDP server under test.
	serverOpts func() []core.ServerOption
	// limit is the latency budget of one primary op; within_limit_ratio is
	// the share of primary ops that answered correctly inside it.
	limit time.Duration
	// sweepSeconds is one sweep's measured duration at the commit that
	// defined the benchmark (2 cores); it converts -seconds into a fixed
	// sweep count, so counts repeat exactly whatever the host's speed.
	sweepSeconds float64
}

var workloads = map[string]*workload{
	wlCold: {
		name:         wlCold,
		codecs:       []compress.Kind{compress.None, compress.LZ4},
		serverOpts:   func() []core.ServerOption { return nil },
		limit:        100 * time.Millisecond,
		sweepSeconds: 2.3,
	},
	wlFrame: {
		name:   wlFrame,
		codecs: []compress.Kind{compress.LZ4},
		serverOpts: func() []core.ServerOption {
			return []core.ServerOption{core.WithCacheBytes(256 << 20)}
		},
		limit:        200 * time.Millisecond,
		sweepSeconds: 2.45,
	},
	wlWide: {
		name:   wlWide,
		codecs: []compress.Kind{compress.LZ4},
		nyx:    true,
		serverOpts: func() []core.ServerOption {
			return []core.ServerOption{core.WithCacheBytes(256 << 20)}
		},
		limit:        250 * time.Millisecond,
		sweepSeconds: 0.645,
	},
	wlCrowd: {
		name:   wlCrowd,
		codecs: []compress.Kind{compress.LZ4},
		serverOpts: func() []core.ServerOption {
			return []core.ServerOption{
				core.WithCacheBytes(40 << 20),
				core.WithPayloadCacheBytes(2 << 20),
				core.WithCoalesce(2 * time.Millisecond),
				core.WithMaxInFlight(32),
				core.WithQueue(64),
			}
		},
		limit: 50 * time.Millisecond,
	},
}

// plan fixes how much work one run does. Everything is a count, never a
// duration, so two runs of one build execute the same operations.
type plan struct {
	n      int // grid edge
	pixels int // edge of a rendered frame
	setups int // how many times the data set is built; the median is reported

	// Closed-loop workloads.
	sweeps       int // timed sweeps after the verification sweep
	tracedSweeps int // traced sweeps that follow them in a -trace run

	// crowd.
	conns          int     // client connections: min(nproc, 4)
	rate           float64 // phase A arrivals per second
	arrivals       int     // phase A arrivals
	tracedArrivals int     // arrivals of the traced phase in a -trace run
	warmOps        int     // closed-loop warm-up ops
	satOps         int     // phase B closed-loop NDP ops
	baseOps        int     // phase C closed-loop baseline ops

	// wallLimit stops a run that a slow host would carry past the
	// driver's per-run limit; a truncated run says so in its report.
	wallLimit time.Duration
}

// Measured at the commit that defined the benchmark, 2 cores: crowd
// saturates at 170-190 NDP ops/s and at 65-75 baseline loads/s.
const (
	crowdRate        = 60.0
	crowdSatOpsPerS  = 180.0
	crowdBaseOpsPerS = 65.0
)

// planFor sizes a run to about `seconds` of measurement at the defining
// commit. A traced run measures a fifth as long untraced (for counters and
// the overhead ratio) and spends the rest on traced sweeps and replays.
func planFor(w *workload, seconds int, trace bool) plan {
	conns := runtime.NumCPU()
	if conns > 4 {
		conns = 4
	}
	p := plan{n: 128, pixels: 512, setups: 3, conns: conns, rate: crowdRate,
		wallLimit: time.Duration(seconds) * 5 * time.Second / 4}
	if p.wallLimit > 110*time.Second {
		p.wallLimit = 110 * time.Second
	}
	s := float64(seconds)
	if trace {
		p.setups = 1
		s /= 5
	}
	atLeast := func(v float64, min int) int {
		if n := int(math.Round(v)); n > min {
			return n
		}
		return min
	}
	if w.name == wlCrowd {
		// Warm-up, then phases A : B : C share the window 10 : 40 : 30 : 20.
		// Every phase is a whole number of the chunks it is read by.
		whole := func(v float64, chunk int) int { return chunk * atLeast(v/float64(chunk), 1) }
		p.warmOps = whole(0.10*s*crowdSatOpsPerS, crowdKeys)
		p.arrivals = whole(0.40*s*crowdRate, crowdLatChunk)
		p.satOps = whole(0.30*s*crowdSatOpsPerS, crowdSatChunk)
		p.baseOps = whole(0.20*s*crowdBaseOpsPerS, crowdBaseChunk)
		if trace {
			p.tracedArrivals = p.arrivals
		}
		return p
	}
	p.sweeps = atLeast(s/w.sweepSeconds, 1)
	if trace {
		p.tracedSweeps = 1
	}
	return p
}

// rng is splitmix64. The schedules are golden-tested, so they must not
// change with the Go release the way math/rand's top-level stream may.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// shuffle is Fisher-Yates; the modulo bias over n <= 72 is below 2^-57.
func (r *rng) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, int(r.next()%uint64(i+1)))
	}
}

// fetchKind is which NDP handler an op drives.
type fetchKind int

const (
	kindContour fetchKind = iota
	kindRange
	kindSlice
	kindRaw
	kindBaseline // no NDP: whole-array load through s3fs over the link
)

// Op classes, for the per-class latency diagnostics.
const (
	clsNDPRaw  = "ndp_raw"
	clsNDPLZ4  = "ndp_lz4"
	clsBaseRaw = "base_raw"
	clsBaseLZ4 = "base_lz4"
	clsRange   = "range"
	clsSlice   = "slice"
	clsRaw     = "raw"
)

// op is one operation of a sweep.
type op struct {
	class string
	kind  fetchKind
	// frame ops go on to a picture: contour + 512x512 render.
	frame bool
	// reconstruct ops expand the payload to the NaN-padded array (wide).
	reconstruct bool

	dataset string
	step    int
	codec   compress.Kind
	array   string
	isos    []float64    // kindContour; also the contour of a baseline frame
	lo, hi  float64      // kindRange
	axis    contour.Axis // kindSlice
	index   int          // kindSlice
}

func (o *op) baseline() bool { return o.kind == kindBaseline }

func (o *op) key() string { return harness.ObjectKey(o.dataset, o.codec, o.step) }

func (o *op) String() string {
	s := fmt.Sprintf("%s %s/%s", o.class, o.key(), o.array)
	switch o.kind {
	case kindContour:
		s += fmt.Sprintf(" iso=%v", o.isos)
	case kindRange:
		s += fmt.Sprintf(" range=[%g,%g]", o.lo, o.hi)
	case kindSlice:
		s += fmt.Sprintf(" %s=%d", o.axis, o.index)
	case kindBaseline:
		if o.frame {
			s += fmt.Sprintf(" iso=%v", o.isos)
		}
	}
	if o.frame {
		s += " frame"
	}
	return s
}

func ndpClass(codec compress.Kind) string {
	if codec == compress.None {
		return clsNDPRaw
	}
	return clsNDPLZ4
}

func baseClass(codec compress.Kind) string {
	if codec == compress.None {
		return clsBaseRaw
	}
	return clsBaseLZ4
}

// sweepOps returns the workload's sweep: a fixed composition in an order
// that is a pure function of the seed. n is the grid edge (slice planes
// sit at its middle). crowd has no sweep; see crowdKeySet.
func sweepOps(w *workload, steps []int, n int, seed uint64) []op {
	var ops []op
	switch w.name {
	case wlCold:
		// The paper's experiment (Fig. 13 / Table II): per step, array and
		// codec one baseline load and five NDP loads.
		for _, step := range steps {
			for _, array := range asteroidArrays {
				for _, codec := range w.codecs {
					ops = append(ops, op{class: baseClass(codec), kind: kindBaseline,
						dataset: "asteroid", step: step, codec: codec, array: array})
					for _, iso := range sweepIsos {
						ops = append(ops, op{class: ndpClass(codec), kind: kindContour,
							dataset: "asteroid", step: step, codec: codec, array: array,
							isos: []float64{iso}})
					}
				}
			}
		}
	case wlFrame:
		// Time to picture: five NDP frames and one baseline frame per step
		// and array. The baseline frames rotate through the isovalues so
		// their mean contour cost matches the NDP frames'.
		for si, step := range steps {
			for ai, array := range asteroidArrays {
				for _, iso := range sweepIsos {
					ops = append(ops, op{class: clsNDPLZ4, kind: kindContour, frame: true,
						dataset: "asteroid", step: step, codec: compress.LZ4, array: array,
						isos: []float64{iso}})
				}
				iso := sweepIsos[(si*len(asteroidArrays)+ai)%len(sweepIsos)]
				ops = append(ops, op{class: clsBaseLZ4, kind: kindBaseline, frame: true,
					dataset: "asteroid", step: step, codec: compress.LZ4, array: array,
					isos: []float64{iso}})
			}
		}
	case wlWide:
		// The same layers used differently: dense masks, MB-scale
		// payloads, and the range / slice / raw handlers.
		nyx := op{class: clsNDPLZ4, kind: kindContour, reconstruct: true,
			dataset: "nyx", codec: compress.LZ4, array: "baryon_density"}
		for _, isos := range [][]float64{{8}, {2, 4, 8}, {0.5, 1, 2, 4, 8}} {
			o := nyx
			o.isos = isos
			ops = append(ops, o)
		}
		for _, step := range steps {
			for _, array := range asteroidArrays {
				ops = append(ops, op{class: clsRange, kind: kindRange, reconstruct: true,
					dataset: "asteroid", step: step, codec: compress.LZ4, array: array,
					lo: 0.05, hi: 0.95})
			}
		}
		last := steps[len(steps)-1]
		for _, axis := range []contour.Axis{contour.AxisX, contour.AxisY, contour.AxisZ} {
			ops = append(ops, op{class: clsSlice, kind: kindSlice,
				dataset: "asteroid", step: last, codec: compress.LZ4, array: "v02",
				axis: axis, index: n / 2})
		}
		ops = append(ops,
			op{class: clsRaw, kind: kindRaw, dataset: "nyx", codec: compress.LZ4, array: "baryon_density"},
			op{class: clsRaw, kind: kindRaw, dataset: "asteroid", step: last, codec: compress.LZ4, array: "v02"},
			// What a client without NDP does for the same arrays.
			op{class: clsBaseLZ4, kind: kindBaseline, dataset: "nyx", codec: compress.LZ4, array: "baryon_density"},
			op{class: clsBaseLZ4, kind: kindBaseline, dataset: "asteroid", step: last, codec: compress.LZ4, array: "v02"},
		)
	}
	r := rng{s: seed}
	r.shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// crowdKeys is the crowd working set: step(3) x array(2) x iso{0.1..0.9}.
const crowdKeys = 54

// The chunks crowd's phases are read by: arrivals of phase A, completions
// of phase B, baseline loads of phase C. Each is a whole number of decks,
// or half a deck of whole-array loads, so that all chunks of a phase ask
// for the same bytes.
const (
	crowdLatChunk  = crowdKeys
	crowdSatChunk  = 2 * crowdKeys
	crowdBaseChunk = crowdKeys / 2
)

// crowdKeySet lists the crowd's distinct requests.
func crowdKeySet(steps []int) []op {
	var keys []op
	for _, step := range steps {
		for _, array := range asteroidArrays {
			for i := 1; i <= 9; i++ {
				keys = append(keys, op{class: clsNDPLZ4, kind: kindContour,
					dataset: "asteroid", step: step, codec: compress.LZ4, array: array,
					isos: []float64{float64(i) / 10}})
			}
		}
	}
	return keys
}

// crowdSequence returns count indices into the key set, dealt deck by
// deck: every run of len(keys) arrivals visits each key once in a freshly
// shuffled order. Reuse distances still range from 1 to 2*keys-1, so both
// caches see hits, misses and evictions, but bytes per request repeat
// exactly, which independent draws would not give.
func crowdSequence(numKeys, count int, seed uint64) []int {
	r := rng{s: seed}
	seq := make([]int, 0, count+numKeys)
	deck := make([]int, numKeys)
	for len(seq) < count {
		for i := range deck {
			deck[i] = i
		}
		r.shuffle(numKeys, func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		seq = append(seq, deck...)
	}
	return seq[:count]
}
