package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"vizndp/internal/telemetry"
)

// Fault-injection metrics, reported per class so a /metrics scrape (or
// the harness) can prove which faults a run actually survived.
var (
	mFaultDialsRefused = telemetry.Default().Counter("netsim.fault.dials.refused")
	mFaultConnsKilled  = telemetry.Default().Counter("netsim.fault.conns.killed")
	mFaultTruncations  = telemetry.Default().Counter("netsim.fault.frames.truncated")
	mFaultCorruptions  = telemetry.Default().Counter("netsim.fault.corruptions")
)

// ErrDialRefused is the injected connection-refused error.
var ErrDialRefused = errors.New("netsim: injected dial refusal")

// ErrConnKilled is the injected mid-connection failure; the writer that
// trips the kill sees it, the peer sees the closed connection (EOF or a
// truncated frame).
var ErrConnKilled = errors.New("netsim: injected connection kill")

// Faults is a deterministic, seeded fault-injection policy attachable
// to a Link with SetFaults. Four fault classes are modelled, matching
// how a storage tier actually misbehaves:
//
//   - dial refusals: every RefuseDialEvery-th Dial fails with
//     ErrDialRefused (the storage node is restarting);
//   - connection kills after N bytes: accepted connections numbered
//     1, 1+KillConnEvery, 1+2*KillConnEvery, ... are armed and die once
//     their writes exceed a byte budget around KillAfterBytes;
//   - mid-frame truncation: when an armed connection's budget runs out
//     inside a write, the prefix up to the budget is written before the
//     connection closes — the peer reads a truncated length-prefixed
//     frame, the nastiest wire state a crash can leave behind;
//   - in-flight payload corruption: accepted connections numbered
//     1, 1+CorruptConnEvery, ... have CorruptBytes of their outbound
//     stream XOR-flipped starting a seeded offset past CorruptAfterBytes
//     — the connection stays up and the frame lengths stay intact, so
//     the damage reaches the peer's decoder looking like valid data (a
//     misbehaving middlebox or NIC).
//
// KillAfterTime is a separate guillotine: when positive, every accepted
// connection (armed or not) dies at its first write after living that
// long — a periodic storage-node restart.
//
// Schedules are deterministic: class selection is pure counting
// (connection and dial ordinals), and the only randomness — the
// per-connection byte-budget jitter — comes from a rand.Rand seeded
// with Seed, so a given arrival order replays identically.
type Faults struct {
	// Seed drives the byte-budget jitter. Zero is a valid fixed seed.
	Seed int64
	// RefuseDialEvery n refuses dials number n, 2n, 3n, ... (0 = never).
	// The first dial is never refused, so lazily-connecting clients can
	// come up before the fault campaign starts.
	RefuseDialEvery int
	// KillConnEvery n arms accepted connections 1, 1+n, 1+2n, ...
	// (0 = never). Arming the first connection makes the very first
	// transfer face a fault.
	KillConnEvery int
	// KillAfterBytes is the armed connection's write budget. The actual
	// budget is KillAfterBytes plus a seeded jitter in [0, JitterBytes].
	KillAfterBytes int64
	// JitterBytes spreads armed budgets so kills land at varied frame
	// offsets; 0 keeps budgets exact (deterministic tests).
	JitterBytes int64
	// KillAfterTime, when positive, kills every accepted connection at
	// its first write after this age.
	KillAfterTime time.Duration
	// CorruptConnEvery n arms accepted connections 1, 1+n, 1+2n, ...
	// for in-flight payload corruption (0 = never).
	CorruptConnEvery int
	// CorruptAfterBytes is how far into the armed connection's outbound
	// stream the corruption window opens; the actual offset adds a
	// seeded jitter in [0, JitterBytes]. Offsetting past the first few
	// hundred bytes leaves handshake-sized frames intact and lands the
	// flips inside bulk payloads.
	CorruptAfterBytes int64
	// CorruptBytes is how many bytes of the stream the armed connection
	// flips once the window opens; 0 defaults to 8.
	CorruptBytes int

	initOnce sync.Once
	mu       sync.Mutex // guards rng
	rng      *rand.Rand

	dials atomic.Int64
	conns atomic.Int64

	refused   atomic.Int64
	killed    atomic.Int64
	truncated atomic.Int64
	corrupted atomic.Int64
}

// FaultStats is a snapshot of the faults a policy has injected.
type FaultStats struct {
	DialsRefused    int64
	ConnsKilled     int64
	FramesTruncated int64
	// Corruptions counts write chunks whose bytes were flipped in
	// flight by the payload-corruption class.
	Corruptions int64
}

func (s FaultStats) String() string {
	return fmt.Sprintf("%d dials refused, %d conns killed, %d frames truncated, %d chunks corrupted",
		s.DialsRefused, s.ConnsKilled, s.FramesTruncated, s.Corruptions)
}

// Stats returns the counts of injected faults so far.
func (f *Faults) Stats() FaultStats {
	return FaultStats{
		DialsRefused:    f.refused.Load(),
		ConnsKilled:     f.killed.Load(),
		FramesTruncated: f.truncated.Load(),
		Corruptions:     f.corrupted.Load(),
	}
}

func (f *Faults) init() {
	f.initOnce.Do(func() {
		f.rng = rand.New(rand.NewSource(f.Seed))
	})
}

// onDial charges one dial against the refusal schedule.
func (f *Faults) onDial() error {
	n := f.dials.Add(1)
	if f.RefuseDialEvery > 0 && n%int64(f.RefuseDialEvery) == 0 {
		f.refused.Add(1)
		mFaultDialsRefused.Inc()
		return fmt.Errorf("%w (dial %d)", ErrDialRefused, n)
	}
	return nil
}

// newConnFaults rolls the fault state for one accepted connection.
func (f *Faults) newConnFaults() *connFaults {
	f.init()
	n := f.conns.Add(1)
	cf := &connFaults{faults: f, born: time.Now()}
	if f.KillConnEvery > 0 && (n-1)%int64(f.KillConnEvery) == 0 {
		cf.armed = true
		cf.budget = f.KillAfterBytes
		if f.JitterBytes > 0 {
			f.mu.Lock()
			cf.budget += f.rng.Int63n(f.JitterBytes + 1)
			f.mu.Unlock()
		}
	}
	if f.CorruptConnEvery > 0 && (n-1)%int64(f.CorruptConnEvery) == 0 {
		cf.corruptAt = f.CorruptAfterBytes
		if f.JitterBytes > 0 {
			f.mu.Lock()
			cf.corruptAt += f.rng.Int63n(f.JitterBytes + 1)
			f.mu.Unlock()
		}
		cf.corruptLeft = f.CorruptBytes
		if cf.corruptLeft <= 0 {
			cf.corruptLeft = 8
		}
	}
	return cf
}

// connFaults is the per-connection kill and corruption state.
type connFaults struct {
	faults  *Faults
	born    time.Time
	armed   bool
	budget  int64 // remaining write budget while armed
	written int64
	dead    bool

	// Corruption window: flip corruptLeft bytes of the outbound stream
	// starting at stream offset corruptAt. corruptLeft == 0 means the
	// connection is not armed for corruption (or the window is spent).
	corruptAt   int64
	corruptLeft int
}

// admit decides the fate of one write chunk: how many of its bytes may
// go out, and whether the connection dies after them. A cut strictly
// inside the chunk leaves a partial frame on the wire and is counted as
// a truncation. Not safe for concurrent use; netsim connections have a
// single writer per direction (the rpc layer serializes frames).
func (cf *connFaults) admit(n int) (allowed int, kill bool) {
	if cf.dead {
		return 0, true
	}
	f := cf.faults
	if f.KillAfterTime > 0 && time.Since(cf.born) >= f.KillAfterTime {
		cf.dead = true
		f.killed.Add(1)
		mFaultConnsKilled.Inc()
		return 0, true
	}
	if cf.armed {
		remaining := cf.budget - cf.written
		if remaining <= int64(n) {
			cf.dead = true
			f.killed.Add(1)
			mFaultConnsKilled.Inc()
			allowed = int(max64(remaining, 0))
			if allowed > 0 && allowed < n {
				f.truncated.Add(1)
				mFaultTruncations.Inc()
			}
			cf.written += int64(allowed)
			return allowed, true
		}
	}
	cf.written += int64(n)
	return n, false
}

// mangle applies the corruption window to one admitted write chunk
// whose first byte sits at stream offset startOff (the connection's
// written total before this chunk was charged). The caller's buffer is
// the rpc encoder's frame — it must never be modified — so an
// overlapping chunk is copied before its bytes are XOR-flipped. Like
// admit, not safe for concurrent use.
func (cf *connFaults) mangle(chunk []byte, startOff int64) []byte {
	if cf.corruptLeft <= 0 || len(chunk) == 0 {
		return chunk
	}
	if startOff+int64(len(chunk)) <= cf.corruptAt {
		return chunk
	}
	lo := cf.corruptAt - startOff
	if lo < 0 {
		lo = 0
	}
	out := append([]byte(nil), chunk...)
	for i := lo; i < int64(len(out)) && cf.corruptLeft > 0; i++ {
		out[i] ^= 0x5A
		cf.corruptLeft--
	}
	cf.faults.corrupted.Add(1)
	mFaultCorruptions.Inc()
	return out
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
