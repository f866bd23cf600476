// Package netsim emulates the network link between the storage node and
// the client node. The paper's testbed connects the two machines with
// 1 Gb Ethernet; this reproduction runs on one machine, so all traffic —
// object-store HTTP in the baseline setup, pre-/post-filter RPC in the
// NDP setup — is routed through Link-shaped connections that pace bytes
// at a configurable bandwidth and charge a connection-setup latency.
//
// A single Link can be shared by many connections, which then contend for
// the same capacity exactly as flows on one wire do. Links also count the
// bytes they carry, giving the harness the "network traffic volume"
// numbers the paper reports.
package netsim

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"vizndp/internal/telemetry"
)

// Process-wide telemetry for all links: total shaped traffic and the
// cumulative pacing delay the shaper actually induced (the time writers
// spent sleeping to honor the modelled bandwidth).
var (
	mBytesSent    = telemetry.Default().Counter("netsim.bytes.sent")
	mBytesRecv    = telemetry.Default().Counter("netsim.bytes.recv")
	mDelayNanos   = telemetry.Default().Counter("netsim.delay.nanos")
	mDialLatNanos = telemetry.Default().Counter("netsim.dial.latency.nanos")
)

// Common link presets. Bandwidth values are in bits per second to match
// how links are usually named.
const (
	Mbps = 1e6
	Gbps = 1e9
)

// Link models a shared network link with finite bandwidth and a fixed
// one-way latency. The zero value is an unlimited, zero-latency link.
type Link struct {
	bytesPerSec float64
	latency     time.Duration

	mu       sync.Mutex
	nextFree time.Time

	sent atomic.Int64

	// faults, when set, injects the attached policy's failures into the
	// link's dials and connections.
	faults atomic.Pointer[Faults]
}

// SetFaults attaches a fault-injection policy to the link; nil detaches
// it. Connections wrapped after the call observe the new policy;
// already-wrapped connections keep the fault state they were born with.
func (l *Link) SetFaults(f *Faults) { l.faults.Store(f) }

// Faults returns the attached policy, or nil.
func (l *Link) Faults() *Faults { return l.faults.Load() }

// NewLink returns a link with the given capacity in bits per second
// (use the Mbps/Gbps constants) and one-way latency. A non-positive
// bandwidth means unlimited.
func NewLink(bitsPerSec float64, latency time.Duration) *Link {
	return &Link{bytesPerSec: bitsPerSec / 8, latency: latency}
}

// Unlimited returns a link that shapes nothing but still counts bytes.
func Unlimited() *Link { return &Link{} }

// BytesSent returns the total bytes written through the link.
func (l *Link) BytesSent() int64 { return l.sent.Load() }

// ResetCounters zeroes the byte counter.
func (l *Link) ResetCounters() { l.sent.Store(0) }

// TransferTime returns the ideal serialized transfer time for n bytes,
// ignoring contention. Used by the analytic cost model.
func (l *Link) TransferTime(n int64) time.Duration {
	if l.bytesPerSec <= 0 {
		return 0
	}
	return time.Duration(float64(n) / l.bytesPerSec * float64(time.Second))
}

// reserve books n bytes of capacity at now for a writer that last woke
// at *wake (see book) and returns the deadline at which the bytes have
// "arrived" and whether the writer must sleep until then. When it must,
// the deadline becomes its next wake. Shared across all connections on
// the link, so concurrent flows divide the capacity.
func (l *Link) reserve(n int, wake *time.Time, now time.Time) (deadline time.Time, sleep bool) {
	if l.bytesPerSec <= 0 {
		return time.Time{}, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var wait time.Duration
	l.nextFree, wait = l.book(l.nextFree, *wake, now, n)
	if wait > 0 {
		*wake = l.nextFree
	}
	return l.nextFree, wait > 0
}

// book is pace on the writer's clock: a chunk booked less than minSleep
// after the writer's last wake is booked at that wake, so the OS timer's
// overshoot of the sleep is not idle wire time. A writer idle or
// back-pressured for minSleep or longer books at now and, as in pace,
// banks no credit.
func (l *Link) book(nextFree, wake, now time.Time, n int) (end time.Time, wait time.Duration) {
	if now.Sub(wake) < minSleep {
		now = wake
	}
	return l.pace(nextFree, now, n)
}

// pace is the link's schedule, a function of its arguments alone: n
// bytes queued at now behind a wire busy until nextFree (an idle wire
// banks no credit) have arrived at end, and the writer sleeps until then
// only when the debt is at least minSleep. A smaller debt stays in the
// horizon end, which the link carries to the next chunk.
func (l *Link) pace(nextFree, now time.Time, n int) (end time.Time, wait time.Duration) {
	start := nextFree
	if start.Before(now) {
		start = now
	}
	end = start.Add(l.TransferTime(int64(n)))
	if wait = end.Sub(now); wait < minSleep {
		wait = 0
	}
	return end, wait
}

// maxBurst keeps individual reservations small so concurrent flows
// interleave rather than one flow monopolizing the wire.
const maxBurst = 64 * 1024

// minSleep is the smallest pacing debt worth sleeping for. The OS timer
// overshoots sleeps by up to ~1ms, so paying it for sub-millisecond
// debts would inflate transfer times far beyond the modelled link; small
// debts accumulate in the link's nextFree horizon instead and are repaid
// on a later chunk.
const minSleep = 2 * time.Millisecond

// Conn wraps c so that all writes are paced by the link. Reads are left
// unshaped: the peer's writes already paid for the bytes, and shaping
// both sides would double-charge every transfer. Consequently both
// endpoints of a connection should be wrapped (listener side and dialer
// side) so that each direction's traffic is paced exactly once, by its
// sender.
//
// A connection wrapped via Conn counts as dialer-side: the attached
// fault policy's kills and corruption do not apply to it (they target
// accepted connections — the payload direction). Listener and Pipe wrap
// the server side as accepted.
func (l *Link) Conn(c net.Conn) net.Conn {
	return l.wrap(c, false)
}

// wrap builds the shaped connection; accepted connections additionally
// roll per-connection kill state from the attached fault policy.
func (l *Link) wrap(c net.Conn, accepted bool) net.Conn {
	s := &shapedConn{Conn: c, link: l}
	if f := l.Faults(); f != nil && accepted {
		s.cf = f.newConnFaults()
	}
	return s
}

type shapedConn struct {
	net.Conn
	link *Link
	cf   *connFaults // kill state; nil when no faults or dialer-side
	wake time.Time   // the deadline the writer last slept to; guarded by link.mu
}

func (s *shapedConn) Write(b []byte) (int, error) {
	total := 0
	for len(b) > 0 {
		chunk := b
		if len(chunk) > maxBurst {
			chunk = chunk[:maxBurst]
		}
		kill := false
		if s.cf != nil {
			// Stream offset of this chunk's first byte, captured before
			// admit advances the written total.
			startOff := s.cf.written
			var allowed int
			allowed, kill = s.cf.admit(len(chunk))
			chunk = s.cf.mangle(chunk[:allowed], startOff)
		}
		if len(chunk) > 0 {
			// Only pay the OS timer when the accumulated pacing debt is
			// large enough to be worth it; the link's horizon carries small
			// debts forward, so long-run throughput stays exact.
			if deadline, sleep := s.link.reserve(len(chunk), &s.wake, time.Now()); sleep {
				d := max(time.Until(deadline), 0)
				time.Sleep(d)
				mDelayNanos.Add(int64(d))
			}
			// Counted before it goes out: the peer can act on a chunk the
			// moment Write delivers it, and whoever then reads BytesSent
			// must not find fewer bytes than the peer already holds. A
			// short write gives the difference back.
			s.link.sent.Add(int64(len(chunk)))
			n, err := s.Conn.Write(chunk)
			s.link.sent.Add(int64(n - len(chunk)))
			total += n
			mBytesSent.Add(int64(n))
			if err != nil {
				return total, err
			}
			b = b[n:]
		}
		if kill {
			// The injected death: whatever prefix was admitted is on the
			// wire (a truncated frame when it cut mid-chunk); both
			// directions go down with the underlying connection.
			s.Conn.Close()
			return total, ErrConnKilled
		}
	}
	return total, nil
}

func (s *shapedConn) Read(b []byte) (int, error) {
	n, err := s.Conn.Read(b)
	mBytesRecv.Add(int64(n))
	return n, err
}

// Listener wraps ln so every accepted connection is shaped by the link.
func (l *Link) Listener(ln net.Listener) net.Listener {
	return &shapedListener{Listener: ln, link: l}
}

type shapedListener struct {
	net.Listener
	link *Link
}

func (s *shapedListener) Accept() (net.Conn, error) {
	c, err := s.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return s.link.wrap(c, true), nil
}

// Dial connects to addr over TCP, charges the connection-setup latency,
// and returns a shaped connection. An attached fault policy may refuse
// the dial according to its schedule.
func (l *Link) Dial(network, addr string) (net.Conn, error) {
	if f := l.Faults(); f != nil {
		if err := f.onDial(); err != nil {
			return nil, err
		}
	}
	c, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	if l.latency > 0 {
		time.Sleep(l.latency)
		mDialLatNanos.Add(int64(l.latency))
	}
	return l.Conn(c), nil
}

// Pipe returns an in-memory connection pair whose client->server and
// server->client directions are both shaped by the link. Useful for
// tests that avoid real sockets. The server end counts as accepted for
// the attached fault policy.
func (l *Link) Pipe() (client, server net.Conn) {
	c, s := net.Pipe()
	return l.Conn(c), l.wrap(s, true)
}
