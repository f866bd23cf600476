package netsim

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// pipePair returns a shaped in-memory connection pair with a reader
// goroutine draining the server side into a buffer.
func transfer(t *testing.T, link *Link, payload []byte) time.Duration {
	t.Helper()
	client, server := link.Pipe()
	defer client.Close()
	defer server.Close()

	var got bytes.Buffer
	done := make(chan error, 1)
	go func() {
		_, err := io.CopyN(&got, server, int64(len(payload)))
		done <- err
	}()

	start := time.Now()
	if _, err := client.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatal("payload corrupted in transit")
	}
	return elapsed
}

func TestUnlimitedLinkIsFast(t *testing.T) {
	payload := make([]byte, 1<<20)
	elapsed := transfer(t, Unlimited(), payload)
	if elapsed > time.Second {
		t.Errorf("unlimited transfer of 1 MiB took %v", elapsed)
	}
}

func TestBandwidthPacing(t *testing.T) {
	// 1 MiB at 100 Mb/s should take at least ~80 ms.
	link := NewLink(100*Mbps, 0)
	payload := make([]byte, 1<<20)
	elapsed := transfer(t, link, payload)
	ideal := link.TransferTime(int64(len(payload)))
	if elapsed < ideal*8/10 {
		t.Errorf("transfer took %v, expected >= ~%v", elapsed, ideal)
	}
	if elapsed > ideal*3 {
		t.Errorf("transfer took %v, expected close to %v", elapsed, ideal)
	}
}

func TestBandwidthAccuracy(t *testing.T) {
	// The pacing must track the modelled link closely even though small
	// debts skip the OS timer: a 4 MiB transfer at 1 Gb/s is ~33.6 ms and
	// should land within about 25% of it. Wall-clock tests can be blown
	// off course by scheduler load (this box has one core), so allow a
	// few attempts before declaring the pacing broken.
	if raceEnabled {
		t.Skip("race-detector instrumentation slows transfers ~3x, outside the pacing tolerance")
	}
	payload := make([]byte, 4<<20)
	var last string
	for attempt := 0; attempt < 4; attempt++ {
		link := NewLink(1*Gbps, 0)
		elapsed := transfer(t, link, payload)
		ideal := link.TransferTime(int64(len(payload)))
		if elapsed >= ideal*3/4 && elapsed <= ideal*5/4 {
			return
		}
		last = fmt.Sprintf("transfer took %v, ideal %v", elapsed, ideal)
	}
	t.Errorf("pacing error too large on every attempt: %s", last)
}

func TestTransferTime(t *testing.T) {
	link := NewLink(1*Gbps, 0)
	got := link.TransferTime(125_000_000) // 1 Gb/s = 125 MB/s
	if got != time.Second {
		t.Errorf("TransferTime = %v, want 1s", got)
	}
	if Unlimited().TransferTime(1<<30) != 0 {
		t.Error("unlimited link should report zero transfer time")
	}
}

func TestByteCounters(t *testing.T) {
	link := Unlimited()
	payload := make([]byte, 123_456)
	transfer(t, link, payload)
	if link.BytesSent() != int64(len(payload)) {
		t.Errorf("BytesSent = %d, want %d", link.BytesSent(), len(payload))
	}
	link.ResetCounters()
	if link.BytesSent() != 0 {
		t.Error("ResetCounters did not zero")
	}
}

// countCheckConn is a peer that looks at the link's counter the instant
// each chunk reaches it, and takes only half of the last one.
type countCheckConn struct {
	net.Conn
	link     *Link
	got      int64
	shortAt  int64 // accept half a chunk once got reaches this
	behindBy int64 // most the counter ever trailed the delivered bytes
}

func (c *countCheckConn) Write(p []byte) (int, error) {
	n := len(p)
	if c.got >= c.shortAt {
		n /= 2
	}
	c.got += int64(n)
	if d := c.got - c.link.BytesSent(); d > c.behindBy {
		c.behindBy = d
	}
	if n < len(p) {
		return n, io.ErrShortWrite
	}
	return n, nil
}

func TestBytesSentNeverTrailsDelivery(t *testing.T) {
	// A client that has just received the last chunk of a reply reads
	// BytesSent to see what the reply cost; the sender may not have got
	// as far as its bookkeeping yet. The count must already include
	// every byte the peer holds — and still be exact after a short write.
	link := Unlimited()
	peer := &countCheckConn{link: link, shortAt: 2 * maxBurst}
	n, err := link.Conn(peer).Write(make([]byte, 2*maxBurst+1000))
	if err != io.ErrShortWrite || int64(n) != peer.got {
		t.Fatalf("Write = %d, %v; peer took %d", n, err, peer.got)
	}
	if peer.behindBy > 0 {
		t.Errorf("BytesSent trailed the bytes already delivered by %d", peer.behindBy)
	}
	if link.BytesSent() != peer.got {
		t.Errorf("BytesSent = %d after a short write, peer took %d", link.BytesSent(), peer.got)
	}
}

func TestSharedLinkContention(t *testing.T) {
	// Two concurrent flows on one link should take about twice as long as
	// one flow, because they share capacity.
	link := NewLink(200*Mbps, 0)
	payload := make([]byte, 1<<20)

	oneFlow := transfer(t, link, payload)

	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			transfer(t, link, payload)
		}()
	}
	wg.Wait()
	twoFlows := time.Since(start)

	if twoFlows < oneFlow*3/2 {
		t.Errorf("two flows took %v, one flow %v; expected ~2x", twoFlows, oneFlow)
	}
}

func TestTCPListenerDial(t *testing.T) {
	link := NewLink(0, 0) // unlimited, but still counted
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	shaped := link.Listener(ln)
	defer shaped.Close()

	msg := []byte("hello over shaped tcp")
	recv0 := mBytesRecv.Value()
	go func() {
		c, err := shaped.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.Copy(io.Discard, c)
	}()

	c, err := link.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	c.Close()

	// Client write counts on the client-side wrapper; give the listener
	// side a moment to drain.
	deadline := time.Now().Add(2 * time.Second)
	for mBytesRecv.Value()-recv0 < int64(len(msg)) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if link.BytesSent() < int64(len(msg)) {
		t.Errorf("BytesSent = %d, want >= %d", link.BytesSent(), len(msg))
	}
	if got := mBytesRecv.Value() - recv0; got < int64(len(msg)) {
		t.Errorf("netsim.bytes.recv rose by %d, want >= %d", got, len(msg))
	}
}

func TestDialLatency(t *testing.T) {
	lat := 30 * time.Millisecond
	link := NewLink(0, lat)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err == nil {
			c.Close()
		}
	}()
	start := time.Now()
	c, err := link.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if elapsed := time.Since(start); elapsed < lat {
		t.Errorf("dial took %v, want >= %v latency charge", elapsed, lat)
	}
}

func TestLargeWriteChunking(t *testing.T) {
	// A single Write larger than maxBurst must still deliver everything.
	link := NewLink(0, 0)
	payload := make([]byte, maxBurst*3+17)
	for i := range payload {
		payload[i] = byte(i)
	}
	transfer(t, link, payload)
}
