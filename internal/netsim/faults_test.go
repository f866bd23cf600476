package netsim

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

func TestFaultDialRefusalSchedule(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	link := Unlimited()
	link.SetFaults(&Faults{RefuseDialEvery: 2})
	refused0 := mFaultDialsRefused.Value()
	for i := 1; i <= 4; i++ {
		c, err := link.Dial("tcp", ln.Addr().String())
		if i%2 == 0 {
			if !errors.Is(err, ErrDialRefused) {
				t.Errorf("dial %d: err = %v, want ErrDialRefused", i, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		c.Close()
	}
	if got := mFaultDialsRefused.Value() - refused0; got != 2 {
		t.Errorf("netsim.fault.dials.refused rose by %d, want 2", got)
	}
}

func TestFaultConnKillTruncatesMidFrame(t *testing.T) {
	link := Unlimited()
	link.SetFaults(&Faults{KillConnEvery: 1, KillAfterBytes: 1000})
	killed0, truncated0 := mFaultConnsKilled.Value(), mFaultTruncations.Value()
	client, server := link.Pipe()
	defer client.Close()

	got := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(client)
		got <- b
	}()
	n, err := server.Write(make([]byte, 4096))
	if !errors.Is(err, ErrConnKilled) {
		t.Fatalf("write err = %v, want ErrConnKilled", err)
	}
	if n != 1000 {
		t.Errorf("write admitted %d bytes, want exactly the 1000-byte budget", n)
	}
	// The peer sees the truncated prefix, then EOF — exactly the wire
	// state a crashed storage node leaves behind.
	select {
	case b := <-got:
		if len(b) != 1000 {
			t.Errorf("peer read %d bytes, want 1000", len(b))
		}
	case <-time.After(2 * time.Second):
		t.Fatal("peer read did not complete")
	}
	// The connection stays dead for later writes without recounting.
	if _, err := server.Write([]byte{1}); !errors.Is(err, ErrConnKilled) {
		t.Errorf("write on dead conn = %v, want ErrConnKilled", err)
	}
	if got := mFaultConnsKilled.Value() - killed0; got != 1 {
		t.Errorf("netsim.fault.conns.killed rose by %d, want 1", got)
	}
	if got := mFaultTruncations.Value() - truncated0; got != 1 {
		t.Errorf("netsim.fault.frames.truncated rose by %d, want 1", got)
	}
}

func TestFaultKillTargetsAcceptedSideOnly(t *testing.T) {
	link := Unlimited()
	link.SetFaults(&Faults{KillConnEvery: 1, KillAfterBytes: 100})
	client, server := link.Pipe()
	defer client.Close()
	defer server.Close()

	done := make(chan int, 1)
	go func() {
		n, _ := io.ReadFull(server, make([]byte, 4096))
		done <- n
	}()
	// The dialer side carries requests, not payloads; its writes are
	// never budget-killed.
	if _, err := client.Write(make([]byte, 4096)); err != nil {
		t.Fatalf("dialer-side write = %v, want nil", err)
	}
	select {
	case n := <-done:
		if n != 4096 {
			t.Errorf("server read %d bytes, want 4096", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("server read did not complete")
	}
}

func TestFaultKillAfterTime(t *testing.T) {
	link := Unlimited()
	link.SetFaults(&Faults{KillAfterTime: 20 * time.Millisecond})
	killed0 := mFaultConnsKilled.Value()
	client, server := link.Pipe()
	defer client.Close()

	go io.Copy(io.Discard, client)
	time.Sleep(50 * time.Millisecond)
	if _, err := server.Write([]byte("late")); !errors.Is(err, ErrConnKilled) {
		t.Fatalf("write after lifetime = %v, want ErrConnKilled", err)
	}
	if got := mFaultConnsKilled.Value() - killed0; got != 1 {
		t.Errorf("netsim.fault.conns.killed rose by %d, want 1", got)
	}
}

func TestFaultBudgetJitterDeterministic(t *testing.T) {
	budgets := func(seed int64) []int64 {
		f := &Faults{
			Seed:           seed,
			KillConnEvery:  1,
			KillAfterBytes: 1000,
			JitterBytes:    500,
		}
		out := make([]int64, 8)
		for i := range out {
			cf := f.newConnFaults()
			if !cf.armed {
				t.Fatalf("connection %d not armed with KillConnEvery=1", i+1)
			}
			if cf.budget < 1000 || cf.budget > 1500 {
				t.Fatalf("budget %d outside [1000, 1500]", cf.budget)
			}
			out[i] = cf.budget
		}
		return out
	}
	a, b := budgets(3), budgets(3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at conn %d: %d vs %d", i+1, a[i], b[i])
		}
	}
}

func TestFaultCorruptionFlipsInFlightBytes(t *testing.T) {
	link := Unlimited()
	link.SetFaults(&Faults{CorruptConnEvery: 1, CorruptAfterBytes: 100, CorruptBytes: 4})
	corrupted0 := mFaultCorruptions.Value()
	client, server := link.Pipe()
	defer client.Close()

	want := make([]byte, 1000)
	for i := range want {
		want[i] = byte(i)
	}
	got := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(client)
		got <- b
	}()
	sent := append([]byte(nil), want...)
	if _, err := server.Write(sent); err != nil {
		t.Fatalf("write: %v", err)
	}
	server.Close()

	var b []byte
	select {
	case b = <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("peer read did not complete")
	}
	// The stream's LENGTH survives — corruption is silent, unlike a kill.
	if len(b) != len(want) {
		t.Fatalf("peer read %d bytes, want %d", len(b), len(want))
	}
	// The writer's own buffer must never be touched: the flips happen on
	// a copy, after the rpc layer has handed its frame over.
	for i := range sent {
		if sent[i] != want[i] {
			t.Fatalf("caller buffer mutated at byte %d", i)
		}
	}
	// With no jitter the window is exact: bytes [100,104) flipped, the
	// rest intact.
	for i := range b {
		flipped := b[i] != want[i]
		inWindow := i >= 100 && i < 104
		if flipped != inWindow {
			t.Fatalf("byte %d: flipped=%v, want corruption only in [100,104)", i, flipped)
		}
	}
	if mFaultCorruptions.Value() == corrupted0 {
		t.Error("netsim.fault.corruptions did not advance")
	}
}

// A reply goes out from where its bulk bytes live — a server's cached
// array among them — as pieces (net.Buffers). A corruption window that
// spans two pieces and a burst boundary flips the peer's bytes and leaves
// every piece the writer handed over as it was.
func TestFaultCorruptionLeavesWrittenPiecesIntact(t *testing.T) {
	link := Unlimited()
	const at, flips = maxBurst - 10, maxBurst
	f := &Faults{CorruptConnEvery: 1, CorruptAfterBytes: at, CorruptBytes: flips}
	link.SetFaults(f)
	client, server := link.Pipe()
	defer client.Close()

	head := make([]byte, maxBurst-4)
	bulk := make([]byte, 3*maxBurst)
	for i := range bulk {
		bulk[i] = byte(i * 7)
	}
	want := append(append([]byte(nil), head...), bulk...)
	got := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(client)
		got <- b
	}()
	bufs := net.Buffers{head, bulk}
	if _, err := bufs.WriteTo(server); err != nil {
		t.Fatalf("write: %v", err)
	}
	server.Close()
	b := <-got

	if len(b) != len(want) {
		t.Fatalf("peer read %d bytes, want %d", len(b), len(want))
	}
	for i := range b {
		flipped := b[i] != want[i]
		if inWindow := i >= at && i < at+flips; flipped != inWindow {
			t.Fatalf("peer byte %d: flipped=%v, want corruption only in [%d,%d)", i, flipped, at, at+flips)
		}
	}
	if !bytes.Equal(head, want[:len(head)]) || !bytes.Equal(bulk, want[len(head):]) {
		t.Fatal("a written piece was modified: the flips must land on a copy")
	}
}

func TestFaultCorruptionEveryNthConnection(t *testing.T) {
	link := Unlimited()
	f := &Faults{CorruptConnEvery: 2, CorruptAfterBytes: 0, CorruptBytes: 2}
	link.SetFaults(f)
	for conn := 1; conn <= 4; conn++ {
		client, server := link.Pipe()
		got := make(chan []byte, 1)
		go func() {
			b, _ := io.ReadAll(client)
			got <- b
		}()
		if _, err := server.Write(make([]byte, 64)); err != nil {
			t.Fatalf("conn %d write: %v", conn, err)
		}
		server.Close()
		b := <-got
		client.Close()
		clean := true
		for _, v := range b {
			if v != 0 {
				clean = false
			}
		}
		wantArmed := conn%2 == 1 // connections 1, 3, ...
		if clean == wantArmed {
			t.Errorf("conn %d: corrupted=%v, want %v", conn, !clean, wantArmed)
		}
	}
}

func TestFaultPolicyDetached(t *testing.T) {
	link := Unlimited()
	f := &Faults{RefuseDialEvery: 1, KillConnEvery: 1, KillAfterBytes: 1}
	link.SetFaults(f)
	if link.Faults() != f {
		t.Fatal("Faults() did not return the attached policy")
	}
	link.SetFaults(nil)
	// A detached policy must stop influencing new connections entirely.
	client, server := link.Pipe()
	defer client.Close()
	defer server.Close()
	go io.Copy(io.Discard, client)
	if _, err := server.Write(make([]byte, 64)); err != nil {
		t.Errorf("write after detach = %v, want nil", err)
	}
}
