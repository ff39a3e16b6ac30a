package transport

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/netemu"
	"repro/internal/qos"
)

// connPair builds two frameConns over an emulated connection.
func connPair(t *testing.T) (*frameConn, *frameConn) {
	t.Helper()
	n := netemu.NewNetwork(netemu.Unlimited())
	t.Cleanup(func() { n.Close() })
	h1, h2 := n.MustAddHost("a"), n.MustAddHost("b")
	l, err := h2.Listen(7000)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		accepted <- c
	}()
	client, err := h1.Dial(context.Background(), "b:7000")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	server := <-accepted
	return newFrameConn(client), newFrameConn(server)
}

func TestFrameRoundTrip(t *testing.T) {
	a, b := connPair(t)
	msg := core.NewMessage("image/jpeg", []byte("payload-bytes")).
		WithHeader("k", "v")
	msg.Seq = 42
	msg.Source = core.PortRef{Translator: "n/x/1", Port: "out"}
	f := deliverFrame("node-a", core.PortRef{Translator: "n/x/2", Port: "in"}, msg)
	if err := a.write(f); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := b.read()
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.header.Type != frameDeliver || got.header.From != "node-a" {
		t.Fatalf("header = %+v", got.header)
	}
	m := got.message()
	if m.Type != "image/jpeg" || !bytes.Equal(m.Payload, msg.Payload) ||
		m.Seq != 42 || m.Header("k") != "v" || m.Source != msg.Source {
		t.Fatalf("message = %+v", m)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	a, b := connPair(t)
	if err := a.write(frame{header: frameHeader{Type: frameHello, From: "x"}}); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := b.read()
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.header.Type != frameHello || got.payload != nil {
		t.Fatalf("frame = %+v", got)
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	a, _ := connPair(t)
	big := frame{
		header:  frameHeader{Type: frameDeliver},
		payload: make([]byte, maxFrameSize+1),
	}
	if err := a.write(big); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestFrameSequenceProperty(t *testing.T) {
	// Any sequence of frames with arbitrary payloads survives the wire
	// in order.
	a, b := connPair(t)
	f := func(payloads [][]byte) bool {
		if len(payloads) > 16 {
			payloads = payloads[:16]
		}
		go func() {
			for i, p := range payloads {
				a.write(frame{ //nolint:errcheck
					header:  frameHeader{Type: frameDeliver, Seq: uint64(i)},
					payload: p,
				})
			}
		}()
		for i, want := range payloads {
			got, err := b.read()
			if err != nil {
				return false
			}
			if got.header.Seq != uint64(i) {
				return false
			}
			if len(want) == 0 {
				if len(got.payload) != 0 {
					return false
				}
				continue
			}
			if !bytes.Equal(got.payload, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPathIDNode(t *testing.T) {
	if PathID("h1#3").node() != "h1" {
		t.Fatal("node extraction failed")
	}
	if PathID("bare").node() != "" {
		t.Fatal("bare path id should have no node")
	}
}

func TestPartitionMidPathRecordsErrors(t *testing.T) {
	// Failure injection: a cross-node path whose link goes down keeps
	// the path alive, counts delivery errors, and resumes after heal.
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	h1 := newNode(t, net, "h1")
	h2 := newNode(t, net, "h2")
	src := producer("h1", "src", "text/plain")
	dst := newCollector("h2", "dst", "text/plain")
	h1.register(t, src)
	h2.register(t, dst)
	deadline := time.Now().Add(3 * time.Second)
	for len(h1.dir.Lookup(core.Query{NameContains: "dst"})) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("h1 never saw dst")
		}
		time.Sleep(10 * time.Millisecond)
	}
	id, err := h1.mod.Connect(portRef(src, "out"), portRef(dst, "in"))
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	src.Emit("out", core.TextMessage("before"))
	dst.wait(t, 3*time.Second)

	net.SetLinkDown("h1", "h2", true)
	src.Emit("out", core.TextMessage("during"))
	deadline = time.Now().Add(3 * time.Second)
	for {
		stats, _ := h1.mod.PathStats(id)
		if stats.Errors >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no delivery error recorded: %+v", stats)
		}
		time.Sleep(20 * time.Millisecond)
	}

	net.SetLinkDown("h1", "h2", false)
	// The broken peer connection is discarded; a new emission redials.
	deadline = time.Now().Add(5 * time.Second)
	for dst.count() < 2 {
		src.Emit("out", core.TextMessage("after"))
		if time.Now().After(deadline) {
			t.Fatal("delivery never resumed after heal")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestQoSByteRateLimiting(t *testing.T) {
	n := newNode(t, nil, "h1")
	src := producer("h1", "src", "text/plain")
	dst := newCollector("h1", "dst", "text/plain")
	n.register(t, src)
	n.register(t, dst)
	// 10 kB/s (burst = one second's worth): fifteen 1 kB messages
	// exceed the burst by 5 kB, so the tail is paced for >= ~400ms.
	_, err := n.mod.ConnectClass(portRef(src, "out"), portRef(dst, "in"), qos.Class{
		RateBytesPerSec: 10_000,
		BufferCapacity:  32,
	})
	if err != nil {
		t.Fatalf("ConnectClass: %v", err)
	}
	payload := make([]byte, 1000)
	start := time.Now()
	const count = 15
	for i := 0; i < count; i++ {
		src.Emit("out", core.NewMessage("text/plain", payload))
	}
	for i := 0; i < count; i++ {
		dst.wait(t, 5*time.Second)
	}
	if elapsed := time.Since(start); elapsed < 400*time.Millisecond {
		t.Fatalf("15 kB at 10 kB/s (10 kB burst) took %v, want >= 400ms", elapsed)
	}
}

func TestRemoteConnectCarriesQoSClass(t *testing.T) {
	// A QoS class attached to a remotely forwarded connect request is
	// applied on the owning node: LatestOnly drops stale messages there.
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	h1 := newNode(t, net, "h1")
	h2 := newNode(t, net, "h2")
	src := producer("h1", "src", "text/plain")
	slow := newCollector("h2", "slow", "text/plain")
	h1.register(t, src)
	h2.register(t, slow)
	deadline := time.Now().Add(3 * time.Second)
	for len(h2.dir.Lookup(core.Query{NameContains: "src"})) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("h2 never saw src")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// h1 installs the path and resolves the destination in its own
	// directory, where an unknown destination fails at once.
	waitFor(t, 3*time.Second, func() bool {
		_, err := h1.dir.Resolve(slow.Profile().ID)
		return err == nil
	})
	// Issue the class-carrying connect from h2 (source lives on h1).
	id, err := h2.mod.ConnectClass(portRef(src, "out"), portRef(slow, "in"), qos.Class{
		Policy: qos.LatestOnly,
	})
	if err != nil {
		t.Fatalf("remote ConnectClass: %v", err)
	}
	for i := 0; i < 50; i++ {
		src.Emit("out", core.TextMessage(fmt.Sprintf("%d", i)))
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		stats, ok := h1.mod.PathStats(id)
		if ok && stats.Buffer.Dropped > 0 && stats.Buffer.HighWater == 1 {
			break
		}
		if time.Now().After(deadline) {
			stats, _ := h1.mod.PathStats(id)
			t.Fatalf("LatestOnly class not applied remotely: %+v", stats)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
