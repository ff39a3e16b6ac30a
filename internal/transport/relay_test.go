package transport

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/netemu"
	"repro/internal/obs"
	"repro/internal/qos"
)

// meshNode stands up a directory + transport pair on a host of an
// existing (possibly segmented) network. relay enables directory advert
// relaying; the transport forwards frames whenever routed ones arrive.
func meshNode(t *testing.T, net *netemu.Network, name string, relay bool) *node {
	t.Helper()
	return meshNodeTTL(t, net, name, relay, 6)
}

// meshNodeTTL is meshNode with an explicit directory advert relay hop
// budget, for meshes wider than meshNode's default covers.
func meshNodeTTL(t *testing.T, net *netemu.Network, name string, relay bool, dirTTL int) *node {
	t.Helper()
	host := net.Host(name)
	if host == nil {
		host = net.MustAddHost(name)
	}
	dir := directory.New(name, host, directory.Options{
		AnnounceInterval: 20 * time.Millisecond,
		Relay:            relay,
		RelayTTL:         dirTTL,
	})
	if err := dir.Start(); err != nil {
		t.Fatalf("directory start: %v", err)
	}
	mod := New(name, host, dir, Options{
		DeliverTimeout: 2 * time.Second,
		DialTimeout:    time.Second,
		Retry:          qos.RetryPolicy{MaxAttempts: 6, BaseDelay: 20 * time.Millisecond},
	})
	if err := mod.Start(); err != nil {
		t.Fatalf("transport start: %v", err)
	}
	t.Cleanup(func() {
		mod.Close()
		dir.Close()
	})
	return &node{name: name, dir: dir, mod: mod}
}

func relayedCount(n *node) uint64 {
	return n.mod.Obs().Counter("umiddle_transport_frames_relayed_total", obs.Labels{"node": n.name}).Value()
}

// TestDeliverAcrossSegments: on a chain a—b—c the source node shares no
// link with the destination; a path bound from a to c must deliver
// through b — the directory supplies the route, b's transport forwards
// the frame, and the middle node's relay counters account for it.
func TestDeliverAcrossSegments(t *testing.T) {
	net, err := netemu.NewMesh(netemu.Unlimited(), netemu.ChainTopology("a", "b", "c"))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	na := meshNode(t, net, "a", false)
	nb := meshNode(t, net, "b", true)
	nc := meshNode(t, net, "c", false)

	src := producer("a", "camera", "image/jpeg")
	dst := newCollector("c", "tv", "image/jpeg")
	na.register(t, src)
	nc.register(t, dst)

	// Discovery itself crosses the boundary via relayed adverts.
	waitFor(t, 3*time.Second, func() bool {
		_, err := na.dir.Resolve(dst.Profile().ID)
		if err != nil {
			return false
		}
		hops, ok := na.dir.Route("c")
		return ok && len(hops) == 1 && hops[0] == "b"
	})

	if _, err := na.mod.Connect(portRef(src, "out"), portRef(dst, "in")); err != nil {
		t.Fatalf("connect across segments: %v", err)
	}
	na.mod.Emit(portRef(src, "out"), core.Message{Type: "image/jpeg", Payload: []byte("frame-1")})
	msg := dst.wait(t, 3*time.Second)
	if string(msg.Payload) != "frame-1" {
		t.Fatalf("payload = %q", msg.Payload)
	}
	if got := relayedCount(nb); got == 0 {
		t.Fatal("middle node forwarded no frames")
	}
	if got := relayedCount(na); got != 0 {
		t.Fatalf("source node counted %d forwards for its own frames", got)
	}
	// Source metadata survives the hops intact.
	if msg.Source != portRef(src, "out") {
		t.Fatalf("source = %v", msg.Source)
	}
}

// TestDeliverAcrossLongChain: a chain with nine relays between source
// and destination. The directory's advert hop budget covers the chain,
// so the route is learned; the deliver frame's hop budget must then
// follow from that route rather than from a fixed default, or the frame
// dies partway along the chain.
func TestDeliverAcrossLongChain(t *testing.T) {
	const relays = 9
	names := make([]string, relays+2)
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i)
	}
	net, err := netemu.NewMesh(netemu.Unlimited(), netemu.ChainTopology(names...))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	nodes := make([]*node, len(names))
	for i, name := range names {
		nodes[i] = meshNodeTTL(t, net, name, i > 0 && i < len(names)-1, 16)
	}
	first, last := nodes[0], nodes[len(nodes)-1]

	src := producer(first.name, "camera", "image/jpeg")
	dst := newCollector(last.name, "tv", "image/jpeg")
	first.register(t, src)
	last.register(t, dst)
	waitFor(t, 10*time.Second, func() bool {
		if _, err := first.dir.Resolve(dst.Profile().ID); err != nil {
			return false
		}
		hops, ok := first.dir.Route(last.name)
		return ok && len(hops) == relays
	})
	if _, err := first.mod.Connect(portRef(src, "out"), portRef(dst, "in")); err != nil {
		t.Fatalf("connect along the chain: %v", err)
	}
	first.mod.Emit(portRef(src, "out"), core.Message{Type: "image/jpeg", Payload: []byte("far")})
	if msg := dst.wait(t, 5*time.Second); string(msg.Payload) != "far" {
		t.Fatalf("payload = %q", msg.Payload)
	}
	for _, n := range nodes[1 : len(nodes)-1] {
		if got := relayedCount(n); got == 0 {
			t.Fatalf("relay %s forwarded no frames", n.name)
		}
	}
}

// TestRelayFailoverDiamond: with two disjoint relay paths a—b—c and
// a—d—c, crashing intermediary b must re-route deliveries through d —
// the route hint heals from the adverts still flowing via d, and the
// retry budget absorbs the transition.
func TestRelayFailoverDiamond(t *testing.T) {
	topo := netemu.Topology{
		"ab": {"a", "b"}, "bc": {"b", "c"},
		"ad": {"a", "d"}, "dc": {"d", "c"},
	}
	net, err := netemu.NewMesh(netemu.Unlimited(), topo)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	na := meshNode(t, net, "a", false)
	meshNode(t, net, "b", true)
	nd := meshNode(t, net, "d", true)
	nc := meshNode(t, net, "c", false)

	src := producer("a", "camera", "image/jpeg")
	dst := newCollector("c", "tv", "image/jpeg")
	na.register(t, src)
	nc.register(t, dst)
	waitFor(t, 3*time.Second, func() bool {
		_, err := na.dir.Resolve(dst.Profile().ID)
		if err != nil {
			return false
		}
		_, ok := na.dir.Route("c")
		return ok
	})
	if _, err := na.mod.Connect(portRef(src, "out"), portRef(dst, "in")); err != nil {
		t.Fatal(err)
	}
	na.mod.Emit(portRef(src, "out"), core.Message{Type: "image/jpeg", Payload: []byte("before")})
	dst.wait(t, 3*time.Second)

	if _, err := net.CrashNode("b"); err != nil {
		t.Fatal(err)
	}
	// The b route (if that is the one in use) stops delivering adverts;
	// equal-length d routes take over within an announce interval or two.
	waitFor(t, 3*time.Second, func() bool {
		hops, ok := na.dir.Route("c")
		return ok && len(hops) == 1 && hops[0] == "d"
	})
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; ; i++ {
		na.mod.Emit(portRef(src, "out"), core.Message{
			Type: "image/jpeg", Payload: []byte(fmt.Sprintf("after-%d", i)),
			Headers: map[string]string{"phase": "after"},
		})
		got := func() bool {
			for {
				select {
				case m := <-dst.ch:
					if m.Headers["phase"] == "after" {
						return true
					}
				case <-time.After(200 * time.Millisecond):
					return false
				}
			}
		}()
		if got {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no delivery through the surviving relay after crashing b")
		}
	}
	if got := relayedCount(nd); got == 0 {
		t.Fatal("surviving relay d forwarded no frames")
	}
}

// TestWireRouteRoundtrip: the binary deliver codec carries the relay
// section when present — and frames encoded without one (the entire
// pre-relay corpus) still decode, with no route.
func TestWireRouteRoundtrip(t *testing.T) {
	routed := deliverFrame("a", core.PortRef{Translator: "c/umiddle/tv", Port: "in"}, core.Message{
		Type: "image/jpeg", Payload: []byte("px"),
		Source: core.PortRef{Translator: "a/umiddle/cam", Port: "out"},
		Seq:    7,
	})
	routed.header.Route = []string{"b", "c"}
	routed.header.TTL = 5
	routed.header.RelayID = 99

	plain := deliverFrame("a", core.PortRef{Translator: "b/umiddle/tv", Port: "in"}, core.Message{
		Type: "text/plain", Payload: []byte("hi"),
	})

	for _, tc := range []struct {
		name string
		f    frame
	}{{"routed", routed}, {"plain", plain}} {
		data, err := encodeFrame(tc.f)
		if err != nil {
			t.Fatalf("%s: encode: %v", tc.name, err)
		}
		got, err := readFrameFrom(bytes.NewReader(data), nil)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		if fmt.Sprint(got.header.Route) != fmt.Sprint(tc.f.header.Route) ||
			got.header.TTL != tc.f.header.TTL ||
			got.header.RelayID != tc.f.header.RelayID ||
			got.header.Dst != tc.f.header.Dst ||
			string(got.payload) != string(tc.f.payload) {
			t.Fatalf("%s: roundtrip mismatch: %+v vs %+v", tc.name, got.header, tc.f.header)
		}
		got.release()
	}
	if plainRoute := plain.header.Route; plainRoute != nil {
		t.Fatal("plain frame grew a route")
	}
}

// TestRelayWindow exercises the duplicate-suppression window.
func TestRelayWindow(t *testing.T) {
	w := &relayWindow{}
	if !w.observe(10) || w.observe(10) {
		t.Fatal("first/dup handling broken")
	}
	if !w.observe(12) || !w.observe(11) || w.observe(11) {
		t.Fatal("in-window reordering broken")
	}
	if !w.observe(100) || w.observe(36) || !w.observe(37) {
		t.Fatal("window slide broken")
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not met in time")
}
