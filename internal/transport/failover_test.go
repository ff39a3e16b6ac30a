package transport

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netemu"
	"repro/internal/obs"
)

// pathState reads one path's binding state from the module listing.
func pathState(m *Module, id PathID) PathState {
	for _, info := range m.Paths() {
		if info.ID == id {
			return info.State
		}
	}
	return ""
}

// waitState polls until the path reaches the wanted state.
func waitState(t *testing.T, m *Module, id PathID, want PathState) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if got := pathState(m, id); got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("path %s state = %q, want %q", id, pathState(m, id), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// traceKinds collects the set of event kinds seen in the registry trace.
func traceKinds(reg *obs.Registry) map[string]bool {
	kinds := make(map[string]bool)
	for _, e := range reg.Trace().Events() {
		kinds[e.Kind] = true
	}
	return kinds
}

func TestStaticPathDegradesAndRecovers(t *testing.T) {
	reg := obs.NewRegistry()
	n := newNodeOpts(t, nil, "h1", Options{DeliverTimeout: 2 * time.Second, Retry: fastRetry(), Obs: reg})
	src := producer("h1", "camera", "image/jpeg")
	dst := newCollector("h1", "tv", "image/jpeg")
	n.register(t, src)
	n.register(t, dst)

	id, err := n.mod.Connect(portRef(src, "out"), portRef(dst, "in"))
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	src.Emit("out", core.NewMessage("image/jpeg", []byte("ok")))
	dst.wait(t, 2*time.Second)
	if got := pathState(n.mod, id); got != PathBound {
		t.Fatalf("state = %q, want bound", got)
	}

	// Destination unmapped: the static path degrades and deliveries fail
	// fast with the typed error instead of dialing a corpse.
	if _, err := n.dir.RemoveLocal(dst.Profile().ID); err != nil {
		t.Fatalf("RemoveLocal: %v", err)
	}
	waitState(t, n.mod, id, PathDegraded)

	start := time.Now()
	src.Emit("out", core.NewMessage("image/jpeg", []byte("lost")))
	deadline := time.Now().Add(2 * time.Second)
	for {
		if stats, _ := n.mod.PathStats(id); stats.Dropped == 1 {
			break
		}
		if time.Now().After(deadline) {
			stats, _ := n.mod.PathStats(id)
			t.Fatalf("degraded static delivery never dropped: %+v", stats)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Fail-fast means the budget is pure backoff (~150ms with fastRetry),
	// no dial or delivery timeouts.
	if took := time.Since(start); took > time.Second {
		t.Fatalf("degraded static drop took %v, want fast failure", took)
	}
	if !traceKinds(reg)["path_degraded"] {
		t.Fatal("no path_degraded trace event")
	}

	// Destination mapped again: the path recovers and delivers.
	n.register(t, dst)
	waitState(t, n.mod, id, PathBound)
	src.Emit("out", core.NewMessage("image/jpeg", []byte("back")))
	if got := dst.wait(t, 2*time.Second); string(got.Payload) != "back" {
		t.Fatalf("payload after recovery = %q", got.Payload)
	}
	if !traceKinds(reg)["path_recovered"] {
		t.Fatal("no path_recovered trace event")
	}
}

func TestDynamicPathFailsOverToNewCandidate(t *testing.T) {
	reg := obs.NewRegistry()
	n := newNodeOpts(t, nil, "h1", Options{DeliverTimeout: 2 * time.Second, Retry: fastRetry(), Obs: reg})
	src := producer("h1", "camera", "image/jpeg")
	tv1 := newCollector("h1", "tv1", "image/jpeg")
	n.register(t, src)
	n.register(t, tv1)

	id, err := n.mod.ConnectQuery(portRef(src, "out"), core.QueryAccepting("image/jpeg", ""))
	if err != nil {
		t.Fatalf("ConnectQuery: %v", err)
	}
	waitState(t, n.mod, id, PathBound)

	// The only binding disappears: the path enters failing-over.
	if _, err := n.dir.RemoveLocal(tv1.Profile().ID); err != nil {
		t.Fatalf("RemoveLocal: %v", err)
	}
	waitState(t, n.mod, id, PathFailingOver)

	// A message emitted while failing over waits for the rebind budget;
	// a replacement appearing within it receives the message.
	src.Emit("out", core.NewMessage("image/jpeg", []byte("survives")))
	time.Sleep(20 * time.Millisecond)
	tv2 := newCollector("h1", "tv2", "image/jpeg")
	n.register(t, tv2)

	if got := tv2.wait(t, 2*time.Second); string(got.Payload) != "survives" {
		t.Fatalf("payload after failover = %q", got.Payload)
	}
	waitState(t, n.mod, id, PathBound)

	stats, _ := n.mod.PathStats(id)
	if stats.Failovers == 0 {
		t.Fatalf("stats.Failovers = 0 after losing a binding: %+v", stats)
	}
	if !traceKinds(reg)["failover"] || !traceKinds(reg)["path_rebound"] {
		t.Fatalf("missing failover/path_rebound trace events: %v", traceKinds(reg))
	}

	// The failover latency histogram observed the outage window.
	found := false
	for _, h := range reg.Snapshot().Histograms {
		if h.Name == "umiddle_transport_failover_latency_seconds" && h.Count > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("failover latency histogram never observed")
	}
}

func TestDynamicPathDropsAfterBudgetThenRecovers(t *testing.T) {
	reg := obs.NewRegistry()
	n := newNodeOpts(t, nil, "h1", Options{DeliverTimeout: 2 * time.Second, Retry: fastRetry(), Obs: reg})
	src := producer("h1", "camera", "image/jpeg")
	tv1 := newCollector("h1", "tv1", "image/jpeg")
	n.register(t, src)
	n.register(t, tv1)

	id, err := n.mod.ConnectQuery(portRef(src, "out"), core.QueryAccepting("image/jpeg", ""))
	if err != nil {
		t.Fatalf("ConnectQuery: %v", err)
	}
	waitState(t, n.mod, id, PathBound)
	if _, err := n.dir.RemoveLocal(tv1.Profile().ID); err != nil {
		t.Fatalf("RemoveLocal: %v", err)
	}
	waitState(t, n.mod, id, PathFailingOver)

	// No candidate ever appears: the message is dropped once the rebind
	// budget is spent and the path reports degraded.
	src.Emit("out", core.NewMessage("image/jpeg", []byte("doomed")))
	deadline := time.Now().Add(2 * time.Second)
	for {
		if stats, _ := n.mod.PathStats(id); stats.Dropped == 1 {
			break
		}
		if time.Now().After(deadline) {
			stats, _ := n.mod.PathStats(id)
			t.Fatalf("message never dropped after budget: %+v", stats)
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitState(t, n.mod, id, PathDegraded)

	// A late candidate still heals the path for future messages.
	tv2 := newCollector("h1", "tv2", "image/jpeg")
	n.register(t, tv2)
	waitState(t, n.mod, id, PathBound)
	src.Emit("out", core.NewMessage("image/jpeg", []byte("healed")))
	if got := tv2.wait(t, 2*time.Second); string(got.Payload) != "healed" {
		t.Fatalf("payload after heal = %q", got.Payload)
	}
}

// TestReannounceUnderSameIDRebinds: a device that returns under the same
// translator ID with a changed profile is matched against the new
// profile. h2 announces h2/umiddle/tv as "tv-old" to a path searching
// for "tv-new", crashes, and a fresh directory on the restarted host
// registers the same ID as "tv-new": the path binds it.
func TestReannounceUnderSameIDRebinds(t *testing.T) {
	net := netemu.NewNetwork(netemu.Ethernet10Mbps())
	defer net.Close()
	h1 := newNode(t, net, "h1")
	h2 := newNode(t, net, "h2")

	src := producer("h1", "camera", "text/plain")
	h1.register(t, src)
	id, err := h1.mod.ConnectQuery(portRef(src, "out"), core.Query{DeviceType: "tv-new"})
	if err != nil {
		t.Fatalf("ConnectQuery: %v", err)
	}
	old := newOrderedSink("h2", "tv", "tv-old")
	h2.register(t, old)
	waitCond(t, 3*time.Second, func() bool {
		return len(h1.dir.Lookup(core.Query{DeviceType: "tv-old"})) == 1
	})
	if got := pathState(h1.mod, id); got != PathSearching {
		t.Fatalf("path state with only tv-old mapped = %q, want %q", got, PathSearching)
	}

	if _, err := net.CrashNode("h2"); err != nil {
		t.Fatalf("CrashNode: %v", err)
	}
	host, err := net.RestartNode("h2")
	if err != nil {
		t.Fatalf("RestartNode: %v", err)
	}
	h2 = startNode(t, host, "h2")
	tv := newOrderedSink("h2", "tv", "tv-new")
	if tv.Profile().ID != old.Profile().ID {
		t.Fatalf("IDs differ: %s vs %s", tv.Profile().ID, old.Profile().ID)
	}
	h2.register(t, tv)

	waitCond(t, 3*time.Second, func() bool { return pathState(h1.mod, id) == PathBound })
	src.Emit("out", core.NewMessage("text/plain", []byte("rebound")))
	waitCond(t, 3*time.Second, func() bool { return len(tv.snapshot()) == 1 })
}

func TestSourceUnmappedTearsDownPath(t *testing.T) {
	// Satellite regression: removing a translator with live paths rooted
	// at it must tear those paths down deterministically.
	reg := obs.NewRegistry()
	n := newNodeOpts(t, nil, "h1", Options{DeliverTimeout: 2 * time.Second, Retry: fastRetry(), Obs: reg})
	src := producer("h1", "camera", "image/jpeg")
	dst := newCollector("h1", "tv", "image/jpeg")
	n.register(t, src)
	n.register(t, dst)

	staticID, err := n.mod.Connect(portRef(src, "out"), portRef(dst, "in"))
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	dynID, err := n.mod.ConnectQuery(portRef(src, "out"), core.QueryAccepting("image/jpeg", ""))
	if err != nil {
		t.Fatalf("ConnectQuery: %v", err)
	}

	if _, err := n.dir.RemoveLocal(src.Profile().ID); err != nil {
		t.Fatalf("RemoveLocal: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, okStatic := n.mod.PathStats(staticID)
		_, okDyn := n.mod.PathStats(dynID)
		if !okStatic && !okDyn {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("paths outlive their source: static=%v dynamic=%v", okStatic, okDyn)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !traceKinds(reg)["path_source_lost"] {
		t.Fatal("no path_source_lost trace event")
	}
	// The destination survives untouched.
	if _, ok := n.dir.Local(dst.Profile().ID); !ok {
		t.Fatal("destination translator was torn down with the path")
	}
}
