package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/netemu"
	"repro/umiddle"
)

const payloadType core.DataType = "application/octet-stream"

// retry is generous in attempts and short in delay: a probe emitted the
// moment its device reappears polls for the rebind every few
// milliseconds instead of sleeping through it, and the budget (~2 s)
// outlasts every rebind and restart the workloads cause.
var retry = umiddle.RetryPolicy{MaxAttempts: 200, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond, Multiplier: 2}

type nodeOpts struct {
	persist   string // WAL path on the node's emulated disk
	aggregate bool   // one set of path metrics for the node (for tens of thousands of paths)
	expiry    int    // lease expiry factor (0 = default)
	announce  time.Duration
}

func newNode(net *netemu.Network, name string, o nodeOpts) (*umiddle.Runtime, error) {
	return umiddle.NewRuntime(umiddle.RuntimeConfig{
		Node:             name,
		Network:          net,
		AnnounceInterval: o.announce,
		PersistPath:      o.persist,
		Lease:            umiddle.LeasePolicy{ExpiryFactor: o.expiry},
		Transport: umiddle.TransportOptions{
			DisablePathMetrics: o.aggregate,
			DeliverTimeout:     5 * time.Second,
			DialTimeout:        2 * time.Second,
			Retry:              retry,
			Redial:             retry,
		},
	})
}

func sinkBase(node, name, devType string, t core.DataType, h core.InputHandler) *core.Base {
	b := core.MustBase(core.Profile{
		ID:         core.MakeTranslatorID(node, "umiddle", name),
		Name:       name,
		Platform:   "umiddle",
		DeviceType: devType,
		Node:       node,
		Shape:      core.MustShape(core.Port{Name: "in", Kind: core.Digital, Direction: core.Input, Type: t}),
	})
	b.MustHandle("in", h)
	return b
}

func sourceBase(node, name string, t core.DataType) *core.Base {
	return core.MustBase(core.Profile{
		ID:       core.MakeTranslatorID(node, "umiddle", name),
		Name:     name,
		Platform: "umiddle",
		Node:     node,
		Shape:    core.MustShape(core.Port{Name: "out", Kind: core.Digital, Direction: core.Output, Type: t}),
	})
}

func out(b *core.Base) core.PortRef { return core.PortRef{Translator: b.ID(), Port: "out"} }

// register times one Register (the directory's AddLocal) as a span.
func register(rt *umiddle.Runtime, b core.Translator, tr *tracer, parent int) error {
	_, end := tr.begin("directory.add_local", string(b.Profile().ID), parent)
	err := rt.Register(b)
	end()
	return err
}

// waitFor polls cond every millisecond until it holds or timeout passes.
func waitFor(what string, timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v waiting for %s", timeout, what)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// ---------------------------------------------------------------------
// Directory watch.

// watch records when a node's directory listener hears a translator
// come and go, keyed by a caller-chosen function of the profile (the ID
// for native sinks, the name for mapped lights whose IDs change).
type watch struct {
	key     func(core.Profile) string
	mu      sync.Mutex
	keyOf   map[core.TranslatorID]string
	waiters map[string]chan time.Time
}

func newWatch(rt *umiddle.Runtime, key func(core.Profile) string) *watch {
	w := &watch{key: key, keyOf: map[core.TranslatorID]string{}, waiters: map[string]chan time.Time{}}
	rt.OnMapped(func(p core.Profile) { w.fire("+"+w.remember(p), time.Now()) })
	rt.OnUnmapped(func(id core.TranslatorID) {
		at := time.Now()
		w.mu.Lock()
		k, ok := w.keyOf[id]
		delete(w.keyOf, id)
		w.mu.Unlock()
		if ok {
			w.fire("-"+k, at)
		}
	})
	return w
}

func (w *watch) remember(p core.Profile) string {
	k := w.key(p)
	w.mu.Lock()
	w.keyOf[p.ID] = k
	w.mu.Unlock()
	return k
}

func (w *watch) fire(k string, at time.Time) {
	w.mu.Lock()
	ch := w.waiters[k]
	delete(w.waiters, k)
	w.mu.Unlock()
	if ch != nil {
		ch <- at
	}
}

// expect arms a one-shot waiter for key k mapping (mapped=true) or
// unmapping; arm it before causing the event.
func (w *watch) expect(k string, mapped bool) <-chan time.Time {
	if mapped {
		k = "+" + k
	} else {
		k = "-" + k
	}
	ch := make(chan time.Time, 1)
	w.mu.Lock()
	w.waiters[k] = ch
	w.mu.Unlock()
	return ch
}

func await(ch <-chan time.Time, what string, timeout time.Duration) (time.Time, error) {
	select {
	case at := <-ch:
		return at, nil
	case <-time.After(timeout):
		return time.Time{}, fmt.Errorf("timed out after %v waiting for %s", timeout, what)
	}
}

// ---------------------------------------------------------------------
// Open-loop traffic.

// traffic is one workload's message load: binding i emits srcs[i]'s
// pre-built payload, and the sink built by handler(i) checks it.
type traffic struct {
	srcs     []*core.Base
	payloads [][]byte
	audit    *audit
	seen     atomic.Uint64 // sink invocations, correct or not
	last     atomic.Int64  // UnixNano of the latest sink invocation
	rec      atomic.Pointer[recorder]
	origin   atomic.Int64 // UnixNano of the current window's start
	tr       atomic.Pointer[tracer]
}

func newTraffic(n, payloadBytes int) *traffic {
	tf := &traffic{srcs: make([]*core.Base, n), payloads: make([][]byte, n), audit: newAudit(n)}
	for i := range tf.payloads {
		tf.payloads[i] = makePayload(i, payloadBytes)
	}
	return tf
}

// traceEvery samples one message in this many for message spans.
const traceEvery = 16

func (tf *traffic) handler(b int) core.InputHandler {
	return func(_ context.Context, msg core.Message) error {
		now := time.Now()
		tf.seen.Add(1)
		tf.last.Store(now.UnixNano())
		if tf.audit.deliver(b, msg.Payload, msg.Seq) {
			if r := tf.rec.Load(); r != nil {
				r.record(msg.Time.Sub(time.Unix(0, tf.origin.Load())), now.Sub(msg.Time))
			}
			if t := tf.tr.Load(); t != nil && msg.Seq%traceEvery == 0 {
				t.add("message", fmt.Sprintf("b%d/s%d", b, msg.Seq), 0, msg.Time, now)
			}
		}
		return nil
	}
}

// warm emits one message per binding and waits for all of them, so
// every path is bound and every connection open before a window.
func (tf *traffic) warm(timeout time.Duration) error {
	want := tf.seen.Load() + uint64(len(tf.srcs))
	for i, s := range tf.srcs {
		tf.audit.attempted.Add(1)
		s.Emit("out", core.Message{Type: payloadType, Payload: tf.payloads[i], Time: time.Now()})
	}
	return waitFor("warm-up deliveries", timeout, func() bool { return tf.seen.Load() >= want })
}

type windowStats struct {
	sent, delivered uint64
	elapsed, cpu    time.Duration
	lateMs          []float64
	p50, p99        float64
	samples         int
	allocBytes      uint64
	gcs             uint32
	goroutines      int
}

func (w windowStats) cpuUsPerMsg() float64 {
	if w.delivered == 0 {
		return 0
	}
	return float64(w.cpu) / float64(time.Microsecond) / float64(w.delivered)
}

// window offers the open-loop schedule for dur, runs during alongside
// it (closed when emission ends), and drains. Emitter w owns bindings
// b%workers == w, so one binding's messages leave from one goroutine in
// Seq order.
func (tf *traffic) window(seed int64, rate float64, dur time.Duration, tr *tracer, during func(stop <-chan struct{})) windowStats {
	workers := min(runtime.NumCPU(), len(tf.srcs))
	scheds := make([][]arrival, workers)
	lates := make([][]float64, workers)
	total := 0
	for w := range scheds {
		scheds[w] = schedule(seed, w, workers, rate, dur, len(tf.srcs))
		lates[w] = make([]float64, len(scheds[w]))
		total += len(scheds[w])
	}
	rec := newRecorder(total + 1024)
	tf.rec.Store(rec)
	tf.tr.Store(tr)
	defer tf.tr.Store(nil)

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	seen0 := tf.seen.Load()
	correct0 := tf.audit.correct.Load()
	start := time.Now()
	tf.origin.Store(start.UnixNano())
	cpu0 := cpuTime()

	stop := make(chan struct{})
	var side sync.WaitGroup
	if during != nil {
		side.Add(1)
		go func() { defer side.Done(); during(stop) }()
	}
	var wg sync.WaitGroup
	for w := range scheds {
		wg.Add(1)
		go func(sched []arrival, late []float64) {
			defer wg.Done()
			for k, a := range sched {
				due := start.Add(a.at)
				if d := time.Until(due); d > 100*time.Microsecond {
					time.Sleep(d)
				}
				src := tf.srcs[a.binding]
				msg := core.Message{Type: payloadType, Payload: tf.payloads[a.binding], Time: due}
				if tr != nil && k%traceEvery == 0 {
					t0 := time.Now()
					src.Emit("out", msg)
					tr.add("transport.emit", "", 0, t0, time.Now())
					late[k] = float64(t0.Sub(due)) / 1e6
				} else {
					late[k] = float64(time.Since(due)) / 1e6
					src.Emit("out", msg)
				}
			}
		}(scheds[w], lates[w])
	}
	wg.Wait()
	close(stop)
	side.Wait()
	sent := uint64(total)
	tf.audit.attempted.Add(sent)

	// Drain: every message produced one sink invocation, or the sinks
	// have gone quiet for a second (what is missing then is lost).
	drainEnd := time.Now().Add(30 * time.Second)
	for tf.seen.Load()-seen0 < sent && time.Now().Before(drainEnd) {
		if time.Since(time.Unix(0, tf.last.Load())) > time.Second {
			break
		}
		time.Sleep(time.Millisecond)
	}
	ws := windowStats{sent: sent, elapsed: time.Since(start), cpu: cpuTime() - cpu0}
	runtime.ReadMemStats(&ms1)
	ws.delivered = tf.audit.correct.Load() - correct0
	ws.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	ws.gcs = ms1.NumGC - ms0.NumGC
	ws.goroutines = runtime.NumGoroutine()
	tf.rec.Store(nil)
	ws.p50, ws.p99, ws.samples = rec.latencyMs()
	for _, l := range lates {
		ws.lateMs = append(ws.lateMs, l...)
	}
	return ws
}

// ---------------------------------------------------------------------
// Rebind probes.

// probes are extra bindings that carry no load: a rebind event makes
// one probe's sink appear and times a probe message stamped with that
// moment until it is delivered.
type probes struct {
	srcs  []*core.Base
	audit *audit
	hit   []chan time.Time
}

func newProbes(n int) *probes {
	p := &probes{srcs: make([]*core.Base, n), audit: newAudit(n), hit: make([]chan time.Time, n)}
	for i := range p.hit {
		// Room for stray duplicates: the audit counts them, and a full
		// channel would stall the delivery worker instead.
		p.hit[i] = make(chan time.Time, 16)
	}
	return p
}

func (p *probes) handler(i int) core.InputHandler {
	return func(_ context.Context, msg core.Message) error {
		now := time.Now()
		p.audit.deliver(i, msg.Payload, msg.Seq)
		p.hit[i] <- now
		return nil
	}
}

// rebinds collects the times of a run's rebind events, in ms.
type rebinds struct {
	mu    sync.Mutex
	total []float64
}

func (r *rebinds) add(d time.Duration) {
	r.mu.Lock()
	r.total = append(r.total, float64(d)/1e6)
	r.mu.Unlock()
}

// appear registers probe i's sink for the first time; its dynamic
// binding has been searching since set-up. The probe is emitted as soon
// as the source's node hears of the sink (an unbound path drops what it
// is given) but is stamped with the registration instant.
func (p *probes) appear(i int, home *umiddle.Runtime, w *watch, sink *core.Base, tr *tracer, rb *rebinds) error {
	back := w.expect(string(sink.ID()), true)
	t0 := time.Now()
	ev, end := tr.begin("rebind", fmt.Sprintf("probe%d@%d", i, t0.UnixNano()), 0)
	if err := register(home, sink, tr, ev); err != nil {
		return err
	}
	heard, err := await(back, "probe mapped at source", 10*time.Second)
	if err != nil {
		return err
	}
	p.srcs[i].Emit("out", core.Message{Type: payloadType, Payload: makePayload(i, 8), Time: t0})
	p.audit.attempted.Add(1)
	got, err := await(p.hit[i], "probe delivery", 10*time.Second)
	if err != nil {
		return err
	}
	end()
	tr.add("directory.remote_mapped", "", ev, t0, heard)
	rb.add(got.Sub(t0))
	return nil
}
