package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/netemu"
	"repro/umiddle"
)

// Workload sizes. The rates sit well under this kind of host's
// saturation (an open loop measures cost and delay, not peak rate).
const (
	streamPaths   = 4
	streamPayload = 1400 // the paper's Figure 11 message size
	streamRate    = 50_000

	bindingsN       = 20_000
	bindingsPayload = 64
	bindingsRate    = 10_000

	// rebindEvents is how many probe sinks appear after the window:
	// enough for rebind_p90_ms to have ten events beyond it.
	rebindEvents = 100
)

// setupRepeated builds the system n times, tearing down all but the
// last. It returns the last, records every set-up time in the detail
// line and the median as setup_s.
func setupRepeated[T any](res *result, n int, tr *tracer, build func(tr *tracer, parent int) (T, error), teardown func(T)) (T, error) {
	var sys T
	var times []float64
	for k := 0; k < n; k++ {
		if k > 0 {
			teardown(sys)
			runtime.GC()
		}
		parent, end := tr.begin("setup", fmt.Sprintf("setup%d", k), 0)
		start := time.Now()
		var err error
		sys, err = build(tr, parent)
		if err != nil {
			return sys, fmt.Errorf("set-up %d: %w", k, err)
		}
		times = append(times, time.Since(start).Seconds())
		end()
	}
	res.e2e["setup_s"] = median(times)
	res.info["setup_s_each"] = times
	return sys, nil
}

// heapMB is the live heap after a forced GC, the least of three
// samples 100 ms apart, so garbage still held by a background exchange
// in flight at one instant does not count.
func heapMB() float64 {
	least := 0.0
	for k := 0; k < 3; k++ {
		if k > 0 {
			time.Sleep(100 * time.Millisecond)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if mb := float64(ms.HeapAlloc) / 1e6; k == 0 || mb < least {
			least = mb
		}
	}
	return least
}

// measure runs the traffic window. Untraced, the whole window feeds the
// end-to-end metrics. Traced, the first half runs without spans and the
// second with them, and the difference is the tracing overhead.
//
// during, when set, runs alongside each window with the window's length
// and a stop channel closed when emission ends.
func measure(cfg runCfg, tf *traffic, rate float64, res *result, tr *tracer, during func(stop <-chan struct{}, dur time.Duration, tr *tracer)) {
	side := func(dur time.Duration, t *tracer) func(<-chan struct{}) {
		if during == nil {
			return nil
		}
		return func(stop <-chan struct{}) { during(stop, dur, t) }
	}
	if !cfg.trace {
		ws := tf.window(cfg.seed, rate, cfg.seconds, nil, side(cfg.seconds, nil))
		res.e2e["latency_p50_ms"] = ws.p50
		res.e2e["cpu_us_per_msg"] = ws.cpuUsPerMsg()
		res.info["window"] = windowInfo(ws)
		return
	}
	half := cfg.seconds / 2
	plain := tf.window(cfg.seed, rate, half, nil, side(half, nil))
	traced := tf.window(cfg.seed+1, rate, half, tr, side(half, tr))
	res.layer["trace.overhead_cpu_us_per_msg"] = traced.cpuUsPerMsg() - plain.cpuUsPerMsg()
	res.layer["trace.overhead_latency_p50_ms"] = traced.p50 - plain.p50
	res.layer["load.late_p99_ms"] = quantile(traced.lateMs, 0.99)
	if traced.delivered > 0 {
		res.layer["go.alloc_bytes_per_msg"] = float64(traced.allocBytes) / float64(traced.delivered)
	}
	res.layer["go.gc_cycles"] = float64(traced.gcs)
	res.layer["go.goroutines"] = float64(traced.goroutines)
	res.info["window_untraced"] = windowInfo(plain)
	res.info["window_traced"] = windowInfo(traced)
}

func windowInfo(ws windowStats) map[string]any {
	return map[string]any{
		"sent": ws.sent, "delivered": ws.delivered, "latency_samples": ws.samples,
		"latency_p99_ms": ws.p99,
		"elapsed_s":      ws.elapsed.Seconds(), "cpu_s": ws.cpu.Seconds(),
		"late_p99_ms": quantile(ws.lateMs, 0.99),
	}
}

// spanLayers fills the per-layer metrics that come from span durations.
func spanLayers(res *result, tr *tracer) {
	us, ms := time.Microsecond, time.Millisecond
	emit := tr.durations("transport.emit", us)
	res.layer["transport.emit_us_p50"] = quantile(emit, 0.5)
	res.layer["transport.emit_us_p99"] = quantile(emit, 0.99)
	conn := tr.durations("transport.connect", us)
	res.layer["transport.connect_us_p50"] = quantile(conn, 0.5)
	res.layer["transport.connect_us_p99"] = quantile(conn, 0.99)
	res.layer["directory.add_local_us_p50"] = median(tr.durations("directory.add_local", us))
	res.layer["directory.lookup_us_p50"] = median(tr.durations("directory.lookup", us))
	res.layer["directory.remote_mapped_ms_p50"] = median(tr.durations("directory.remote_mapped", ms))
	res.layer["directory.snapshot_ms"] = median(tr.durations("directory.snapshot", ms))
	res.layer["mapper.map_ms_p50"] = median(tr.durations("mapper.map", ms))
	res.layer["mapper.unmap_ms_p50"] = median(tr.durations("mapper.unmap", ms))
	res.layer["wal.replay_ms"] = median(tr.durations("wal.replay", ms))
}

// nodeLayers fills the per-layer metrics read from a node's own
// counters: its paths' PathStats and its obs registry.
func nodeLayers(res *result, rt *umiddle.Runtime, paths []umiddle.PathID, aggregate bool) {
	var failovers, retries, dropped uint64
	high := 0
	for k, id := range paths {
		st, ok := rt.PathStats(id)
		if !ok {
			continue
		}
		high = max(high, st.Buffer.HighWater)
		// Aggregated path metrics report node-wide totals on every path.
		if !aggregate || k == 0 {
			failovers += st.Failovers
			retries += st.Retries
			dropped += st.Dropped
		}
	}
	res.layer["transport.failovers"] = float64(failovers)
	res.layer["transport.retries"] = float64(retries)
	res.layer["transport.dropped"] = float64(dropped)
	res.layer["qos.buffer_high_water"] = float64(high)

	counters := map[string]float64{}
	for _, c := range rt.MetricsSnapshot().Counters {
		if c.Labels["node"] == rt.Node() {
			counters[c.Name] += float64(c.Value)
		}
	}
	hits := counters["umiddle_directory_query_cache_hits_total"]
	misses := counters["umiddle_directory_query_cache_misses_total"]
	res.layer["directory.query_cache_hit_ratio"] = 0
	if hits+misses > 0 {
		res.layer["directory.query_cache_hit_ratio"] = hits / (hits + misses)
	}
}

// advertBytesPerEntry is the profile-carrying advert bytes a node has
// integrated, per remote entry it holds.
func advertBytesPerEntry(rt *umiddle.Runtime) float64 {
	_, remote := rt.Internal().Directory().Size()
	if remote == 0 {
		return 0
	}
	var bytes float64
	for _, c := range rt.MetricsSnapshot().Counters {
		if c.Name == "umiddle_directory_advert_bytes_integrated_total" && c.Labels["node"] == rt.Node() {
			bytes += float64(c.Value)
		}
	}
	return bytes / float64(remote)
}

// netemuPump pushes count frames of the given size through one bare
// netemu stream connection with no middleware on either end: the
// emulator's own share of the per-message cost.
func netemuPump(res *result, link netemu.LinkProfile, frame, count int) error {
	net := netemu.NewNetwork(link)
	defer net.Close()
	a, b := net.MustAddHost("pump-a"), net.MustAddHost("pump-b")
	l, err := b.Listen(7000)
	if err != nil {
		return err
	}
	type readOut struct {
		took time.Duration
		err  error
	}
	done := make(chan readOut, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			done <- readOut{err: err}
			return
		}
		defer c.Close()
		buf := make([]byte, frame)
		var took time.Duration
		for i := 0; i < count; i++ {
			t0 := time.Now()
			if _, err := io.ReadFull(c, buf); err != nil {
				done <- readOut{err: err}
				return
			}
			took += time.Since(t0)
		}
		done <- readOut{took: took}
	}()
	c, err := a.Dial(context.Background(), "pump-b:7000")
	if err != nil {
		return err
	}
	defer c.Close()
	buf := makePayload(0, frame)
	cpu0 := cpuTime()
	var wrote time.Duration
	for i := 0; i < count; i++ {
		t0 := time.Now()
		if _, err := c.Write(buf); err != nil {
			return err
		}
		wrote += time.Since(t0)
	}
	r := <-done
	if r.err != nil {
		return r.err
	}
	cpu := cpuTime() - cpu0
	n := float64(count)
	res.layer["netemu.write_us"] = float64(wrote) / float64(time.Microsecond) / n
	res.layer["netemu.read_us"] = float64(r.took) / float64(time.Microsecond) / n
	res.layer["netemu.cpu_us_per_frame"] = float64(cpu) / float64(time.Microsecond) / n
	return nil
}

// frameOverhead approximates the transport's per-message frame header,
// so the bare pump moves frames of the size the middleware writes.
const frameOverhead = 64

// start opens a run: the result, and with tracing the tracer plus the
// bare netemu pump. The pump runs first, in a process with nothing else
// in it yet, and carries the window's message count of frames (at most
// 200k, and at most one second of wire time on a shaped link).
func start(cfg runCfg, link netemu.LinkProfile, payload int, rate float64) (*result, *tracer, error) {
	res := newResult()
	if !cfg.trace {
		return res, nil, nil
	}
	tr := newTracer()
	res.spans = tr
	frame := payload + frameOverhead
	n := min(int(rate*cfg.seconds.Seconds()), 200_000)
	if link.BandwidthBPS > 0 {
		n = min(n, int(link.BandwidthBPS/8)/frame)
	}
	if err := netemuPump(res, link, frame, n); err != nil {
		return nil, nil, fmt.Errorf("netemu pump: %w", err)
	}
	return res, tr, nil
}

// ---------------------------------------------------------------------
// stream and bindings.

func runStream(cfg runCfg) (*result, error) {
	// Set-up here is ~10 ms, and whether the sinks' adverts leave in one
	// 5 ms coalescing window or two flips from one set-up to the next;
	// the median of 21 stays in the common case.
	return runPair(cfg, pairSpec{bindings: streamPaths, payload: streamPayload, probes: rebindEvents}, streamRate, 21)
}

func runBindings(cfg runCfg) (*result, error) {
	return runPair(cfg, pairSpec{bindings: bindingsN, payload: bindingsPayload, dynamic: true, probes: rebindEvents, aggregate: true}, bindingsRate, 5)
}

// runPair runs a two-node workload: repeated set-up, the traffic
// window, then the probe sinks appear once the directory is idle again.
func runPair(cfg runCfg, spec pairSpec, rate float64, setups int) (*result, error) {
	res, tr, err := start(cfg, netemu.Unlimited(), spec.payload, rate)
	if err != nil {
		return nil, err
	}
	p, err := setupRepeated(res, setups, tr, func(tr *tracer, parent int) (*pair, error) {
		return buildPair(netemu.NewNetwork(netemu.Unlimited()), spec, tr, parent)
	}, func(p *pair) { p.close(); p.net.Close() })
	if err != nil {
		return nil, err
	}
	defer p.net.Close()
	defer p.close()
	if err := p.tf.warm(60 * time.Second); err != nil {
		return nil, err
	}
	res.e2e["heap_mb"] = heapMB()
	measure(cfg, p.tf, rate, res, tr, nil)
	rb, err := p.rebindPhase(cfg.seed, tr)
	if err != nil {
		return nil, err
	}
	res.e2e["rebind_p50_ms"] = quantile(rb.total, 0.5)
	res.info["rebind_p90_ms"] = quantile(rb.total, 0.9)
	res.info["rebind_events"] = len(rb.total)

	res.attempted = p.tf.audit.attempted.Load() + p.pr.audit.attempted.Load()
	res.info["audit"] = p.tf.audit.counts()
	res.failed = p.tf.audit.failed() + p.pr.audit.failed()
	res.layer["netemu.group_drops"] = float64(p.net.GroupDrops())
	if cfg.trace {
		lookupSample(p.src, cfg.seed, spec.bindings, func(i int) core.Query {
			return core.Query{DeviceType: devType("sink", i)}
		}, tr)
		spanLayers(res, tr)
		nodeLayers(res, p.src, p.paths, spec.aggregate)
		res.layer["directory.propagate_s"] = p.propagate.Seconds()
		res.layer["directory.advert_bytes_per_entry"] = p.advertBytes
		res.layer["wal.bytes_per_entry"] = 0
	}
	return res, nil
}
