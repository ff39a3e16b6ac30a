package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/netemu"
	"repro/umiddle"
)

// pairSpec shapes the two-node system that stream, bindings and churn
// share: sources on node "src", sinks on node "snk", one path each.
type pairSpec struct {
	bindings int
	payload  int
	dynamic  bool // ConnectQuery on a unique device type, else Connect
	// probes are extra load-free dynamic bindings, searching from
	// set-up until a rebind event registers their sink.
	probes int
	// aggregate shares one set of path metrics per node; per-path series
	// at 50k paths would dominate the heap being measured.
	aggregate bool
}

type pair struct {
	spec     pairSpec
	net      *netemu.Network
	src, snk *umiddle.Runtime
	tf       *traffic
	pr       *probes
	paths    []umiddle.PathID
	watch    *watch // the source node's view, keyed by translator ID
	// propagate is last sink registration → the source node's
	// directory holds every sink.
	propagate time.Duration
	// advertBytes is what the source node integrated per remote entry
	// to get there.
	advertBytes float64
}

func devType(kind string, i int) string { return fmt.Sprintf("bench-%s-%d", kind, i) }

// bulk returns tr for every 16th item of a large population,
// so traced set-up of 50k bindings keeps a bounded number of spans.
func bulk(tr *tracer, i, n int) *tracer {
	if n > 1024 && i%16 != 0 {
		return nil
	}
	return tr
}

// buildPair stands the system up on net. Every sink is registered
// before any source and every source before any path: a registration
// notifies the node's transport, which scans its path table, so the
// interleaved order would make set-up quadratic.
func buildPair(net *netemu.Network, spec pairSpec, tr *tracer, parent int) (*pair, error) {
	p := &pair{spec: spec, net: net, tf: newTraffic(spec.bindings, spec.payload), pr: newProbes(spec.probes)}
	var err error
	opts := nodeOpts{aggregate: spec.aggregate}
	if p.src, err = newNode(net, "src", opts); err != nil {
		return nil, err
	}
	if p.snk, err = newNode(net, "snk", opts); err != nil {
		p.close()
		return nil, err
	}
	p.watch = newWatch(p.src, func(pr core.Profile) string { return string(pr.ID) })

	n := spec.bindings
	for i := 0; i < spec.bindings; i++ {
		s := sinkBase("snk", fmt.Sprintf("sink-%d", i), devType("sink", i), payloadType, p.tf.handler(i))
		if err := register(p.snk, s, bulk(tr, i, n), parent); err != nil {
			p.close()
			return nil, err
		}
	}
	regEnd := time.Now()
	dir := p.src.Internal().Directory()
	if err := waitFor("sinks visible at the source node", 120*time.Second, func() bool {
		_, remote := dir.Size()
		return remote >= n
	}); err != nil {
		p.close()
		return nil, err
	}
	p.propagate = time.Since(regEnd)
	tr.add("directory.propagate", "", parent, regEnd, time.Now())
	p.advertBytes = advertBytesPerEntry(p.src)

	for i := 0; i < spec.bindings; i++ {
		p.tf.srcs[i] = sourceBase("src", fmt.Sprintf("src-%d", i), payloadType)
		if err := register(p.src, p.tf.srcs[i], bulk(tr, i, n), parent); err != nil {
			p.close()
			return nil, err
		}
	}
	for i := 0; i < spec.probes; i++ {
		p.pr.srcs[i] = sourceBase("src", fmt.Sprintf("probe-src-%d", i), payloadType)
		if err := register(p.src, p.pr.srcs[i], tr, parent); err != nil {
			p.close()
			return nil, err
		}
	}
	connect := func(src *core.Base, kind string, i int, dynamic bool, t *tracer) error {
		_, end := t.begin("transport.connect", string(src.ID()), parent)
		var id umiddle.PathID
		var err error
		if dynamic {
			id, err = p.src.ConnectQuery(out(src), core.Query{DeviceType: devType(kind, i)})
		} else {
			dst := core.PortRef{Translator: core.MakeTranslatorID("snk", "umiddle", fmt.Sprintf("%s-%d", kind, i)), Port: "in"}
			id, err = p.src.Connect(out(src), dst)
		}
		end()
		p.paths = append(p.paths, id)
		return err
	}
	for i, s := range p.tf.srcs {
		if err := connect(s, "sink", i, spec.dynamic, bulk(tr, i, n)); err != nil {
			p.close()
			return nil, fmt.Errorf("connect binding %d: %w", i, err)
		}
	}
	for i, s := range p.pr.srcs {
		if err := connect(s, "probe", i, true, tr); err != nil {
			p.close()
			return nil, fmt.Errorf("connect probe %d: %w", i, err)
		}
	}
	return p, nil
}

func (p *pair) probeSink(i int) *core.Base {
	return sinkBase("snk", fmt.Sprintf("probe-%d", i), devType("probe", i), payloadType, p.pr.handler(i))
}

func (p *pair) close() {
	for _, rt := range []*umiddle.Runtime{p.src, p.snk} {
		if rt != nil {
			rt.Close() //nolint:errcheck // teardown; the next set-up uses a fresh network
		}
	}
}

// rebindPhase makes each probe's sink appear, one after another in an
// order drawn from the seed, and returns the rebind times.
func (p *pair) rebindPhase(seed int64, tr *tracer) (*rebinds, error) {
	rb := &rebinds{}
	for k, i := range rand.New(rand.NewSource(seed ^ 0x7e5b1d)).Perm(len(p.pr.srcs)) {
		if err := p.pr.appear(i, p.snk, p.watch, p.probeSink(i), tr, rb); err != nil {
			return rb, fmt.Errorf("rebind event %d: %w", k, err)
		}
	}
	return rb, nil
}

// lookupSample times Lookup on the source node's full directory for a
// seeded sample of the sink queries the workload binds with.
func lookupSample(rt *umiddle.Runtime, seed int64, n int, query func(i int) core.Query, tr *tracer) {
	if tr == nil {
		return
	}
	rng := rand.New(rand.NewSource(seed ^ 0x10c4))
	dir := rt.Internal().Directory()
	for k := 0; k < 256; k++ {
		q := query(rng.Intn(n))
		_, end := tr.begin("directory.lookup", "", 0)
		dir.Lookup(q)
		end()
	}
}
