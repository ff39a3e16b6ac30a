package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/netemu"
	"repro/internal/platform/upnp"
	"repro/umiddle"
)

const (
	churnBindings = 1000
	churnPayload  = 64
	churnRate     = 5000
	churnLights   = 8
	// churnGapMean is the mean pause between light events (exponential,
	// from the seed); events never overlap.
	churnGapMean = 20 * time.Millisecond
	lightPort    = 5100
	powerType    = core.DataType("control/power")
)

// lan is the emulated UPnP device LAN: lights on host "lan", mapped by
// a UPnP mapper on gateway node "gw" across a 10 Mbps link.
type lan struct {
	host   *netemu.Host
	lights []*upnp.BinaryLight
	hits   []chan time.Time // SetPower calls per light
	calls  []atomic.Uint64
	sent   []atomic.Uint64 // probes emitted per light
	srcs   []*core.Base    // app-node sources, one dynamic binding per light
	paths  []umiddle.PathID
}

func lightName(i int) string { return fmt.Sprintf("churn-light-%02d", i) }

// newLight builds light i's next incarnation (a light that said byebye
// cannot publish again) with a SetPower handler that reports the call.
func (l *lan) newLight(i int) *upnp.BinaryLight {
	light := upnp.NewBinaryLight(l.host, fmt.Sprintf("uuid-light-%02d", i), lightName(i), upnp.DeviceOptions{Port: lightPort + i})
	svc := light.Services()[0]
	svc.Handle("SetPower", func(args map[string]string) (map[string]string, error) {
		svc.SetState("Power", args["Power"])
		l.calls[i].Add(1)
		l.hits[i] <- time.Now()
		return map[string]string{}, nil
	})
	l.lights[i] = light
	return light
}

type churnSys struct {
	*pair
	gw      *umiddle.Runtime
	lan     *lan
	gwWatch *watch // keyed by profile name
	appSeen *watch
}

func (c *churnSys) close() {
	for _, l := range c.lan.lights {
		if l != nil {
			l.Unpublish() //nolint:errcheck // teardown
		}
	}
	if c.gw != nil {
		c.gw.Close() //nolint:errcheck // teardown
	}
	c.pair.close()
}

func buildChurn(tr *tracer, parent int) (*churnSys, error) {
	net := netemu.NewNetwork(netemu.Unlimited())
	p, err := buildPair(net, pairSpec{bindings: churnBindings, payload: churnPayload, dynamic: true}, tr, parent)
	if err != nil {
		net.Close()
		return nil, err
	}
	c := &churnSys{pair: p, lan: &lan{
		lights: make([]*upnp.BinaryLight, churnLights), hits: make([]chan time.Time, churnLights),
		calls: make([]atomic.Uint64, churnLights), sent: make([]atomic.Uint64, churnLights),
		srcs: make([]*core.Base, churnLights),
	}}
	byName := func(pr core.Profile) string { return pr.Name }
	if c.gw, err = newNode(net, "gw", nodeOpts{}); err != nil {
		c.close()
		return nil, err
	}
	c.gwWatch = newWatch(c.gw, byName)
	c.appSeen = newWatch(p.src, byName)
	if c.lan.host, err = net.AddHost("lan"); err != nil {
		c.close()
		return nil, err
	}
	net.SetLink("gw", "lan", netemu.Ethernet10Mbps())
	if err := c.gw.AddUPnPMapper(umiddle.UPnPMapperConfig{}); err != nil {
		c.close()
		return nil, err
	}
	for i := 0; i < churnLights; i++ {
		// Room for stray duplicate calls: the end-of-run count catches
		// them, and a full channel would stall the device's handler.
		c.lan.hits[i] = make(chan time.Time, 16)
		seen := c.appSeen.expect(lightName(i), true)
		if err := c.lan.newLight(i).Publish(); err != nil {
			c.close()
			return nil, err
		}
		if _, err := await(seen, lightName(i)+" visible at the app node", 30*time.Second); err != nil {
			c.close()
			return nil, err
		}
	}
	for i := 0; i < churnLights; i++ {
		c.lan.srcs[i] = sourceBase("src", fmt.Sprintf("light-src-%d", i), powerType)
		if err := register(p.src, c.lan.srcs[i], tr, parent); err != nil {
			c.close()
			return nil, err
		}
	}
	for i, s := range c.lan.srcs {
		_, end := tr.begin("transport.connect", string(s.ID()), parent)
		id, err := p.src.ConnectQuery(out(s), core.Query{Platform: "upnp", NameContains: lightName(i)})
		end()
		if err != nil {
			c.close()
			return nil, err
		}
		c.lan.paths = append(c.lan.paths, id)
	}
	return c, nil
}

// probeLight emits one probe on light i's binding, stamped with t0.
func (c *churnSys) probeLight(i int, t0 time.Time) {
	c.lan.sent[i].Add(1)
	c.lan.srcs[i].Emit("out", core.Message{Type: powerType, Payload: makePayload(i, 8), Time: t0})
}

// lightEvent unpublishes light i, waits until the app node has lost
// it, then publishes its next incarnation with a probe emitted at that
// instant, and times the probe until the light executes it.
func (c *churnSys) lightEvent(i int, tr *tracer, rb *rebinds) error {
	name := lightName(i)
	gwGone, appGone := c.gwWatch.expect(name, false), c.appSeen.expect(name, false)
	tu := time.Now()
	ev, endUnmap := tr.begin("light.unpublish", name, 0)
	if err := c.lan.lights[i].Unpublish(); err != nil {
		return err
	}
	endUnmap()
	at, err := await(gwGone, name+" unmapped at the gateway", 10*time.Second)
	if err != nil {
		return err
	}
	tr.add("mapper.unmap", name, ev, tu, at)
	if _, err := await(appGone, name+" unmapped at the app node", 10*time.Second); err != nil {
		return err
	}

	gwBack, appBack := c.gwWatch.expect(name, true), c.appSeen.expect(name, true)
	light := c.lan.newLight(i)
	t0 := time.Now()
	ev, end := tr.begin("rebind", fmt.Sprintf("%s@%d", name, t0.UnixNano()), 0)
	if err := light.Publish(); err != nil {
		return err
	}
	c.probeLight(i, t0)
	mapped, err := await(gwBack, name+" mapped at the gateway", 10*time.Second)
	if err != nil {
		return err
	}
	heard, err := await(appBack, name+" mapped at the app node", 10*time.Second)
	if err != nil {
		return err
	}
	got, err := await(c.lan.hits[i], name+" probe executed", 10*time.Second)
	if err != nil {
		return err
	}
	end()
	tr.add("mapper.map", name, ev, t0, mapped)
	tr.add("directory.remote_mapped", name, ev, mapped, heard)
	rb.add(got.Sub(t0))
	return nil
}

func runChurn(cfg runCfg) (*result, error) {
	res, tr, err := start(cfg, netemu.Unlimited(), churnPayload, churnRate)
	if err != nil {
		return nil, err
	}
	c, err := setupRepeated(res, 3, tr, buildChurn, func(c *churnSys) { c.close(); c.net.Close() })
	if err != nil {
		return nil, err
	}
	defer c.net.Close()
	defer c.close()
	if err := c.tf.warm(30 * time.Second); err != nil {
		return nil, err
	}
	for i := range c.lan.srcs {
		c.probeLight(i, time.Now())
		if _, err := await(c.lan.hits[i], lightName(i)+" warm-up probe", 10*time.Second); err != nil {
			return nil, err
		}
	}
	res.e2e["heap_mb"] = heapMB()

	rb := &rebinds{}
	var churnErr error
	var events int
	var plan int64
	measure(cfg, c.tf, churnRate, res, tr, func(stop <-chan struct{}, _ time.Duration, tr *tracer) {
		// Each half of a traced run draws its own plan from the seed.
		plan++
		rng := rand.New(rand.NewSource(cfg.seed*7919 + plan))
		for {
			gap := time.Duration(rng.ExpFloat64() * float64(churnGapMean))
			i := rng.Intn(churnLights)
			select {
			case <-stop:
				return
			case <-time.After(gap):
			}
			if err := c.lightEvent(i, tr, rb); err != nil {
				churnErr = fmt.Errorf("light event %d: %w", events, err)
				return
			}
			events++
		}
	})
	if churnErr != nil {
		return nil, churnErr
	}
	res.e2e["rebind_p50_ms"] = quantile(rb.total, 0.5)
	res.info["rebind_p90_ms"] = quantile(rb.total, 0.9)
	res.info["rebind_events"] = events

	var probes, calls uint64
	for i := range c.lan.sent {
		s, k := c.lan.sent[i].Load(), c.lan.calls[i].Load()
		probes += s
		calls += k
		if k != s {
			res.violate("%s executed %d probes of %d sent", lightName(i), k, s)
		}
	}
	res.attempted = c.tf.audit.attempted.Load() + probes
	res.info["audit"] = c.tf.audit.counts()
	res.failed = c.tf.audit.failed()
	if calls < probes {
		res.failed += probes - calls
	} else {
		res.failed += calls - probes
	}
	res.layer["netemu.group_drops"] = float64(c.net.GroupDrops())
	if cfg.trace {
		lookupSample(c.src, cfg.seed, churnBindings, func(i int) core.Query {
			return core.Query{DeviceType: devType("sink", i)}
		}, tr)
		spanLayers(res, tr)
		nodeLayers(res, c.src, append(append([]umiddle.PathID(nil), c.paths...), c.lan.paths...), false)
		res.layer["directory.propagate_s"] = c.propagate.Seconds()
		res.layer["directory.advert_bytes_per_entry"] = c.advertBytes
		res.layer["wal.bytes_per_entry"] = 0
	}
	return res, nil
}
