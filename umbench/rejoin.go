package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/netemu"
	"repro/umiddle"
)

const (
	rejoinPeers   = 4
	rejoinEntries = 5_000
	rejoinPaths   = 16
	rejoinPayload = 64
	// rejoinRate keeps the messages' own cost at about half of
	// cpu_us_per_msg: at 2k msgs/s the five nodes' background work was
	// four fifths of it, and its swings set the figure.
	rejoinRate = 8000
	// rejoinRestarts gives rebind_p90_ms four restarts beyond it; each
	// waits a seeded pause of one to two rejoinGapMin after the last.
	rejoinRestarts = 40
	rejoinGapMin   = 50 * time.Millisecond
	// The production announce cadence and the stretched leases the
	// restart experiment uses: a sync of the population over the 10 Mbps
	// bus takes about a second, and a federation tunes leases up for it.
	rejoinAnnounce = 500 * time.Millisecond
	rejoinExpiry   = 40
)

var joinerOpts = nodeOpts{persist: "dir.wal", expiry: rejoinExpiry, announce: rejoinAnnounce}

type rejoinSys struct {
	net      *netemu.Network
	peers    []*umiddle.Runtime
	joiner   *umiddle.Runtime
	tf       *traffic
	paths    []umiddle.PathID
	remote   int // entries the joiner must integrate
	join     time.Duration
	advertB  float64    // advert bytes the joiner integrated per entry
	jsrc     *core.Base // the joiner's source, current incarnation
	restarts atomic.Uint64
	hits     chan time.Time
	stamps   chan int
}

func (s *rejoinSys) close() {
	if s.joiner != nil {
		s.joiner.Close() //nolint:errcheck // teardown
	}
	for _, p := range s.peers {
		if p != nil {
			p.Close() //nolint:errcheck // teardown
		}
	}
	s.net.Close()
}

var restartSinkID = core.MakeTranslatorID("p2", "umiddle", "restart-sink")

func joinerSource() *core.Base { return sourceBase("j", "j-src", payloadType) }

func buildRejoin(tr *tracer, parent int) (*rejoinSys, error) {
	// The probe channels have room for stray duplicates, which the run
	// reports, so that one cannot stall the sink's delivery worker.
	s := &rejoinSys{net: netemu.NewNetwork(netemu.Ethernet10Mbps()), tf: newTraffic(rejoinPaths, rejoinPayload),
		hits: make(chan time.Time, 16), stamps: make(chan int, 16)}
	for i := 0; i < rejoinPeers; i++ {
		rt, err := newNode(s.net, fmt.Sprintf("p%d", i+1), nodeOpts{expiry: rejoinExpiry, announce: rejoinAnnounce})
		if err != nil {
			s.close()
			return nil, err
		}
		s.peers = append(s.peers, rt)
	}
	noop := func(context.Context, core.Message) error { return nil }
	for k := 0; k < rejoinEntries; k++ {
		peer := s.peers[k%rejoinPeers]
		e := sinkBase(peer.Node(), fmt.Sprintf("entry-%d", k), devType("entry", k), payloadType, noop)
		if err := register(peer, e, bulk(tr, k, rejoinEntries), parent); err != nil {
			s.close()
			return nil, err
		}
	}
	p1, p2 := s.peers[0], s.peers[1]
	// The load runs on its own unshaped link, so the bus carries only
	// directory traffic and the message latency is not bus-bound.
	s.net.SetLink("p1", "p2", netemu.Unlimited())
	for i := 0; i < rejoinPaths; i++ {
		if err := register(p2, sinkBase("p2", fmt.Sprintf("sink-%d", i), devType("sink", i), payloadType, s.tf.handler(i)), tr, parent); err != nil {
			s.close()
			return nil, err
		}
	}
	restartSink := sinkBase("p2", "restart-sink", "bench-restart", payloadType, func(_ context.Context, msg core.Message) error {
		s.stamps <- stampOf(msg.Payload)
		s.hits <- time.Now()
		return nil
	})
	if err := register(p2, restartSink, tr, parent); err != nil {
		s.close()
		return nil, err
	}
	for i := 0; i < rejoinPaths; i++ {
		s.tf.srcs[i] = sourceBase("p1", fmt.Sprintf("src-%d", i), payloadType)
		if err := register(p1, s.tf.srcs[i], tr, parent); err != nil {
			s.close()
			return nil, err
		}
	}
	total := 0
	for _, p := range s.peers {
		l, _ := p.Internal().Directory().Size()
		total += l
	}
	if err := waitFor("peer population converged", 120*time.Second, func() bool {
		for _, p := range s.peers {
			if l, r := p.Internal().Directory().Size(); l+r < total {
				return false
			}
		}
		return true
	}); err != nil {
		s.close()
		return nil, err
	}
	for i, src := range s.tf.srcs {
		_, end := tr.begin("transport.connect", string(src.ID()), parent)
		id, err := p1.Connect(out(src), core.PortRef{Translator: core.MakeTranslatorID("p2", "umiddle", fmt.Sprintf("sink-%d", i)), Port: "in"})
		end()
		if err != nil {
			s.close()
			return nil, err
		}
		s.paths = append(s.paths, id)
	}

	// Cold join: a fresh node with an empty log integrates the whole
	// population over the shared bus.
	s.remote = total
	joinStart := time.Now()
	j, err := newNode(s.net, "j", joinerOpts)
	if err != nil {
		s.close()
		return nil, err
	}
	s.joiner = j
	s.jsrc = joinerSource()
	if err := register(j, s.jsrc, tr, parent); err != nil {
		s.close()
		return nil, err
	}
	if err := waitFor("joiner integrated the population", 120*time.Second, func() bool {
		_, r := j.Internal().Directory().Size()
		return r >= s.remote
	}); err != nil {
		s.close()
		return nil, err
	}
	s.join = time.Since(joinStart)
	tr.add("directory.propagate", "join", parent, joinStart, time.Now())
	s.advertB = advertBytesPerEntry(j)
	if _, err := s.deliverFromJoiner(0, joinStart, tr, parent); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// deliverFromJoiner binds the joiner's source to the restart sink on a
// remote peer (possible at once only when the joiner's directory already
// holds that entry), emits one probe stamped k with intended start t0,
// and returns when it is delivered.
func (s *rejoinSys) deliverFromJoiner(k int, t0 time.Time, tr *tracer, parent int) (time.Time, error) {
	src := out(s.jsrc)
	dst := core.PortRef{Translator: restartSinkID, Port: "in"}
	if err := waitFor("joiner can bind to a remote entry", 10*time.Second, func() bool {
		_, end := tr.begin("transport.connect", "j-src", parent)
		_, err := s.joiner.Connect(src, dst)
		end()
		return err == nil
	}); err != nil {
		return time.Time{}, err
	}
	s.restarts.Add(1)
	s.jsrc.Emit("out", core.Message{Type: payloadType, Payload: makePayload(k, 8), Time: t0})
	got, err := await(s.hits, "restart probe delivery", 10*time.Second)
	if err != nil {
		return got, err
	}
	if st := <-s.stamps; st != k {
		return got, fmt.Errorf("restart probe %d delivered with stamp %d", k, st)
	}
	return got, nil
}

// restart snapshots the joiner's log, shuts it down for a planned
// restart, crashes its host, brings up a new incarnation from the log
// and times a probe from the shutdown to its delivery at a remote peer.
func (s *rejoinSys) restart(k int, tr *tracer, rb *rebinds, walBytes *float64) error {
	ev, end := tr.begin("restart", fmt.Sprintf("restart%d", k), 0)
	defer end()
	dir := s.joiner.Internal().Directory()
	_, endSnap := tr.begin("directory.snapshot", "", ev)
	if err := dir.SnapshotNow(); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	endSnap()
	if st, ok := s.joiner.PersistStats(); ok {
		l, r := dir.Size()
		*walBytes = float64(st.SizeBytes) / float64(l+r)
	}
	t0 := time.Now()
	if err := s.joiner.CloseForRestart(); err != nil {
		return fmt.Errorf("close for restart: %w", err)
	}
	s.joiner = nil
	if _, err := s.net.CrashNode("j"); err != nil {
		return err
	}
	_, endReplay := tr.begin("wal.replay", "", ev)
	j, err := newNode(s.net, "j", joinerOpts)
	endReplay()
	if err != nil {
		return fmt.Errorf("warm restart: %w", err)
	}
	s.joiner = j
	s.jsrc = joinerSource()
	if err := register(j, s.jsrc, tr, ev); err != nil {
		return err
	}
	got, err := s.deliverFromJoiner(k, t0, tr, ev)
	if err != nil {
		return err
	}
	rb.add(got.Sub(t0))
	return nil
}

func runRejoin(cfg runCfg) (*result, error) {
	res, tr, err := start(cfg, netemu.Unlimited(), rejoinPayload, rejoinRate)
	if err != nil {
		return nil, err
	}
	s, err := setupRepeated(res, 5, tr, buildRejoin, func(s *rejoinSys) { s.close() })
	if err != nil {
		return nil, err
	}
	defer s.close()
	if err := s.tf.warm(30 * time.Second); err != nil {
		return nil, err
	}
	// The joiner compacts its log and the peers settle their view of it
	// for about two announce rounds after the join; measuring through
	// that made the window's tail swing from run to run.
	time.Sleep(4 * rejoinAnnounce)
	res.e2e["heap_mb"] = heapMB()

	measure(cfg, s.tf, rejoinRate, res, tr, nil)
	// The restarts follow the window: each one's replay saturates a
	// core, and traffic alongside made both numbers swing run to run.
	rb := &rebinds{}
	var walBytes float64
	rng := rand.New(rand.NewSource(cfg.seed * 104729))
	for k := 1; k <= rejoinRestarts; k++ {
		time.Sleep(rejoinGapMin + time.Duration(rng.Int63n(int64(rejoinGapMin))))
		if err := s.restart(k, tr, rb, &walBytes); err != nil {
			return nil, fmt.Errorf("restart %d: %w", k, err)
		}
	}
	res.e2e["rebind_p50_ms"] = quantile(rb.total, 0.5)
	res.info["rebind_p90_ms"] = quantile(rb.total, 0.9)
	res.info["restarts"] = len(rb.total)
	res.info["join_s"] = s.join.Seconds()

	restarts := s.restarts.Load()
	res.attempted = s.tf.audit.attempted.Load() + restarts
	res.info["audit"] = s.tf.audit.counts()
	res.failed = s.tf.audit.failed()
	if extra := len(s.hits); extra > 0 {
		res.failed += uint64(extra)
		res.violate("%d restart probes delivered more than once", extra)
	}
	res.layer["netemu.group_drops"] = float64(s.net.GroupDrops())
	if cfg.trace {
		lookupSample(s.joiner, cfg.seed, rejoinEntries, func(i int) core.Query {
			return core.Query{DeviceType: devType("entry", i)}
		}, tr)
		spanLayers(res, tr)
		nodeLayers(res, s.peers[0], s.paths, false)
		res.layer["directory.propagate_s"] = s.join.Seconds()
		res.layer["directory.advert_bytes_per_entry"] = s.advertB
		res.layer["wal.bytes_per_entry"] = walBytes
	}
	return res, nil
}
