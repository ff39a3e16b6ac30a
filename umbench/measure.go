package main

import (
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of the samples by the
// nearest-rank rule on a sorted copy: the smallest sample with at least
// ⌈q·n⌉ samples at or below it. It returns 0 for no samples.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func median(samples []float64) float64 { return quantile(samples, 0.5) }

// ---------------------------------------------------------------------
// Open-loop schedule.

// arrival is one scheduled emission: its due time as an offset from the
// window start, and the binding it goes out on.
type arrival struct {
	at      time.Duration
	binding int32
}

// schedule builds emitter w's share of a Poisson arrival process of
// total rate `rate` (msgs/s) split evenly over `workers` emitters, for
// `dur`. Emitter w owns the bindings b with b%workers == w and picks
// one uniformly per arrival. The result depends only on its arguments.
func schedule(seed int64, w, workers int, rate float64, dur time.Duration, bindings int) []arrival {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(w)))
	own := (bindings - w + workers - 1) / workers
	if own <= 0 {
		return nil
	}
	perSec := rate / float64(workers)
	out := make([]arrival, 0, int(perSec*dur.Seconds()*1.1)+16)
	var at time.Duration
	for {
		at += time.Duration(rng.ExpFloat64() * float64(time.Second) / perSec)
		if at >= dur {
			return out
		}
		out = append(out, arrival{at: at, binding: int32(w + workers*rng.Intn(own))})
	}
}

// ---------------------------------------------------------------------
// Correctness oracle.

// stampBytes is the prefix of every payload that carries its binding
// index; the rest of the payload is filler.
const stampBytes = 4

// makePayload builds binding b's immutable payload: its index stamped
// little-endian in the first four bytes, then a byte pattern.
func makePayload(b, size int) []byte {
	if size < stampBytes {
		size = stampBytes
	}
	p := make([]byte, size)
	binary.LittleEndian.PutUint32(p, uint32(b))
	for i := stampBytes; i < size; i++ {
		p[i] = byte(i*31 + b)
	}
	return p
}

// stampOf reads the binding index stamped into a payload (-1 when the
// payload is too short to carry one).
func stampOf(p []byte) int {
	if len(p) < stampBytes {
		return -1
	}
	return int(binary.LittleEndian.Uint32(p))
}

// audit is the per-binding delivery oracle. Every sink calls deliver
// with its own binding index; the audit checks the payload stamp
// (misroute) and the per-path sequence number (exactly-once, in order).
type audit struct {
	last       []atomic.Uint64 // highest in-order Seq seen per binding
	attempted  atomic.Uint64   // messages emitted
	correct    atomic.Uint64
	duplicates atomic.Uint64 // Seq at or below one already delivered
	misroutes  atomic.Uint64 // stamp names another binding
	gaps       atomic.Uint64 // Seq skipped ahead (earlier ones lost or reordered)
}

func newAudit(bindings int) *audit { return &audit{last: make([]atomic.Uint64, bindings)} }

// deliver records one delivery at binding b's sink and reports whether
// it was correct: the right stamp and the next sequence number.
func (a *audit) deliver(b int, payload []byte, seq uint64) bool {
	if stampOf(payload) != b {
		a.misroutes.Add(1)
		return false
	}
	// One destination's deliveries run one at a time, so a plain
	// load/store pair per binding is enough; the atomics only order it
	// across the delivery workers that take turns on the binding.
	last := a.last[b].Load()
	switch {
	case seq <= last:
		a.duplicates.Add(1)
		return false
	case seq > last+1:
		a.gaps.Add(1)
	}
	a.last[b].Store(seq)
	a.correct.Add(1)
	return true
}

// failed is the number of attempted messages not delivered correctly,
// plus every delivery that should not have happened: a duplicate or a
// misroute counts even when the original also arrived.
func (a *audit) failed() uint64 {
	attempted, c := a.attempted.Load(), a.correct.Load()
	var missing uint64
	if attempted > c {
		missing = attempted - c
	}
	return missing + a.duplicates.Load() + a.misroutes.Load()
}

// counts names what went wrong, for the detail line.
func (a *audit) counts() map[string]uint64 {
	return map[string]uint64{
		"attempted": a.attempted.Load(), "correct": a.correct.Load(),
		"duplicates": a.duplicates.Load(), "misroutes": a.misroutes.Load(), "seq_gaps": a.gaps.Load(),
	}
}

// ---------------------------------------------------------------------
// Latency recording.

// recorder keeps every delivery's intended-start offset and latency in
// preallocated arrays, so recording allocates nothing.
type recorder struct {
	n   atomic.Int64
	due []int64 // intended start, ns after the window start
	lat []int64 // intended start → delivery, ns
}

func newRecorder(capacity int) *recorder {
	return &recorder{due: make([]int64, capacity), lat: make([]int64, capacity)}
}

func (r *recorder) record(due time.Duration, lat time.Duration) {
	i := r.n.Add(1) - 1
	if int(i) < len(r.lat) {
		r.due[i] = int64(due)
		r.lat[i] = int64(lat)
	}
}

func (r *recorder) count() int {
	n := int(r.n.Load())
	if n > len(r.lat) {
		n = len(r.lat)
	}
	return n
}

// latencyMs returns the median latency over all deliveries, and a tail:
// the deliveries, in order of intended start, are cut into blocks of
// tailBlock, and the tail is the median of the blocks' p99s. A run's
// single p99 swings with one stall; the median block says how bad the
// tail of a typical stretch of tailBlock messages is. With too few
// deliveries for two blocks it is the run's p99.
func (r *recorder) latencyMs() (p50, p99 float64, samples int) {
	n := r.count()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return r.due[idx[a]] < r.due[idx[b]] })
	all := make([]float64, n)
	for k, i := range idx {
		all[k] = float64(r.lat[i]) / 1e6
	}
	var p99s []float64
	for lo := 0; lo+tailBlock <= n; lo += tailBlock {
		p99s = append(p99s, quantile(all[lo:lo+tailBlock], 0.99))
	}
	if len(p99s) < 2 {
		return median(all), quantile(all, 0.99), n
	}
	return median(all), median(p99s), n
}

// tailBlock leaves ten samples beyond each block's p99.
const tailBlock = 1000

// ---------------------------------------------------------------------
// Process CPU.

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ---------------------------------------------------------------------
// Spans.

// span is one timed call into a layer, recorded by the benchmark around
// its own calls. Spans of one message or one device event share ID.
type span struct {
	Name   string `json:"name"`
	ID     string `json:"id"`
	Seq    int    `json:"seq"`
	Parent int    `json:"parent"` // Seq of the enclosing span, 0 for none
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; a nil tracer records nothing, so the
// untraced run pays one nil check per call site.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns the function that closes it. The
// returned int is the span's Seq, for children to name as parent.
func (t *tracer) begin(name, id string, parent int) (int, func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Since(t.origin)
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: int64(start)})
	seq := len(t.spans)
	t.mu.Unlock()
	return seq, func() {
		end := time.Since(t.origin)
		t.mu.Lock()
		t.spans[seq-1].End = int64(end)
		t.mu.Unlock()
	}
}

// add records an already-timed interval.
func (t *tracer) add(name, id string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin))})
	return len(t.spans)
}

// durations returns the durations (in unit) of every closed span named name.
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= s.Start && s.End != 0 {
			out = append(out, float64(s.dur())/float64(unit))
		}
	}
	return out
}

// write emits every span as one JSON object per line.
func (t *tracer) write(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		s.Seq = i + 1
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// selfMs returns, per span name, the median self time in ms: what the
// benchmark's call into that layer cost beyond the calls it wraps.
func (t *tracer) selfMs() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string][]float64{}
	for i, s := range t.spans {
		if s.End != 0 {
			byName[s.Name] = append(byName[s.Name], float64(selfTime(s, children[i+1]))/1e6)
		}
	}
	out := map[string]float64{}
	for name, v := range byName {
		out[name] = median(v)
	}
	return out
}

// selfTime is a span's duration minus the part of its interval that its
// children cover (overlapping children are counted once).
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			covered += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		covered += curB - curA
	}
	return parent.dur() - time.Duration(covered)
}
