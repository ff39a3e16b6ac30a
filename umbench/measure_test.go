package main

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// TestQuantileMatchesOracle checks nearest-rank quantiles against a
// brute-force oracle: the smallest sample with at least q·n samples at
// or below it.
func TestQuantileMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 10, 99, 100, 101, 1000} {
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = float64(rng.Intn(50)) // ties on purpose
		}
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 1} {
			want := samples[0]
			found := false
			for _, v := range samples {
				atOrBelow := 0
				for _, x := range samples {
					if x <= v {
						atOrBelow++
					}
				}
				if float64(atOrBelow) >= q*float64(n) && (!found || v < want) {
					want, found = v, true
				}
			}
			if got := quantile(samples, q); got != want {
				t.Errorf("n=%d q=%v: quantile = %v, oracle %v", n, q, got, want)
			}
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
}

func TestAuditCountsEveryFailure(t *testing.T) {
	a := newAudit(3)
	a.attempted.Store(9) // three messages on each binding
	for seq := uint64(1); seq <= 3; seq++ {
		a.deliver(0, makePayload(0, 16), seq) // binding 0: all correct
	}
	a.deliver(1, makePayload(1, 16), 1)
	a.deliver(1, makePayload(1, 16), 1) // duplicate
	a.deliver(1, makePayload(1, 16), 3) // seq 2 lost
	a.deliver(2, makePayload(0, 16), 1) // misrouted from binding 0
	a.deliver(2, makePayload(2, 16), 1)
	a.deliver(2, makePayload(2, 16), 2)
	// Binding 2's third message never arrives (late beyond the drain).

	if got := a.correct.Load(); got != 7 {
		t.Fatalf("correct = %d, want 7", got)
	}
	// missing (9-7) + one duplicate + one misroute
	if got := a.failed(); got != 4 {
		t.Errorf("failed = %d, want 4", got)
	}
	if a.duplicates.Load() != 1 || a.misroutes.Load() != 1 || a.gaps.Load() != 1 {
		t.Errorf("duplicates %d misroutes %d gaps %d, want 1 each",
			a.duplicates.Load(), a.misroutes.Load(), a.gaps.Load())
	}

	clean := newAudit(1)
	clean.attempted.Store(2)
	clean.deliver(0, makePayload(0, 8), 1)
	clean.deliver(0, makePayload(0, 8), 2)
	if got := clean.failed(); got != 0 {
		t.Errorf("clean run failed = %d, want 0", got)
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	parent := span{Start: 0, End: 100}
	children := []span{
		{Start: 20, End: 40}, {Start: 10, End: 30}, // overlap: [10,40]
		{Start: 50, End: 60},
		{Start: 90, End: 120},  // clipped to [90,100]
		{Start: 150, End: 160}, // outside the parent
	}
	if got, want := selfTime(parent, children), time.Duration(50); got != want {
		t.Errorf("selfTime = %v, want %v", got, want)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %v, want 100", got)
	}
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	const workers, bindings = 2, 7
	a := schedule(42, 1, workers, 5000, time.Second, bindings)
	b := schedule(42, 1, workers, 5000, time.Second, bindings)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, schedule(43, 1, workers, 5000, time.Second, bindings)) {
		t.Error("different seeds gave the same schedule")
	}
	if n := len(a); n < 2000 || n > 3000 {
		t.Errorf("emitter 1 of 2 at 5000 msgs/s for 1s scheduled %d arrivals, want about 2500", n)
	}
	var prev time.Duration
	for _, x := range a {
		if x.at < prev || x.at >= time.Second {
			t.Fatalf("arrival at %v out of order or outside the window", x.at)
		}
		if int(x.binding)%workers != 1 || int(x.binding) >= bindings {
			t.Fatalf("emitter 1 scheduled binding %d it does not own", x.binding)
		}
		prev = x.at
	}
}

func TestTailIsMedianOfBlockP99s(t *testing.T) {
	// Ten blocks of 1000 deliveries; block w has 15 slow ones at
	// 10·(w+1) ms, so the block p99s are 10..100 ms.
	r := newRecorder(10_000)
	for w := 0; w < 10; w++ {
		for i := 0; i < 1000; i++ {
			lat := time.Millisecond
			if i >= 985 {
				lat = time.Duration(w+1) * 10 * time.Millisecond
			}
			// Recorded out of order: blocks follow the intended start.
			r.record(time.Duration(9-w)*time.Second+time.Duration(i)*time.Microsecond, lat)
		}
	}
	p50, p99, n := r.latencyMs()
	if n != 10_000 || p50 != 1 {
		t.Errorf("samples %d p50 %v, want 10000 and 1 ms", n, p50)
	}
	// Nearest-rank median of ten values is the fifth: 50 ms.
	if p99 != 50 {
		t.Errorf("tail = %v ms, want the median block's 50 ms", p99)
	}

	few := newRecorder(1500)
	for i := 0; i < 1500; i++ {
		few.record(time.Duration(i), time.Duration(i+1)*time.Microsecond)
	}
	if _, p99, _ := few.latencyMs(); p99 != 1.485 {
		t.Errorf("with one block the tail is the run's p99: got %v ms, want 1.485", p99)
	}
}
