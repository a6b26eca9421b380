package main

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"
)

func TestQuantileWithinBucketResolution(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 10000; i++ {
		h.Record(time.Duration(i) * time.Microsecond) // 1µs .. 10ms
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got, ok := h.Quantile(q)
		if !ok {
			t.Fatalf("q=%v does not count with 10000 samples", q)
		}
		want := q * 10000e-6
		if math.Abs(got-want)/want > 1.0/histSub {
			t.Errorf("q=%v: got %v, want %v within one bucket", q, got, want)
		}
	}
}

func TestTenBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{100, 0.9, true},   // rank 90, 10 beyond
		{99, 0.9, false},   // rank 90, 9 beyond
		{1000, 0.99, true}, // rank 990, 10 beyond
		{999, 0.99, false}, // rank 990, 9 beyond
		{1000, 0.999, false},
		{20, 0.5, true},
	} {
		h := NewHistogram()
		for i := 0; i < c.n; i++ {
			h.Record(time.Millisecond)
		}
		if _, ok := h.Quantile(c.q); ok != c.want {
			t.Errorf("n=%d q=%v: counts=%v, want %v", c.n, c.q, ok, c.want)
		}
	}
}

func TestFailuresMissEveryLimit(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 995; i++ {
		h.Record(time.Millisecond)
	}
	for i := 0; i < 15; i++ {
		h.Fail()
	}
	if h.Count() != 1010 || h.Failures() != 15 {
		t.Fatalf("count %d failures %d", h.Count(), h.Failures())
	}
	if v, _ := h.Quantile(0.99); !math.IsInf(v, 1) {
		t.Errorf("p99 with 1.5%% failures = %v, want +Inf", v)
	}
	if v, _ := h.Quantile(0.5); math.Abs(v-1e-3) > 1e-3/histSub {
		t.Errorf("p50 = %v, want 1ms", v)
	}
}

func TestQuantileVariesWithData(t *testing.T) {
	// Values inside one bucket must still read differently: a reported
	// time that never changes across runs is indistinguishable from a
	// constant.
	a, b := NewHistogram(), NewHistogram()
	for i := 0; i < 100; i++ {
		a.RecordSeconds(0.0100 + float64(i)*1e-7)
		b.RecordSeconds(0.0101 + float64(i)*1e-7)
	}
	qa, _ := a.Quantile(0.5)
	qb, _ := b.Quantile(0.5)
	if qa == qb {
		t.Errorf("medians of shifted data both read %v", qa)
	}
	if qa < a.min || qa > a.max {
		t.Errorf("median %v outside [%v, %v]", qa, a.min, a.max)
	}
}

func TestBucketBoundsCoverValues(t *testing.T) {
	for _, sec := range []float64{0, 5e-7, 1e-6, 1.5e-6, 3.3e-3, 0.25, 17} {
		b := bucketOf(sec)
		lo, hi := bucketBounds(b)
		if sec < lo || sec >= hi {
			t.Errorf("%v in bucket %d = [%v, %v)", sec, b, lo, hi)
		}
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	// Every request takes 3 intervals: an open loop keeps its schedule,
	// so each later request waits longer and its latency, timed from
	// when it was due, grows; the backlog is flagged.
	const interval = 2 * time.Millisecond
	h, ol := runOpenLoop(float64(time.Second/interval), 40, rand.New(rand.NewPCG(1, 2)), func(int) error {
		time.Sleep(3 * interval)
		return nil
	})
	if h.Count() != 40 {
		t.Fatalf("%d requests recorded", h.Count())
	}
	if h.max < 40*2*interval.Seconds()*0.9 {
		t.Errorf("last latency %v does not include the queue behind it", h.max)
	}
	if !ol.BacklogGrows() {
		t.Error("growing backlog not flagged")
	}
	if l, _ := ol.Lateness.Quantile(0.5); l <= 0 {
		t.Errorf("lateness p50 %v, want positive", l)
	}
}

func TestOpenLoopSteady(t *testing.T) {
	_, ol := runOpenLoop(500, 40, rand.New(rand.NewPCG(1, 2)), func(int) error { return nil })
	if ol.BacklogGrows() {
		t.Error("idle open loop flagged as backlogged")
	}
	for i := 0; i < ol.N; i++ {
		if got := ol.Due(i).Sub(ol.Start); got < time.Duration(i)*ol.Interval || got >= time.Duration(i+1)*ol.Interval {
			t.Errorf("request %d due after %v, want within its interval [%v, %v)", i, got, time.Duration(i)*ol.Interval, time.Duration(i+1)*ol.Interval)
		}
	}
}
