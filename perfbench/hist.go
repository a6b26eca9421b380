package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"
)

// Histogram is a log-bucketed latency histogram: every power of two is
// split into histSub equal sub-buckets, so a bucket is at most 1/histSub
// (about 1.6%) of its value wide, from 1µs up to about an hour. Samples
// below 1µs share the first bucket. Failed operations go to a separate
// failure count that sorts above every latency, so each one misses any
// latency limit.
//
// Quantiles interpolate linearly inside the bucket by rank, so they vary
// continuously with the data rather than snapping to bucket edges, and
// they obey the ten-beyond rule: a quantile counts only when at least ten
// samples lie beyond it.
type Histogram struct {
	counts   []uint64
	n        uint64 // successful samples
	failures uint64
	min, max float64 // seconds
}

const (
	histSub    = 64
	histOctave = 32 // 2^32 µs ≈ 71 minutes
	histMinSec = 1e-6
	// Beyond is how many samples must lie above a quantile for it to count.
	Beyond = 10
)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]uint64, histOctave*histSub), min: math.Inf(1)}
}

func bucketOf(sec float64) int {
	x := sec / histMinSec
	if x < 1 {
		return 0
	}
	frac, exp := math.Frexp(x) // x = frac·2^exp, frac in [0.5, 1)
	oct := exp - 1
	if oct >= histOctave {
		return histOctave*histSub - 1
	}
	sub := int((frac*2 - 1) * histSub)
	return oct*histSub + sub
}

// bucketBounds returns bucket b's [lo, hi) in seconds.
func bucketBounds(b int) (float64, float64) {
	oct, sub := b/histSub, b%histSub
	lo := math.Ldexp(1+float64(sub)/histSub, oct) * histMinSec
	hi := math.Ldexp(1+float64(sub+1)/histSub, oct) * histMinSec
	if b == 0 {
		lo = 0
	}
	return lo, hi
}

// Record adds one successful sample.
func (h *Histogram) Record(d time.Duration) { h.RecordSeconds(d.Seconds()) }

// RecordSeconds adds one successful sample given in seconds.
func (h *Histogram) RecordSeconds(sec float64) {
	if sec < 0 {
		sec = 0
	}
	h.counts[bucketOf(sec)]++
	h.n++
	h.min = math.Min(h.min, sec)
	h.max = math.Max(h.max, sec)
}

// Fail counts one failed or refused operation.
func (h *Histogram) Fail() { h.failures++ }

// Count is the number of operations recorded, failures included.
func (h *Histogram) Count() uint64 { return h.n + h.failures }

// Failures is the number of failed operations recorded.
func (h *Histogram) Failures() uint64 { return h.failures }

// Quantile returns the q-quantile in seconds and whether it counts under
// the ten-beyond rule. A quantile that falls among the failures is +Inf.
func (h *Histogram) Quantile(q float64) (float64, bool) {
	total := h.Count()
	if total == 0 {
		return 0, false
	}
	rank := uint64(math.Ceil(q * float64(total))) // 1-based
	if rank < 1 {
		rank = 1
	}
	ok := total-rank >= Beyond
	if rank > h.n {
		return math.Inf(1), ok
	}
	var seen uint64
	for b, c := range h.counts {
		if c == 0 || seen+c < rank {
			seen += c
			continue
		}
		lo, hi := bucketBounds(b)
		lo, hi = math.Max(lo, h.min), math.Min(hi, h.max)
		// Place the c samples evenly inside [lo, hi]; rank picks one.
		pos := (float64(rank-seen) - 0.5) / float64(c)
		return lo + pos*(hi-lo), ok
	}
	return h.max, ok
}

// HighestCounted is the highest of the usual reporting quantiles that
// counts under the ten-beyond rule, with its label (empty when none does).
func (h *Histogram) HighestCounted() (string, float64) {
	for _, p := range []struct {
		label string
		q     float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.90}, {"p50", 0.50}} {
		if v, ok := h.Quantile(p.q); ok {
			return p.label, v
		}
	}
	return "", 0
}

// Summary renders count, failures, p50, the highest counted percentile
// and max in milliseconds.
func (h *Histogram) Summary() string {
	p50, _ := h.Quantile(0.5)
	label, tail := h.HighestCounted()
	if label == "" {
		label = "tail"
	}
	return fmt.Sprintf("n=%d failed=%d p50=%.3fms %s=%.3fms max=%.3fms",
		h.Count(), h.failures, p50*1e3, label, tail*1e3, h.max*1e3)
}

// OpenLoop paces an open-loop request stream: request i is due at
// start + (i + u_i)/rate, u_i uniform in [0, 1) from the workload seed,
// whatever happened to earlier ones, and its latency is timed from when
// it was due, so a stall charges the wait it imposes on every later
// request. The jitter keeps two streams of related rates from locking
// into one fixed phase for a whole run. Lateness — how far behind its
// due time the generator actually sent — is recorded separately, and a
// backlog that grows over the run is flagged.
type OpenLoop struct {
	Start    time.Time
	Interval time.Duration
	N        int
	// Lateness holds the send delay behind the due time of each request.
	Lateness *Histogram
	offsets  []time.Duration // due time of each request after Start
	late     []float64       // per request, seconds, for the backlog trend
}

// NewOpenLoop schedules n requests at the given rate per second, jittered
// by r.
func NewOpenLoop(start time.Time, rate float64, n int, r *rand.Rand) *OpenLoop {
	o := &OpenLoop{
		Start:    start,
		Interval: time.Duration(float64(time.Second) / rate),
		N:        n,
		Lateness: NewHistogram(),
		offsets:  make([]time.Duration, n),
		late:     make([]float64, 0, n),
	}
	for i := range o.offsets {
		o.offsets[i] = time.Duration((float64(i) + r.Float64()) * float64(o.Interval))
	}
	return o
}

// Due is request i's due time.
func (o *OpenLoop) Due(i int) time.Time { return o.Start.Add(o.offsets[i]) }

// Wait sleeps until request i is due (returning at once when already
// late), then records and returns the due time.
func (o *OpenLoop) Wait(i int) time.Time {
	due := o.Due(i)
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
	late := time.Since(due)
	o.Lateness.Record(late)
	o.late = append(o.late, late.Seconds())
	return due
}

// BacklogGrows reports whether the generator fell further behind over the
// run: the mean lateness of the last quarter of requests exceeds the
// first quarter's by more than one interval. A steady lateness is
// scheduling noise; a growing one means the offered rate exceeds what
// the system sustains, and latencies then measure the queue.
func (o *OpenLoop) BacklogGrows() bool {
	q := len(o.late) / 4
	if q == 0 {
		return false
	}
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	return mean(o.late[len(o.late)-q:])-mean(o.late[:q]) > o.Interval.Seconds()
}
