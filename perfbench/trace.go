package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call at a layer boundary. Spans of one client
// request share Req; Parent links a span to the span that caused it.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Role   string `json:"role"`            // single, coord, node0..
	Route  string `json:"route,omitempty"` // http and cluster spans
	Start  int64  `json:"start_ns"`        // since the tracer started
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
	N      int64  `json:"n,omitempty"`      // updates carried
	EstNS  int64  `json:"est_ns,omitempty"` // estimator time inside an http span
	Status int    `json:"status,omitempty"`
	Err    bool   `json:"err,omitempty"`
	Key    string `json:"key,omitempty"` // idempotency key of a forward
}

// Dur is the span's duration in seconds.
func (s Span) Dur() float64 { return float64(s.End-s.Start) / 1e9 }

// Tracer keeps spans in memory (written out at exit) plus counters for
// calls too hot to span one by one (estimator evaluations).
type Tracer struct {
	t0    time.Time
	ids   atomic.Int64
	reqs  atomic.Int64
	mu    sync.Mutex
	spans []Span
	// est is per estimator family: calls and nanoseconds in Estimate.
	est    map[string]*estCounter
	estNS  atomic.Int64 // all families
	errors sync.Map     // layer → *atomic.Int64
	// window bounds the measured phase (set by Reset and Freeze);
	// frozenEst holds the estimator counters at Freeze.
	winStart, winEnd int64
	frozenEst        map[string][2]int64 // family → calls, ns
	frozenEstNS      int64
}

type estCounter struct {
	calls atomic.Int64
	ns    atomic.Int64
}

// EstFamilies are the estimator families the registry wrapper times.
var EstFamilies = []string{"lstar", "ht", "ustar", "voptimal", "order"}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer {
	t := &Tracer{t0: time.Now(), est: map[string]*estCounter{}}
	for _, f := range EstFamilies {
		t.est[f] = &estCounter{}
	}
	return t
}

func (t *Tracer) now() int64 { return int64(time.Since(t.t0)) }

type spanKey struct{}

// spanRef is what a context carries: the enclosing span and request.
type spanRef struct{ id, req int64 }

func fromContext(ctx context.Context) spanRef {
	r, _ := ctx.Value(spanKey{}).(spanRef)
	return r
}

// Active is a span being timed.
type Active struct {
	t    *Tracer
	span Span
}

// Begin opens a span under the context's span (a new request when none).
func (t *Tracer) Begin(ctx context.Context, name, role string) (context.Context, *Active) {
	ref := fromContext(ctx)
	return t.begin(ctx, name, role, ref.id, ref.req)
}

func (t *Tracer) begin(ctx context.Context, name, role string, parent, req int64) (context.Context, *Active) {
	if req == 0 {
		req = t.reqs.Add(1)
	}
	a := &Active{t: t, span: Span{ID: t.ids.Add(1), Parent: parent, Req: req, Name: name, Role: role, Start: t.now()}}
	return context.WithValue(ctx, spanKey{}, spanRef{id: a.span.ID, req: req}), a
}

// End closes the span, counting an error against its layer.
func (a *Active) End(err error) {
	a.span.End = a.t.now()
	if err != nil {
		a.span.Err = true
		a.t.countError(a.span.Name)
	}
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, a.span)
	a.t.mu.Unlock()
}

func (t *Tracer) countError(layer string) {
	c, _ := t.errors.LoadOrStore(layer, new(atomic.Int64))
	c.(*atomic.Int64).Add(1)
}

func (t *Tracer) errorCount(prefix string) float64 {
	n := int64(0)
	t.errors.Range(func(k, v any) bool {
		if len(k.(string)) >= len(prefix) && k.(string)[:len(prefix)] == prefix {
			n += v.(*atomic.Int64).Load()
		}
		return true
	})
	return float64(n)
}

// Reset starts the measured phase: spans and counters so far (set-up,
// preload) are dropped.
func (t *Tracer) Reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.winStart, t.winEnd = t.now(), 0
	t.mu.Unlock()
	for _, c := range t.est {
		c.calls.Store(0)
		c.ns.Store(0)
	}
	t.estNS.Store(0)
	t.errors.Range(func(k, _ any) bool { t.errors.Delete(k); return true })
}

// Freeze ends the measured phase (the crash that follows is recorded
// but falls outside the busy-share window).
func (t *Tracer) Freeze() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.winEnd != 0 {
		return
	}
	t.winEnd = t.now()
	t.frozenEst = map[string][2]int64{}
	for f, c := range t.est {
		t.frozenEst[f] = [2]int64{c.calls.Load(), c.ns.Load()}
	}
	t.frozenEstNS = t.estNS.Load()
}

// windowed returns the spans of all that lie inside the measured phase.
func (t *Tracer) windowed(all []Span) []Span {
	var win []Span
	for _, s := range all {
		if s.Start >= t.winStart && s.End <= t.winEnd {
			win = append(win, s)
		}
	}
	return win
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteSpans writes the spans as JSON lines.
func (t *Tracer) WriteSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// parentHeader carries a span id across HTTP hops inside the traced
// deployment (coordinator → node), so node handler spans join the
// request that caused them.
const parentHeader = "X-Perfbench-Span"

// httpWrap times every request a daemon serves, per route. The span
// joins the caller's request when the parent header is present.
func (t *Tracer) httpWrap(role string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var parent, req int64
		if v := r.Header.Get(parentHeader); v != "" {
			var ref spanRef
			if _, err := fmt.Sscanf(v, "%d/%d", &ref.id, &ref.req); err == nil {
				parent, req = ref.id, ref.req
			}
		}
		ctx, a := t.begin(r.Context(), "http", role, parent, req)
		a.span.Route = r.URL.Path
		est0 := t.estNS.Load()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(sw, r.WithContext(ctx))
		a.span.Status = sw.status
		// Estimator time while the handler ran: queries are the only
		// evaluators besides push rounds, which no workload overlaps with
		// them.
		a.span.EstNS = t.estNS.Load() - est0
		var err error
		if sw.status >= 400 {
			err = fmt.Errorf("status %d", sw.status)
		}
		a.End(err)
	})
}

// statusWriter records the status code and keeps flushing available for
// the SSE handler.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// quantile is the q-quantile of xs (seconds) by the histogram's rule.
func quantile(xs []float64, q float64) float64 {
	h := NewHistogram()
	for _, x := range xs {
		h.RecordSeconds(x)
	}
	v, _ := h.Quantile(q)
	return v
}

// selfTime is a span's duration minus the union of its children's
// intervals, clipped to the span.
func selfTime(s Span, children []Span) float64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := int64(0), int64(-1)
	for _, v := range ivs {
		if v.a > end {
			covered += v.b - v.a
			end = v.b
		} else if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	return float64(s.End-s.Start-covered) / 1e9
}

// contained returns, per span of outer, the spans of inner that lie
// within its interval on the same role: the attribution for calls that
// carry no context (store calls under the engine's shard lock), sound
// because one connection drives them sequentially.
func contained(outer, inner []Span) map[int64][]Span {
	sort.Slice(inner, func(i, j int) bool { return inner[i].Start < inner[j].Start })
	out := map[int64][]Span{}
	for _, o := range outer {
		i := sort.Search(len(inner), func(i int) bool { return inner[i].Start >= o.Start })
		for ; i < len(inner) && inner[i].Start < o.End; i++ {
			if inner[i].Role == o.Role && inner[i].End <= o.End {
				out[o.ID] = append(out[o.ID], inner[i])
			}
		}
	}
	return out
}

func spansNamed(spans []Span, name string, keep func(Span) bool) []Span {
	var out []Span
	for _, s := range spans {
		if s.Name == name && (keep == nil || keep(s)) {
			out = append(out, s)
		}
	}
	return out
}

func durations(spans []Span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = s.Dur()
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
