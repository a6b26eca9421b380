package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// clientTransport marks the generator's requests in a traced run: each
// gets a request id the daemon's handler span adopts, and a "client"
// span from send to body close, so the HTTP gap (client latency minus
// handler span) is measured per request.
type clientTransport struct {
	tr   *Tracer
	base http.RoundTripper
}

func (c *clientTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	_, a := c.tr.begin(r.Context(), "client", "gen", 0, 0)
	a.span.Route = r.URL.Path
	r = r.Clone(r.Context())
	r.Header.Set(parentHeader, fmt.Sprintf("0/%d", a.span.Req))
	resp, err := c.base.RoundTrip(r)
	if err != nil {
		a.End(err)
		return nil, err
	}
	a.span.Status = resp.StatusCode
	resp.Body = &timedBody{ReadCloser: resp.Body, a: a}
	return resp, nil
}

// conn returns one generator connection, traced in a traced run.
func (b *Bench) conn() *http.Client {
	c := newConn()
	if b.Tracer != nil {
		c.Transport = &clientTransport{tr: b.Tracer, base: c.Transport}
	}
	return c
}

// PerLayer are the traced run's metrics, in BENCHMARK.json order.
var PerLayer = func() []Metric {
	ms := []Metric{
		{"store.append.calls", "count"},
		{"store.append.records_per_batch", "records"},
		{"store.append.p50_us", "us"},
		{"store.append.p99_us", "us"},
		{"store.append.bytes_per_update", "B"},
		{"store.sync.calls", "count"},
		{"store.sync.p50_us", "us"},
		{"store.sync.p99_us", "us"},
		{"store.busy_share", "ratio"},
		{"store.recover.s", "s"},
		{"store.recover.updates_per_s", "updates/s"},
		{"store.checkpoint.s", "s"},
		{"store.errors", "count"},
		{"engine.ingest.calls", "count"},
		{"engine.ingest.self_p50_us", "us"},
		{"engine.ingest.self_p99_us", "us"},
		{"engine.ingest.new_key_ratio", "ratio"},
		{"engine.ingest.visible_ratio", "ratio"},
		{"engine.view.calls", "count"},
		{"engine.view.p50_ms", "ms"},
		{"engine.view.p99_ms", "ms"},
		{"engine.view.rebuild_ratio", "ratio"},
		{"engine.view.partitions_reused_ratio", "ratio"},
		{"engine.view.threshold_refresh_ratio", "ratio"},
		{"engine.errors", "count"},
	}
	for _, f := range EstFamilies {
		ms = append(ms, Metric{"estreg." + f + ".calls_per_query", "calls"}, Metric{"estreg." + f + ".us_per_call", "us"})
	}
	ms = append(ms, []Metric{
		{"estreg.busy_share", "ratio"},
		{"estreg.errors", "count"},
		{"server.query.p50_ms", "ms"},
		{"server.query.p99_ms", "ms"},
		{"server.query.self_p50_ms", "ms"},
		{"server.stream.self_p50_us", "us"},
		{"server.push.rounds", "count"},
		{"server.push.p50_ms", "ms"},
		{"server.errors", "count"},
		{"http.gap_p50_ms", "ms"},
		{"http.gap_p99_ms", "ms"},
		{"cluster.sync.calls", "count"},
		{"cluster.sync.p50_ms", "ms"},
		{"cluster.sync.p99_ms", "ms"},
		{"cluster.fetch.calls", "count"},
		{"cluster.fetch.not_modified_ratio", "ratio"},
		{"cluster.fetch.bytes_per_sync", "B"},
		{"cluster.fetch.p50_ms", "ms"},
		{"cluster.node_dump.p50_ms", "ms"},
		{"cluster.transfer.p50_ms", "ms"},
		{"cluster.merge.self_p50_ms", "ms"},
		{"cluster.forward.calls", "count"},
		{"cluster.forward.p50_ms", "ms"},
		{"cluster.forward.p99_ms", "ms"},
		{"cluster.forward.retries", "count"},
		{"cluster.breaker.short_circuits", "count"},
		{"cluster.errors", "count"},
	}...)
	for _, m := range overheadMetrics() {
		ms = append(ms, Metric{"trace.overhead." + m.Name, "%"})
	}
	return ms
}()

// overheadMetrics are the end-to-end metrics a traced run can compare
// with an untraced one: all but daemon_peak_rss_mb, since in process the
// daemons share the generator's and the reference's address space and
// their footprint cannot be told apart.
func overheadMetrics() []Metric {
	var ms []Metric
	for _, m := range EndToEnd {
		if m.Name != "daemon_peak_rss_mb" {
			ms = append(ms, m)
		}
	}
	return ms
}

// runTraced runs the workload untraced (real daemons), then traced (the
// same components in process with timing wrappers), and reports the
// per-layer metrics, the reconciliation table and the tracing overhead.
func runTraced(ctx context.Context, b *Bench, workload string, drive func(*Bench, context.Context) (*Outcome, error)) (result, error) {
	plain, err := drive(b, ctx)
	if err != nil {
		return result{}, fmt.Errorf("untraced run: %w", err)
	}
	tr := NewTracer()
	tb := *b
	tb.Tracer = tr
	traced, err := drive(&tb, ctx)
	if err != nil {
		return result{}, fmt.Errorf("traced run: %w", err)
	}
	if tb.traced == nil {
		return result{}, fmt.Errorf("traced run kept no deployment")
	}
	all := tr.Spans()
	win := tr.windowed(all)
	m := layerMetrics(tr, tb.traced, all, win)
	for _, e := range overheadMetrics() {
		m["trace.overhead."+e.Name] = 100 * ratio(traced.Metrics[e.Name]-plain.Metrics[e.Name], plain.Metrics[e.Name])
	}
	if b.SpanDir != "" {
		if err := os.MkdirAll(b.SpanDir, 0o755); err == nil {
			path := filepath.Join(b.SpanDir, fmt.Sprintf("spans-%s-%d.jsonl", workload, b.Seed))
			if err := tr.WriteSpans(path); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			} else {
				fmt.Println("spans written to", path)
			}
		}
	}

	fmt.Printf("== %s (untraced, real daemons)\n", workload)
	for _, l := range plain.Report {
		fmt.Println(l)
	}
	fmt.Printf("== %s (traced, in process)\n", workload)
	for _, l := range traced.Report {
		fmt.Println(l)
	}
	printReconciliation(workload, win)
	fmt.Println("-- tracing overhead: traced in-process run vs untraced run")
	fmt.Printf("%-24s %14s %14s %9s\n", "metric", "untraced", "traced", "overhead")
	for _, e := range overheadMetrics() {
		fmt.Printf("%-24s %14.4f %14.4f %8.1f%%\n", e.Name, plain.Metrics[e.Name], traced.Metrics[e.Name], m["trace.overhead."+e.Name])
	}
	var oracle Oracle
	oracle.Mismatches = append(append(oracle.Mismatches, plain.Oracle.Mismatches...), traced.Oracle.Mismatches...)
	out := &Outcome{
		Metrics:   m,
		Attempted: plain.Attempted + traced.Attempted,
		Failed:    plain.Failed + traced.Failed,
		Oracle:    oracle,
	}
	return reportOutcome(workload+" per layer", out, PerLayer, nil), nil
}

// layerMetrics derives every per-layer metric from the spans (all, and
// win: those of the measured phase) and the counter deltas of the
// measured phase. Layers a workload does not exercise report 0.
func layerMetrics(tr *Tracer, sys *traceSystem, all, win []Span) map[string]float64 {
	window := float64(tr.winEnd-tr.winStart) / 1e9
	serving := "single"
	if sys.coord != nil {
		serving = "coord"
	}
	d := *sys.frozen
	base := sys.base
	m := map[string]float64{}

	// internal/store
	appends := spansNamed(win, "store.append", nil)
	syncs := spansNamed(win, "store.sync", nil)
	streams := spansNamed(win, "http", func(s Span) bool { return s.Route == "/v1/stream" && s.Role == serving })
	m["store.append.calls"] = float64(len(appends))
	m["store.append.records_per_batch"] = ratio(float64(len(appends)), float64(len(streams)))
	m["store.append.p50_us"] = quantile(durations(appends), 0.5) * 1e6
	m["store.append.p99_us"] = quantile(durations(appends), 0.99) * 1e6
	var walBytes, walUpdates int64
	for _, s := range appends {
		walBytes += s.Bytes
		walUpdates += s.N
	}
	m["store.append.bytes_per_update"] = ratio(float64(walBytes), float64(walUpdates))
	m["store.sync.calls"] = float64(len(syncs))
	m["store.sync.p50_us"] = quantile(durations(syncs), 0.5) * 1e6
	m["store.sync.p99_us"] = quantile(durations(syncs), 0.99) * 1e6
	busy := 0.0
	for _, s := range append(append([]Span(nil), appends...), syncs...) {
		busy += s.Dur()
	}
	m["store.busy_share"] = ratio(busy, window)
	recovers := spansNamed(all, "store.recover", func(s Span) bool { return s.Start >= tr.winEnd })
	var recS, recRate []float64
	for _, s := range recovers {
		recS = append(recS, s.Dur())
		recRate = append(recRate, ratio(float64(s.N), s.Dur()))
	}
	if len(recS) > 0 {
		m["store.recover.s"] = median(recS)
		m["store.recover.updates_per_s"] = median(recRate)
	}
	ckpts := spansNamed(all, "store.checkpoint", func(s Span) bool { return s.Start >= tr.winEnd })
	if len(ckpts) > 0 {
		m["store.checkpoint.s"] = median(durations(ckpts))
	}
	m["store.errors"] = tr.errorCount("store.")

	// internal/engine, ingest side: folds on the nodes (not the
	// coordinator's routing, which is cluster.forward).
	ingests := spansNamed(win, "engine.ingest", func(s Span) bool { return s.Role != "coord" })
	storeIn := contained(ingests, append(append([]Span(nil), appends...), syncs...))
	var ingSelf []float64
	for _, s := range ingests {
		ingSelf = append(ingSelf, selfTime(s, storeIn[s.ID]))
	}
	m["engine.ingest.calls"] = float64(len(ingests))
	m["engine.ingest.self_p50_us"] = quantile(ingSelf, 0.5) * 1e6
	m["engine.ingest.self_p99_us"] = quantile(ingSelf, 0.99) * 1e6
	dIngests := float64(d.ingests - base.ingests)
	m["engine.ingest.new_key_ratio"] = ratio(float64(d.keys-base.keys), dIngests)
	m["engine.ingest.visible_ratio"] = ratio(float64(d.version-base.version), dIngests)

	// internal/engine, read side (on a coordinator the view is the sync).
	views := spansNamed(win, "engine.view", func(s Span) bool { return s.Role == serving })
	m["engine.view.calls"] = float64(len(views))
	m["engine.view.p50_ms"] = quantile(durations(views), 0.5) * 1e3
	m["engine.view.p99_ms"] = quantile(durations(views), 0.99) * 1e3
	rebuilds := float64(d.rebuilds - base.rebuilds)
	m["engine.view.rebuild_ratio"] = ratio(rebuilds, float64(len(views)))
	reused, rebuilt := float64(d.reused-base.reused), float64(d.rebuilt-base.rebuilt)
	m["engine.view.partitions_reused_ratio"] = ratio(reused, reused+rebuilt)
	m["engine.view.threshold_refresh_ratio"] = ratio(float64(d.threshRefreshes-base.threshRefreshes), rebuilds)
	m["engine.errors"] = tr.errorCount("engine.")

	// internal/estreg
	queries := spansNamed(win, "http", func(s Span) bool { return s.Route == "/v1/query" && s.Role == serving })
	for _, f := range EstFamilies {
		c := tr.frozenEst[f]
		m["estreg."+f+".calls_per_query"] = ratio(float64(c[0]), float64(len(queries)))
		m["estreg."+f+".us_per_call"] = ratio(float64(c[1]), float64(c[0])) / 1e3
	}
	m["estreg.busy_share"] = ratio(float64(tr.frozenEstNS)/1e9, window)
	m["estreg.errors"] = tr.errorCount("estreg")

	// internal/server
	children := map[int64][]Span{}
	for _, s := range win {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	m["server.query.p50_ms"] = quantile(durations(queries), 0.5) * 1e3
	m["server.query.p99_ms"] = quantile(durations(queries), 0.99) * 1e3
	var qSelf, sSelf []float64
	for _, q := range queries {
		qSelf = append(qSelf, selfTime(q, children[q.ID])-float64(q.EstNS)/1e9)
	}
	for _, s := range streams {
		sSelf = append(sSelf, selfTime(s, children[s.ID]))
	}
	m["server.query.self_p50_ms"] = quantile(qSelf, 0.5) * 1e3
	m["server.stream.self_p50_us"] = quantile(sSelf, 0.5) * 1e6
	pushes := spansNamed(win, "engine.view", func(s Span) bool { return s.Role == serving && s.Parent == 0 })
	m["server.push.rounds"] = float64(len(pushes))
	m["server.push.p50_ms"] = quantile(durations(pushes), 0.5) * 1e3
	m["server.errors"] = tr.errorCount("http")
	gaps := httpGaps(win)
	m["http.gap_p50_ms"] = quantile(gaps, 0.5) * 1e3
	m["http.gap_p99_ms"] = quantile(gaps, 0.99) * 1e3

	// internal/cluster
	if sys.coord != nil {
		fetches := spansNamed(win, "cluster.fetch", nil)
		forwards := spansNamed(win, "cluster.forward", nil)
		dSyncs := float64(d.syncs - base.syncs)
		m["cluster.sync.calls"] = dSyncs
		m["cluster.sync.p50_ms"] = m["engine.view.p50_ms"]
		m["cluster.sync.p99_ms"] = m["engine.view.p99_ms"]
		notMod := 0
		var dumps, transfers, mergeSelf []float64
		for _, f := range fetches {
			if f.Status == http.StatusNotModified {
				notMod++
				continue
			}
			for _, c := range children[f.ID] {
				if c.Name == "http" && c.Route == "/v1/sketch" {
					dumps = append(dumps, c.Dur())
					transfers = append(transfers, f.Dur()-c.Dur())
				}
			}
		}
		for _, v := range views {
			var got []Span
			for _, c := range children[v.ID] {
				if c.Name == "cluster.fetch" && c.Status == http.StatusOK {
					got = append(got, c)
				}
			}
			if len(got) > 0 {
				mergeSelf = append(mergeSelf, selfTime(v, got))
			}
		}
		m["cluster.fetch.calls"] = float64(len(fetches))
		m["cluster.fetch.not_modified_ratio"] = ratio(float64(notMod), float64(len(fetches)))
		m["cluster.fetch.bytes_per_sync"] = ratio(float64(d.stateBytes-base.stateBytes), dSyncs)
		m["cluster.fetch.p50_ms"] = quantile(durations(fetches), 0.5) * 1e3
		m["cluster.node_dump.p50_ms"] = quantile(dumps, 0.5) * 1e3
		m["cluster.transfer.p50_ms"] = quantile(transfers, 0.5) * 1e3
		m["cluster.merge.self_p50_ms"] = quantile(mergeSelf, 0.5) * 1e3
		keys := map[string]bool{}
		for _, f := range forwards {
			keys[f.Key] = true
		}
		m["cluster.forward.calls"] = float64(len(forwards))
		m["cluster.forward.p50_ms"] = quantile(durations(forwards), 0.5) * 1e3
		m["cluster.forward.p99_ms"] = quantile(durations(forwards), 0.99) * 1e3
		m["cluster.forward.retries"] = float64(len(forwards) - len(keys))
		m["cluster.breaker.short_circuits"] = float64(d.shortCircuits - base.shortCircuits)
		m["cluster.errors"] = tr.errorCount("cluster.")
	}
	for _, pm := range PerLayer {
		if v, ok := m[pm.Name]; ok && (math.IsNaN(v) || math.IsInf(v, 0)) {
			m[pm.Name] = 0
		} else if !ok {
			m[pm.Name] = 0
		}
	}
	return m
}

// httpGaps pairs each generator request with the daemon handler span of
// the same request id: client latency minus handler time.
func httpGaps(win []Span) []float64 {
	handler := map[int64]Span{}
	for _, s := range win {
		if s.Name == "http" && s.Parent == 0 {
			handler[s.Req] = s
		}
	}
	var gaps []float64
	for _, s := range win {
		if s.Name != "client" || (s.Route != "/v1/query" && s.Route != "/v1/stream") {
			continue
		}
		if h, ok := handler[s.Req]; ok {
			gaps = append(gaps, s.Dur()-h.Dur())
		}
	}
	return gaps
}

// row is one line of the reconciliation table.
type row struct {
	layer    string
	p50, p99 float64 // seconds
}

// printReconciliation prints, per request type, where a request's time
// goes: p50 and p99 of every layer's self time along the blocking path,
// and the gap between the sum of the layer medians and the end-to-end
// median. win is the measured phase's spans.
func printReconciliation(workload string, win []Span) {
	byReq := map[int64][]Span{}
	var store []Span
	for _, s := range win {
		byReq[s.Req] = append(byReq[s.Req], s)
		if s.Name == "store.append" || s.Name == "store.sync" {
			store = append(store, s)
		}
	}
	for _, kind := range []string{"/v1/stream", "/v1/query"} {
		layers := map[string][]float64{}
		var e2e []float64
		for _, s := range win {
			if s.Name != "client" || s.Route != kind {
				continue
			}
			parts := breakdown(s, byReq[s.Req], store)
			if parts == nil {
				continue
			}
			e2e = append(e2e, s.Dur())
			for k, v := range parts {
				layers[k] = append(layers[k], v)
			}
		}
		if len(e2e) == 0 {
			continue
		}
		var rows []row
		for k, xs := range layers {
			rows = append(rows, row{k, quantile(xs, 0.5), quantile(xs, 0.99)})
		}
		sort.Slice(rows, func(i, j int) bool { return layerOrder(rows[i].layer) < layerOrder(rows[j].layer) })
		fmt.Printf("-- where a %s request's time goes (%s, %d traced requests)\n", kind, workload, len(e2e))
		fmt.Printf("%-34s %12s %12s\n", "layer (self time)", "p50 ms", "p99 ms")
		sum50 := 0.0
		for _, r := range rows {
			fmt.Printf("%-34s %12.3f %12.3f\n", r.layer, r.p50*1e3, r.p99*1e3)
			sum50 += r.p50
		}
		e50, e99 := quantile(e2e, 0.5), quantile(e2e, 0.99)
		fmt.Printf("%-34s %12.3f\n", "sum of layer p50s", sum50*1e3)
		fmt.Printf("%-34s %12.3f %12.3f\n", "end to end (traced client)", e50*1e3, e99*1e3)
		fmt.Printf("%-34s %12.3f  (%.1f%% of end to end)\n", "gap: end to end - sum of p50s", (e50-sum50)*1e3, 100*ratio(e50-sum50, e50))
	}
}

var layerRank = []string{"http gap", "server", "cluster.forward", "cluster.fetch", "cluster.merge", "engine.view", "estreg", "engine.ingest", "store.append", "store.sync"}

func layerOrder(l string) int {
	for i, p := range layerRank {
		if strings.HasPrefix(l, p) {
			return i
		}
	}
	return len(layerRank)
}

// breakdown splits one client request into self times along its blocking
// path. The store calls run under the engine's shard lock without a
// context, so they are attributed to the engine span containing them.
func breakdown(client Span, spans, store []Span) map[string]float64 {
	var handler *Span
	for i := range spans {
		if spans[i].Name == "http" && spans[i].Parent == 0 {
			handler = &spans[i]
		}
	}
	if handler == nil {
		return nil
	}
	kids := map[int64][]Span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	parts := map[string]float64{"http gap (client - handler)": client.Dur() - handler.Dur()}
	est := 0.0
	if client.Route == "/v1/query" {
		est = float64(handler.EstNS) / 1e9
		parts["estreg (estimators)"] = est
	}
	parts["server (handler self)"] = selfTime(*handler, kids[handler.ID]) - est
	for _, c := range kids[handler.ID] {
		switch c.Name {
		case "engine.view":
			var fetches []Span
			for _, f := range kids[c.ID] {
				if f.Name == "cluster.fetch" {
					fetches = append(fetches, f)
				}
			}
			if len(fetches) > 0 {
				parts["cluster.merge (sync self)"] += selfTime(c, fetches)
				parts["cluster.fetch (union)"] += c.Dur() - selfTime(c, fetches)
			} else {
				parts["engine.view"] += c.Dur()
			}
		case "engine.ingest":
			var fwd []Span
			for _, f := range kids[c.ID] {
				if f.Name == "cluster.forward" {
					fwd = append(fwd, f)
				}
			}
			if len(fwd) > 0 {
				parts["engine.ingest (routing self)"] += selfTime(c, fwd)
				parts["cluster.forward (union)"] += c.Dur() - selfTime(c, fwd)
				continue
			}
			var inside []Span
			for _, s := range store {
				if s.Role == c.Role && s.Start >= c.Start && s.End <= c.End {
					inside = append(inside, s)
					parts[s.Name] += s.Dur()
				}
			}
			parts["engine.ingest (self)"] += selfTime(c, inside)
		}
	}
	return parts
}
