package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/streamclient"
)

// Workload parameters. Rates and counts are fixed here, not measured per
// run, so that two commits receive identical offered load.
const (
	// SetupRepeats is how many times a run boots and preloads its
	// deployment; setup_s is the median, the last boot is measured.
	SetupRepeats = 5

	// ingest-durable
	durablePreloadKeys = 32768
	durableUpdatesPerS = 80000 // × seconds = the fixed update count
	durableNewKeyShare = 0.10
	durableQueryRate   = 300 // cached-read phase, queries/s
	durableQuerySecs   = 4
	durableRecoveries  = 5 // crash/restart cycles; recovery_s is their median

	// query-mix
	mixPreloadKeys  = 65536
	mixQueryRate    = 30  // /v1/query batches per second
	mixWriteRate    = 100 // write requests per second
	mixWriteUpdates = 4
	mixDirtyEvery   = 12  // every n-th write dirties a partition
	mixThreshEvery  = 500 // every n-th write also moves a threshold
	mixSubsetEvery  = 300 // every n-th query batch adds ustar and voptimal
	mixUStarKeys    = 1
	mixVOptKeys     = 4
	mixRecoveries   = 5

	// cluster-3node
	clusterNodes       = 3
	clusterPreloadKeys = 65536
	clusterNewKeyShare = 0.005
	clusterQueryRate   = 5
	clusterThink       = 10 * time.Millisecond // between an ack and the next batch
	clusterRecoveries  = 15                    // a node restart takes milliseconds
)

// Outcome is one workload run's measurements.
type Outcome struct {
	Metrics   map[string]float64 // end-to-end, by BENCHMARK.json name
	Attempted int
	Failed    int
	Oracle    Oracle
	Report    []string // human-readable lines
	// ingestRates are the updates/s of every bulk load in the run: each
	// set-up's preload and each in-memory recovery's replay.
	ingestRates []float64
}

func newOutcome() *Outcome {
	return &Outcome{Metrics: map[string]float64{}}
}

func (o *Outcome) logf(format string, args ...any) {
	o.Report = append(o.Report, fmt.Sprintf(format, args...))
}

// percentileQ maps a percentile label to its quantile.
var percentileQ = map[string]float64{"p50": 0.5, "p90": 0.9, "p99": 0.99}

// percentiles stores name_p50_ms etc. from h, noting uncounted ones.
func (o *Outcome) percentiles(name string, h *Histogram, labels ...string) {
	o.Attempted += int(h.Count())
	o.Failed += int(h.Failures())
	o.logf("%-10s %s", name, h.Summary())
	for _, p := range labels {
		v, ok := h.Quantile(percentileQ[p])
		label := name + "_" + p + "_ms"
		if !ok {
			o.logf("warning: %s does not count: fewer than %d of %d samples lie beyond it", label, Beyond, h.Count())
		}
		o.Metrics[label] = v * 1e3
	}
}

// Bench is one benchmark invocation.
type Bench struct {
	Bin     string // monestd binary (untraced runs)
	Work    string // scratch directory inside the checkout
	Seed    uint64
	Seconds float64
	Tracer  *Tracer // nil: untraced
	SpanDir string  // where a traced run writes its spans
	boots   int
	// traced is the measured deployment of a traced run.
	traced *traceSystem
}

func (b *Bench) boot(t Topology) (System, error) {
	b.boots++
	dir := filepath.Join(b.Work, fmt.Sprintf("boot%d", b.boots))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if b.Tracer != nil {
		return bootTraced(b.Tracer, dir, t)
	}
	return bootProcs(b.Bin, dir, t)
}

// setup boots the topology and preloads it SetupRepeats times and
// returns the last deployment. It records setup_s, the median set-up time
// (launch until /readyz answers and the preload is acknowledged), and
// each preload's throughput.
func (b *Bench) setup(ctx context.Context, c *http.Client, t Topology, preload []engine.Update, out *Outcome) (System, error) {
	var setups, rates []float64
	var sys System
	for i := 0; i < SetupRepeats; i++ {
		if sys != nil {
			sys.Close()
		}
		start := time.Now()
		var err error
		if sys, err = b.boot(t); err != nil {
			return nil, err
		}
		if err := sys.WaitReady(ctx, c); err != nil {
			sys.Close()
			return nil, err
		}
		loaded := time.Now()
		if err := ingestAll(ctx, c, sys.URL(), preload); err != nil {
			sys.Close()
			return nil, fmt.Errorf("preload: %w", err)
		}
		done := time.Now()
		setups = append(setups, done.Sub(start).Seconds())
		rates = append(rates, float64(len(preload))/done.Sub(loaded).Seconds())
	}
	if ts, ok := sys.(*traceSystem); ok {
		ts.markMeasured()
		b.traced = ts
	}
	out.Metrics["setup_s"] = median(setups)
	out.Attempted += SetupRepeats
	out.logf("setup      %d boots: median %.3fs (%v), preload %d updates at median %.0f updates/s",
		SetupRepeats, median(setups), roundAll(setups), len(preload), median(rates))
	out.ingestRates = append(out.ingestRates, rates...)
	return sys, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func roundAll(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%.3f", x)
	}
	return out
}

// ackRec is one acknowledged write: when its ack arrived and the engine
// version it produced (from the reference).
type ackRec struct {
	at      time.Time
	version uint64
}

// queryRec is one answered query: when it was sent and answered, and the
// version it was answered at.
type queryRec struct {
	sent, done time.Time
	version    uint64
}

// recover runs repeats crash/restart cycles and reports their median as
// recovery_s: each crashes the target, restarts it and measures until the
// System answers /readyz and the query equals the pre-kill answer.
// Every cycle restarts from the same crashed state (a durable node's data
// directory is restored to its state at the first kill). replay, when
// set, re-sends the updates an in-memory deployment lost.
func (b *Bench) recover(ctx context.Context, c *http.Client, sys System, repeats int, qs []Query, want Answer, replay []engine.Update, out *Outcome) error {
	body := queryBody(qs)
	var times []float64
	for i := 0; i < repeats; i++ {
		if err := sys.Crash(); err != nil {
			return fmt.Errorf("crash: %w", err)
		}
		start := time.Now()
		if err := sys.Restart(ctx, c); err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		if replay != nil {
			t0 := time.Now()
			if err := ingestAll(ctx, c, sys.URL(), replay); err != nil {
				return fmt.Errorf("replay: %w", err)
			}
			out.ingestRates = append(out.ingestRates, float64(len(replay))/time.Since(t0).Seconds())
		}
		deadline := time.Now().Add(30 * time.Second)
		for {
			a, err := postQuery(ctx, c, sys.URL(), body)
			if err == nil {
				err = diffResults(a.Results, want.Results)
			}
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				out.Oracle.fail("recovered deployment never answered the pre-kill estimates (last error %v)", err)
				break
			}
			time.Sleep(time.Millisecond)
		}
		times = append(times, time.Since(start).Seconds())
	}
	out.Metrics["recovery_s"] = median(times)
	out.Attempted += repeats
	out.logf("recovery   %d SIGKILL/restart cycles to the pre-kill answer: median %.4fs (%v)",
		repeats, median(times), roundAll(times))
	return nil
}

// freshnessFromQueries times the fresh reads of a polling reader: every
// query that is the first one sent after the ack of a write that changed
// the state (its reference version is above the version before it, which
// starts at prev), from its send to its answer. Timing from max(ack,
// send) = send leaves out the generator's schedule gap between the ack
// and the next query, so the figure is the daemon's time to serve an
// answer that must reflect new writes. Each query counts once.
// checkVersion additionally demands that the answer reflect the write
// (version at least the write's), which read-your-writes guarantees on a
// single node.
func freshnessFromQueries(acks []ackRec, qrecs []queryRec, prev uint64, checkVersion bool, oracle *Oracle) *Histogram {
	h := NewHistogram()
	sort.Slice(qrecs, func(i, j int) bool { return qrecs[i].sent.Before(qrecs[j].sent) })
	j, timed := 0, -1
	for _, a := range acks {
		changed := a.version > prev
		prev = a.version
		if !changed {
			continue
		}
		for j < len(qrecs) && qrecs[j].sent.Before(a.at) {
			j++
		}
		if j == len(qrecs) {
			break // acked after the last query: no answer to time
		}
		q := qrecs[j]
		if checkVersion && q.version < a.version {
			oracle.fail("query sent after a write's ack answered version %d < the write's %d", q.version, a.version)
		}
		if j != timed {
			h.Record(q.done.Sub(q.sent))
			timed = j
		}
	}
	return h
}

// encodeBatches draws n ingest batches of BatchUpdates updates and
// encodes them as /v1/stream bodies, before a timed loop, so that the
// loop only sends and waits.
func encodeBatches(g *Gen, n int, newShare float64) [][]byte {
	bodies := make([][]byte, n)
	for i := range bodies {
		bodies[i] = encodeBatch(g.Mixed(BatchUpdates, newShare))
	}
	return bodies
}

// sendBatch posts one encoded batch and returns when it is acknowledged,
// recording the latency of the successful attempt in h. A failed attempt
// is recorded as a failure and the same body sent again: max folds are
// idempotent, so the reference, which folds each batch once, stays exact.
func sendBatch(ctx context.Context, c *http.Client, url string, body []byte, h *Histogram, out *Outcome) (time.Time, error) {
	var err error
	for try := 0; try < 3; try++ {
		t0 := time.Now()
		if err = postStream(ctx, c, url, body, BatchUpdates); err == nil {
			t1 := time.Now()
			h.Record(t1.Sub(t0))
			return t1, nil
		}
		h.Fail()
		out.logf("ingest failure: %v", err)
	}
	return time.Time{}, err
}

// refAcks folds the acknowledged batches into the reference, in the
// order they were sent, and pairs each ack time with the version its
// batch produced.
func refAcks(ref *Reference, bodies [][]byte, ackAt []time.Time) []ackRec {
	acks := make([]ackRec, len(ackAt))
	for i, at := range ackAt {
		acks[i] = ackRec{at: at, version: ref.ApplyBody(bodies[i])}
	}
	return acks
}

// runOpenLoop sends n requests at rate per second through send, timing
// each from its due time; it returns the latency histogram and the pacer.
// r jitters the schedule.
func runOpenLoop(rate float64, n int, r *rand.Rand, send func(i int) error) (*Histogram, *OpenLoop) {
	h := NewHistogram()
	ol := NewOpenLoop(time.Now(), rate, n, r)
	for i := 0; i < n; i++ {
		due := ol.Wait(i)
		if err := send(i); err != nil {
			h.Fail()
			continue
		}
		h.Record(time.Since(due))
	}
	return h, ol
}

func (out *Outcome) openLoopReport(name string, ol *OpenLoop) {
	l50, _ := ol.Lateness.Quantile(0.5)
	l99, _ := ol.Lateness.Quantile(0.99)
	flag := "steady"
	if ol.BacklogGrows() {
		flag = "GROWING BACKLOG: the offered rate exceeds what the system sustains"
	}
	out.logf("%-10s open loop %d requests every %v: generator lateness p50=%.3fms p99=%.3fms, %s",
		name, ol.N, ol.Interval, l50*1e3, l99*1e3, flag)
	out.Metrics[name+"_lateness_p99_ms"] = l99 * 1e3
}

// IngestDurable: one node with -data-dir and -fsync always. A closed
// loop of per-batch /v1/stream requests on one connection and one SSE
// subscriber on the other, then a cached-read query phase, then a
// SIGKILL and restart on the same data directory.
func (b *Bench) IngestDurable(ctx context.Context) (*Outcome, error) {
	out := newOutcome()
	connA, connB := b.conn(), b.conn()
	g := NewGen(b.Seed, Salt, false)
	preload := g.Preload(durablePreloadKeys, true)
	sys, err := b.setup(ctx, connA, Topology{Nodes: 1, Durable: true}, preload, out)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	ref := NewReference()
	ref.Apply(preload)

	subQs := []Query{sumQuery("lstar"), jaccardQuery}
	subCtx, cancelSub := context.WithCancel(ctx)
	defer cancelSub()
	sub, err := streamclient.Subscribe(subCtx, connB, sys.URL(), subscribeQuery(subQs))
	if err != nil {
		return nil, err
	}
	var (
		mu     sync.Mutex
		pushes []pushRecord
		wake   = make(chan struct{}, 1)
		subErr = make(chan error, 1)
	)
	go func() {
		for {
			p, err := sub.NextPush()
			if err != nil {
				subErr <- err
				return
			}
			mu.Lock()
			pushes = append(pushes, pushRecord{at: time.Now(), version: p.Version, results: p.Results})
			mu.Unlock()
			select {
			case wake <- struct{}{}:
			default:
			}
		}
	}()
	defer func() {
		cancelSub()
		sub.Close()
		<-subErr
	}()
	waitPush := func(v uint64) bool {
		timeout := time.After(10 * time.Second)
		for {
			mu.Lock()
			ok := len(pushes) > 0 && pushes[len(pushes)-1].version >= v
			mu.Unlock()
			if ok {
				return true
			}
			select {
			case <-wake:
			case <-timeout:
				return false
			}
		}
	}
	if !waitPush(ref.Version()) {
		return nil, fmt.Errorf("no initial push at version %d", ref.Version())
	}

	// Closed-loop ingest of a fixed update count.
	bodies := encodeBatches(g, int(b.Seconds*durableUpdatesPerS)/BatchUpdates, durableNewKeyShare)
	ack := NewHistogram()
	ackAt := make([]time.Time, len(bodies))
	start := time.Now()
	for i, body := range bodies {
		if ackAt[i], err = sendBatch(ctx, connA, sys.URL(), body, ack, out); err != nil {
			return nil, fmt.Errorf("ingest: %w", err)
		}
	}
	elapsed := time.Since(start)
	acks := refAcks(ref, bodies, ackAt)
	applied := len(bodies) * BatchUpdates
	out.Metrics["ingest_updates_per_s"] = float64(applied) / elapsed.Seconds()
	out.logf("ingest     %d updates acknowledged in %.3fs: %.0f updates/s",
		applied, elapsed.Seconds(), out.Metrics["ingest_updates_per_s"])
	out.percentiles("ingest_ack", ack, "p50", "p90", "p99")

	// Freshness: each ack to the first push at or past its version.
	final := ref.Version()
	if !waitPush(final) {
		out.Oracle.fail("no push reached the final version %d", final)
	}
	mu.Lock()
	pushed := append([]pushRecord(nil), pushes...)
	mu.Unlock()
	fresh := NewHistogram()
	j := 0
	for _, a := range acks {
		for j < len(pushed) && pushed[j].version < a.version {
			j++
		}
		if j == len(pushed) {
			fresh.Fail()
			continue
		}
		fresh.Record(max(0, pushed[j].at.Sub(a.at)))
	}
	out.percentiles("freshness", fresh, "p50", "p90", "p99")

	// Oracle: final answers against the reference, and the last push
	// against /v1/query at the same version.
	finalQs := []Query{sumQuery("lstar"), sumQuery("ht"), jaccardQuery}
	want, err := ref.Answer(finalQs)
	if err != nil {
		return nil, err
	}
	got, err := postQuery(ctx, connA, sys.URL(), queryBody(finalQs))
	if err != nil {
		return nil, err
	}
	out.Oracle.SameEstimates("final /v1/query vs reference", got, want)
	if got.Version != final {
		out.Oracle.fail("daemon version %d, reference %d", got.Version, final)
	}
	subAns, err := postQuery(ctx, connA, sys.URL(), queryBody(subQs))
	if err != nil {
		return nil, err
	}
	last := pushed[len(pushed)-1]
	if last.version != subAns.Version {
		out.Oracle.fail("last push at version %d, /v1/query at %d", last.version, subAns.Version)
	} else {
		out.Oracle.SameResults("last push vs /v1/query", last.results, subAns.Results)
	}
	cancelSub()

	// Cached-read phase: open-loop queries against the settled node.
	body := queryBody(finalQs)
	qh, ol := runOpenLoop(durableQueryRate, int(durableQueryRate*durableQuerySecs), g.Rand(), func(int) error {
		_, err := postQuery(ctx, connA, sys.URL(), body)
		return err
	})
	out.percentiles("query", qh, "p50", "p90", "p99")
	out.openLoopReport("query", ol)

	if err := b.recover(ctx, connA, sys, durableRecoveries, finalQs, got, nil, out); err != nil {
		return nil, err
	}
	out.Metrics["daemon_peak_rss_mb"] = sys.PeakRSSMB()
	return out, nil
}

// QueryMix: one in-memory node preloaded with ladder weights. Open-loop
// /v1/query batches on one connection and an open-loop trickle of small
// writes on the other.
func (b *Bench) QueryMix(ctx context.Context) (*Outcome, error) {
	out := newOutcome()
	connA, connB := b.conn(), b.conn()
	g := NewGen(b.Seed, Salt, true)
	preload := g.Preload(mixPreloadKeys, false)
	sys, err := b.setup(ctx, connA, Topology{Nodes: 1}, preload, out)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	ref := NewReference()
	preloaded := ref.Apply(preload)

	// Every batch asks the whole-dataset family; every mixSubsetEvery-th
	// also asks ustar and voptimal over the hottest keys. Their cost per
	// item varies by orders of magnitude with the item's outcome (so by
	// seed), which would set p90 if every batch carried them; at this
	// cadence they form the top few percent.
	hot := g.Pool()
	ladder := "vals=0.25,0.5,0.75,1"
	qs := []Query{
		sumQuery("lstar"),
		sumQuery("ht"),
		jaccardQuery,
		sumQuery("order:" + ladder + ";by=asc"),
		sumQuery("order:" + ladder + ";by=desc"),
		sumQuery("ustar", hot[:mixUStarKeys]...),
		sumQuery("voptimal", hot[:mixVOptKeys]...),
	}
	body, wholeBody := queryBody(qs), queryBody(qs[:5])

	// Writes, pre-generated so both loops start together. Most re-send
	// preloaded (key, weight) pairs — dominated duplicates that fold
	// without changing state, as in any duplicate-heavy stream; every
	// mixDirtyEvery-th write dirties one partition, and every
	// mixThreshEvery-th write also mints a small-rank key that moves a
	// threshold and forces every partition to re-reduce.
	nWrites := int(b.Seconds * mixWriteRate)
	writes := make([][]engine.Update, nWrites)
	for i := range writes {
		ups := g.Duplicates(preload, mixWriteUpdates)
		if i%mixDirtyEvery == 0 {
			ups[0] = g.DirtyOnly()
		}
		if i%mixThreshEvery == mixThreshEvery-1 {
			ups[1] = engine.Update{Instance: 0, Key: g.SmallRankKey(0.0003), Weight: 1}
		}
		writes[i] = ups
	}

	writeRand := g.Rand()
	var wg sync.WaitGroup
	var ackH *Histogram
	var wol *OpenLoop
	acks := make([]ackRec, 0, nWrites)
	wg.Add(1)
	go func() {
		defer wg.Done()
		ackH, wol = runOpenLoop(mixWriteRate, nWrites, writeRand, func(i int) error {
			err := postStream(ctx, connB, sys.URL(), encodeBatch(writes[i]), len(writes[i]))
			if err == nil {
				acks = append(acks, ackRec{at: time.Now(), version: ref.Apply(writes[i])})
			}
			return err
		})
	}()
	nQueries := int(b.Seconds * mixQueryRate)
	qrecs := make([]queryRec, 0, nQueries)
	qh, qol := runOpenLoop(mixQueryRate, nQueries, g.Rand(), func(i int) error {
		req := wholeBody
		if i%mixSubsetEvery == mixSubsetEvery-1 {
			req = body
		}
		sent := time.Now()
		a, err := postQuery(ctx, connA, sys.URL(), req)
		if err == nil {
			qrecs = append(qrecs, queryRec{sent: sent, done: time.Now(), version: a.Version})
		}
		return err
	})
	wg.Wait()
	out.percentiles("query", qh, "p50", "p90", "p99")
	out.openLoopReport("query", qol)
	out.percentiles("ingest_ack", ackH, "p50", "p90", "p99")
	out.openLoopReport("writes", wol)
	out.percentiles("freshness", freshnessFromQueries(acks, qrecs, preloaded, true, &out.Oracle), "p50", "p90", "p99")

	want, err := ref.Answer(qs)
	if err != nil {
		return nil, err
	}
	got, err := postQuery(ctx, connA, sys.URL(), body)
	if err != nil {
		return nil, err
	}
	out.Oracle.SameEstimates("final /v1/query vs reference", got, want)
	if got.Version != ref.Version() {
		out.Oracle.fail("daemon version %d, reference %d", got.Version, ref.Version())
	}

	// In memory, recovery means replaying every acknowledged update. It
	// is checked on the whole-dataset queries, whose cost does not hinge
	// on a few seed-chosen items.
	whole, err := postQuery(ctx, connA, sys.URL(), wholeBody)
	if err != nil {
		return nil, err
	}
	replay := append([]engine.Update(nil), preload...)
	for _, w := range writes {
		replay = append(replay, w...)
	}
	if err := b.recover(ctx, connA, sys, mixRecoveries, qs[:5], whole, replay, out); err != nil {
		return nil, err
	}
	// The write trickle is open loop at a fixed rate, so the workload's
	// ingest throughput is that of its bulk loads: the preloads and
	// replays, median.
	out.Metrics["ingest_updates_per_s"] = median(out.ingestRates)
	out.logf("bulk load  %d preloads and replays: median %.0f updates/s", len(out.ingestRates), median(out.ingestRates))
	out.Metrics["daemon_peak_rss_mb"] = sys.PeakRSSMB()
	return out, nil
}

// Cluster3Node: three in-memory nodes behind a strict coordinator. A
// closed loop of routed per-batch ingest on one connection and open-loop
// queries on the other.
func (b *Bench) Cluster3Node(ctx context.Context) (*Outcome, error) {
	out := newOutcome()
	connA, connB := b.conn(), b.conn()
	g := NewGen(b.Seed, Salt, false)
	preload := g.Preload(clusterPreloadKeys, true)
	sys, err := b.setup(ctx, connA, Topology{Nodes: clusterNodes}, preload, out)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	ref := NewReference()
	preloaded := ref.Apply(preload)

	// lstar and ht: every query forces a full sync, and two estimator
	// passes keep the query connection well below saturation.
	qs := []Query{sumQuery("lstar"), sumQuery("ht")}
	body := queryBody(qs)
	// At most one batch per think time can be sent while the queries run.
	bodies := encodeBatches(g, int(b.Seconds/clusterThink.Seconds()), clusterNewKeyShare)
	nQueries := int(b.Seconds * clusterQueryRate)
	qrecs := make([]queryRec, 0, nQueries)
	var qh *Histogram
	var qol *OpenLoop
	var queriesDone atomic.Bool
	queryRand := g.Rand() // drawn here: g is the ingest loop's from now on
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer queriesDone.Store(true)
		qh, qol = runOpenLoop(clusterQueryRate, nQueries, queryRand, func(int) error {
			sent := time.Now()
			a, err := postQuery(ctx, connB, sys.URL(), body)
			if err == nil {
				qrecs = append(qrecs, queryRec{sent: sent, done: time.Now(), version: a.Version})
			}
			return err
		})
	}()

	// Routed ingest runs, closed loop with a think time, for as long as
	// the query schedule does, so every query syncs against nodes that
	// are changing. The think time leaves the 2 shared cores headroom:
	// saturated, every latency here amplifies the machine's run-to-run
	// speed variation.
	ack := NewHistogram()
	var ackAt []time.Time
	start := time.Now()
	for i := 0; i < len(bodies) && !queriesDone.Load(); i++ {
		at, err := sendBatch(ctx, connA, sys.URL(), bodies[i], ack, out)
		if err != nil {
			return nil, fmt.Errorf("routed ingest: %w", err)
		}
		ackAt = append(ackAt, at)
		time.Sleep(clusterThink)
	}
	elapsed := time.Since(start)
	wg.Wait()
	acks := refAcks(ref, bodies, ackAt)
	applied := len(acks) * BatchUpdates
	out.Metrics["ingest_updates_per_s"] = float64(applied) / elapsed.Seconds()
	out.logf("ingest     %d routed updates acknowledged in %.3fs: %.0f updates/s",
		applied, elapsed.Seconds(), out.Metrics["ingest_updates_per_s"])
	out.percentiles("ingest_ack", ack, "p50", "p90", "p99")
	out.percentiles("query", qh, "p50", "p90", "p99")
	out.openLoopReport("query", qol)
	out.percentiles("freshness", freshnessFromQueries(acks, qrecs, preloaded, false, &out.Oracle), "p50", "p90", "p99")

	want, err := ref.Answer(qs)
	if err != nil {
		return nil, err
	}
	got, err := postQuery(ctx, connA, sys.URL(), body)
	if err != nil {
		return nil, err
	}
	out.Oracle.SameEstimates("coordinator vs union reference", got, want)

	if err := b.recover(ctx, connA, sys, clusterRecoveries, qs, got, nil, out); err != nil {
		return nil, err
	}
	out.Metrics["daemon_peak_rss_mb"] = sys.PeakRSSMB()
	return out, nil
}
