package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/estreg"
	"repro/internal/funcs"
	"repro/internal/sampling"
	"repro/internal/server"
	"repro/internal/store"
)

// The traced run assembles, inside this process, the components
// cmd/monestd's run assembles, with the same configuration, and puts a
// timing wrapper at every public seam between them:
//
//   - a store.Store wrapper given to store.Attach (append, sync, recover,
//     checkpoint);
//   - server.Config.Ingest and server.Config.Snapshots wrappers around
//     the engine or the coordinator (ingest and view acquisition);
//   - an estreg.Registry whose builders wrap the defaults and time
//     Estimate;
//   - an http.Handler wrapper per daemon (every route, nodes included);
//   - a timing RoundTripper in cluster.Config.Client (sketch fetches and
//     routed forwards).
//
// -fsync always is split at the store wrapper: the backend is opened
// with FsyncNever and the wrapper calls Sync after each Append, before
// returning to the engine. Durability per record is the same (the batch
// is acknowledged only after its fsync); the write and the fsync become
// separately timed spans.

// tnode is one in-process daemon.
type tnode struct {
	tr    *Tracer
	role  string
	addr  string
	data  string // "" in memory
	eng   *engine.Engine
	store *timedStore
	api   *server.Server
	srv   *http.Server
	done  chan struct{}
}

func engineConfig() engine.Config {
	return engine.Config{Instances: Instances, K: K, Shards: Shards, Hash: sampling.NewSeedHash(Salt)}
}

// startNode builds and serves one node (or, with coord set, the
// coordinator's server over coord's merge engine) on addr.
func startNode(tr *Tracer, role, addr, data string, coord *cluster.Coordinator) (*tnode, error) {
	n := &tnode{tr: tr, role: role, addr: addr, data: data}
	var err error
	if coord != nil {
		n.eng = coord.Engine()
	} else if n.eng, err = engine.New(engineConfig()); err != nil {
		return nil, err
	}
	cfg := server.Config{Registry: timedRegistry(tr), DefaultEstimator: "lstar"}
	if data != "" {
		inner, err := store.Open(data, store.Options{Fsync: store.FsyncNever})
		if err != nil {
			return nil, err
		}
		n.store = &timedStore{inner: inner, tr: tr, role: role}
		p, rec, err := store.Attach(n.eng, n.store)
		if err != nil {
			inner.Close()
			return nil, err
		}
		if rec.Records > 0 {
			if _, err := p.Checkpoint(); err != nil {
				return nil, fmt.Errorf("post-recovery checkpoint: %w", err)
			}
		}
		cfg.Persist = p
	}
	if coord != nil {
		cfg.Snapshots = &timedSource{tr: tr, role: role, src: coord}
		cfg.Ingest = &timedIngest{tr: tr, role: role, ing: coord}
		cfg.Cluster = coord
		cfg.Ready = coord.Ready
	} else {
		cfg.Snapshots = &timedSource{tr: tr, role: role, src: engineSource{n.eng}}
		cfg.Ingest = &timedIngest{tr: tr, role: role, ing: engineIngest{n.eng}}
	}
	n.api = server.NewWith(n.eng, cfg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	n.srv = &http.Server{Handler: tr.httpWrap(role, n.api), ReadHeaderTimeout: 10 * time.Second}
	n.done = make(chan struct{})
	go func() {
		defer close(n.done)
		_ = n.srv.Serve(ln) // returns ErrServerClosed on crash/close
	}()
	return n, nil
}

// crash drops the node without shutdown work: connections are cut, no
// checkpoint is written, and the store's files are released as a killed
// process would leave them (every acknowledged record is already
// fsynced).
func (n *tnode) crash() {
	_ = n.srv.Close()
	<-n.done
	n.api.Drain()
	if n.store != nil {
		_ = n.store.Close() // releases files; writes no checkpoint
	}
}

// engineSource is the daemon's default snapshot source (the engine's
// versioned cache, -snapshot-max-stale 0).
type engineSource struct{ eng *engine.Engine }

func (e engineSource) AcquireSnapshotDegraded(context.Context) (engine.SnapshotView, *cluster.Degraded, error) {
	return e.eng.CachedView(0), nil, nil
}

type degradedSource interface {
	AcquireSnapshotDegraded(ctx context.Context) (engine.SnapshotView, *cluster.Degraded, error)
}

// timedSource wraps server.Config.Snapshots: "engine.view" spans (on a
// coordinator, the scatter-gather sync plus the merged cut).
type timedSource struct {
	tr   *Tracer
	role string
	src  degradedSource
}

func (s *timedSource) AcquireSnapshot(ctx context.Context) (engine.SnapshotView, error) {
	v, _, err := s.AcquireSnapshotDegraded(ctx)
	return v, err
}

func (s *timedSource) AcquireSnapshotDegraded(ctx context.Context) (engine.SnapshotView, *cluster.Degraded, error) {
	ctx, a := s.tr.Begin(ctx, "engine.view", s.role)
	v, d, err := s.src.AcquireSnapshotDegraded(ctx)
	a.End(err)
	return v, d, err
}

type ingestor interface {
	IngestBatch(ctx context.Context, batch []engine.Update) error
}

type engineIngest struct{ eng *engine.Engine }

func (e engineIngest) IngestBatch(_ context.Context, b []engine.Update) error {
	return e.eng.IngestBatch(b)
}

// timedIngest wraps server.Config.Ingest: "engine.ingest" spans, one per
// decoded frame.
type timedIngest struct {
	tr   *Tracer
	role string
	ing  ingestor
}

func (t *timedIngest) IngestBatch(ctx context.Context, b []engine.Update) error {
	ctx, a := t.tr.Begin(ctx, "engine.ingest", t.role)
	a.span.N = int64(len(b))
	err := t.ing.IngestBatch(ctx, b)
	a.End(err)
	return err
}

// timedStore wraps the node's store.Store.
type timedStore struct {
	inner store.Store
	tr    *Tracer
	role  string
}

func (s *timedStore) span(name string) *Active {
	_, a := s.tr.begin(context.Background(), name, s.role, 0, -1)
	return a
}

func (s *timedStore) Append(batch []engine.Update) error {
	a := s.span("store.append")
	// A WAL record is byte-identical to a stream frame of the batch.
	a.span.Bytes = int64(len(store.AppendFrame(nil, batch)))
	a.span.N = int64(len(batch))
	err := s.inner.Append(batch)
	a.End(err)
	if err != nil {
		return err
	}
	a = s.span("store.sync")
	err = s.inner.Sync()
	a.End(err)
	return err
}

func (s *timedStore) Sync() error { return s.inner.Sync() }

func (s *timedStore) Checkpoint(cut func() *engine.State) (store.CheckpointStats, error) {
	a := s.span("store.checkpoint")
	cs, err := s.inner.Checkpoint(cut)
	a.span.Bytes = int64(cs.Bytes)
	a.End(err)
	return cs, err
}

func (s *timedStore) Recover(h store.RecoveryHandler) (store.RecoveryStats, error) {
	a := s.span("store.recover")
	rs, err := s.inner.Recover(h)
	a.span.N = int64(rs.Updates)
	a.End(err)
	return rs, err
}

func (s *timedStore) Close() error { return s.inner.Close() }

// timedRegistry builds a registry whose builders wrap the defaults and
// time every Estimate call into per-family counters.
func timedRegistry(tr *Tracer) *estreg.Registry {
	def := estreg.Default()
	reg := estreg.New()
	for _, base := range def.Names() {
		c := tr.est[base] // nil: a family the per-layer metrics do not name
		err := reg.Register(base, func(spec string, f funcs.F, r int) (estreg.Estimator, estreg.Meta, error) {
			name := base
			if spec != "" {
				name += ":" + spec
			}
			est, meta, err := def.Build(name, f, r)
			if err != nil || c == nil {
				return est, meta, err
			}
			return timedEstimator{Estimator: est, c: c, all: tr}, meta, nil
		})
		if err != nil {
			panic(err) // names come from a valid registry
		}
	}
	return reg
}

type timedEstimator struct {
	estreg.Estimator
	c   *estCounter
	all *Tracer
}

func (e timedEstimator) Estimate(o sampling.TupleOutcome) (float64, error) {
	t0 := time.Now()
	x, err := e.Estimator.Estimate(o)
	ns := int64(time.Since(t0))
	e.c.calls.Add(1)
	e.c.ns.Add(ns)
	e.all.estNS.Add(ns)
	if err != nil {
		e.all.countError("estreg")
	}
	return x, err
}

// timedTransport is the coordinator's node client transport:
// "cluster.fetch" spans for GET /v1/sketch (ended when the body is
// closed, so transfer is included) and "cluster.forward" spans for
// routed POST /v1/stream. It passes the span to the node in a header.
type timedTransport struct {
	tr   *Tracer
	base http.RoundTripper
}

func (t *timedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	name := "cluster.forward"
	if r.Method == http.MethodGet {
		name = "cluster.fetch"
	}
	_, a := t.tr.Begin(r.Context(), name, "coord")
	a.span.Route = r.URL.Host
	a.span.Key = r.Header.Get("Idempotency-Key")
	r = r.Clone(r.Context())
	r.Header.Set(parentHeader, fmt.Sprintf("%d/%d", a.span.ID, a.span.Req))
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		a.End(err)
		return nil, err
	}
	a.span.Status = resp.StatusCode
	resp.Body = &timedBody{ReadCloser: resp.Body, a: a}
	return resp, nil
}

// timedBody ends its span when the body is closed, counting bytes read.
type timedBody struct {
	io.ReadCloser
	a    *Active
	once sync.Once
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.a.span.Bytes += int64(n)
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		var e error
		if b.a.span.Status >= 400 {
			e = fmt.Errorf("status %d", b.a.span.Status)
		}
		b.a.End(e)
	})
	return err
}

// traceSystem is the traced deployment.
type traceSystem struct {
	tr    *Tracer
	nodes []*tnode
	coord *cluster.Coordinator
	front *tnode // coordinator server; nil for a single node
	data  string
	// frozen captures counters at the end of the measured phase (the
	// first crash), before the crash target's engine is replaced.
	frozen *counterSnap
	base   *counterSnap
}

// counterSnap is the engines' and coordinator's counters at one moment.
type counterSnap struct {
	keys, ingests, version    uint64
	rebuilds, rebuilt, reused uint64
	threshRefreshes           uint64
	syncs, stateBytes         uint64
	shortCircuits             uint64
}

func bootTraced(tr *Tracer, dir string, t Topology) (System, error) {
	s := &traceSystem{tr: tr}
	for i := 0; i < t.Nodes; i++ {
		addr, err := freeAddr()
		if err != nil {
			s.Close()
			return nil, err
		}
		role := "single"
		if t.Nodes > 1 {
			role = "node" + strconv.Itoa(i)
		}
		data := ""
		if t.Durable {
			data = filepath.Join(dir, fmt.Sprintf("node%d", i))
			if i == 0 {
				s.data = data
			}
		}
		n, err := startNode(tr, role, addr, data, nil)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.nodes = append(s.nodes, n)
	}
	if t.Nodes > 1 {
		urls := make([]string, len(s.nodes))
		for i, n := range s.nodes {
			urls[i] = "http://" + n.addr
		}
		base := http.DefaultTransport.(*http.Transport).Clone()
		coord, err := cluster.New(cluster.Config{
			Nodes:   urls,
			Engine:  engineConfig(),
			Timeout: 2 * time.Second,
			Poll:    200 * time.Millisecond,
			Client:  &http.Client{Transport: &timedTransport{tr: tr, base: base}},
		})
		if err != nil {
			s.Close()
			return nil, err
		}
		s.coord = coord
		addr, err := freeAddr()
		if err != nil {
			s.Close()
			return nil, err
		}
		if s.front, err = startNode(tr, "coord", addr, "", coord); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

func (s *traceSystem) URL() string {
	if s.front != nil {
		return "http://" + s.front.addr
	}
	return "http://" + s.nodes[0].addr
}

func (s *traceSystem) WaitReady(ctx context.Context, c *http.Client) error {
	for _, n := range s.nodes {
		if err := waitReady(ctx, c, "http://"+n.addr, n.done); err != nil {
			return err
		}
	}
	if s.front != nil {
		return waitReady(ctx, c, s.URL(), s.front.done)
	}
	return nil
}

func (s *traceSystem) counters() *counterSnap {
	c := &counterSnap{}
	for _, n := range s.nodes {
		st := n.eng.Stats()
		c.keys += uint64(st.Keys)
		c.ingests += st.Ingests
		c.version += st.Version
		if s.coord == nil {
			c.rebuilds += st.Snapshot.Rebuilds
			c.rebuilt += st.Snapshot.PartitionsRebuilt
			c.reused += st.Snapshot.PartitionsReused
			c.threshRefreshes += st.Snapshot.ThresholdRefreshes
		}
	}
	if s.coord != nil {
		st := s.coord.Engine().Stats()
		c.rebuilds += st.Snapshot.Rebuilds
		c.rebuilt += st.Snapshot.PartitionsRebuilt
		c.reused += st.Snapshot.PartitionsReused
		c.threshRefreshes += st.Snapshot.ThresholdRefreshes
		cs := s.coord.Stats()
		c.syncs, c.stateBytes = cs.Syncs, cs.StateBytes
		for _, ns := range cs.Nodes {
			c.shortCircuits += ns.ShortCircuits
		}
	}
	return c
}

// markMeasured starts the measured phase (after set-up).
func (s *traceSystem) markMeasured() {
	s.tr.Reset()
	s.base = s.counters()
}

func (s *traceSystem) Crash() error {
	if s.frozen == nil {
		s.frozen = s.counters()
		s.tr.Freeze()
	}
	s.nodes[0].crash()
	return crashState(s.data)
}

func (s *traceSystem) Restart(ctx context.Context, c *http.Client) error {
	old := s.nodes[0]
	n, err := startNode(s.tr, old.role, old.addr, old.data, nil)
	if err != nil {
		return err
	}
	s.nodes[0] = n
	return s.WaitReady(ctx, c)
}

// PeakRSSMB is 0: in process the daemons share the generator's and the
// reference's address space, so their footprint cannot be told apart
// (the traced run compares no memory with the untraced one).
func (s *traceSystem) PeakRSSMB() float64 { return 0 }

func (s *traceSystem) Close() {
	if s.front != nil {
		s.front.crash()
	}
	if s.coord != nil {
		s.coord.Close()
	}
	for _, n := range s.nodes {
		n.crash()
	}
}
