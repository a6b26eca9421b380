package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/engine"
	"repro/internal/estreg"
	"repro/internal/funcs"
	"repro/internal/sampling"
	"repro/internal/store"
)

// Daemon configuration shared by every workload and the reference.
const (
	Instances = 2
	K         = 64
	Shards    = 16
	Salt      = 7
)

// daemonArgs are the monestd flags every node and coordinator gets.
func daemonArgs() []string {
	return []string{"-instances", "2", "-k", "64", "-shards", "16", "-salt", "7"}
}

// Reference is the in-process oracle: an engine with the daemons'
// configuration fed the same updates, answered through estreg.Sum — the
// numbers every daemon answer must equal bit for bit. It shares the
// daemons' shard count because the mutation version counts per-shard heap
// changes; the estimates themselves do not depend on it.
type Reference struct {
	eng *engine.Engine
	reg *estreg.Registry
}

// NewReference returns an empty reference engine.
func NewReference() *Reference {
	eng, err := engine.New(engine.Config{Instances: Instances, K: K, Shards: Shards, Hash: sampling.NewSeedHash(Salt)})
	if err != nil {
		panic(err) // constant, valid configuration
	}
	return &Reference{eng: eng, reg: estreg.Default()}
}

// Apply folds a batch into the reference and returns its version after.
func (r *Reference) Apply(ups []engine.Update) uint64 {
	if err := r.eng.IngestBatch(ups); err != nil {
		panic(err) // the generator only emits valid updates
	}
	return r.eng.Version()
}

// ApplyBody decodes one /v1/stream request body and folds its updates
// into the reference as one batch; it returns the version after.
func (r *Reference) ApplyBody(body []byte) uint64 {
	var ups []engine.Update
	sc := store.NewFrameScanner(bytes.NewReader(body))
	for {
		frame, err := sc.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			panic(err) // encodeBatch wrote it
		}
		ups = append(ups, frame...)
	}
	return r.Apply(ups)
}

// Version is the reference's mutation version.
func (r *Reference) Version() uint64 { return r.eng.Version() }

// Answer evaluates the queries on the reference's current snapshot the
// way the server does: estreg.Sum over the materialized outcomes, the
// selection a set of item indexes, jaccard as the AND/OR sum ratio.
func (r *Reference) Answer(qs []Query) ([]float64, error) {
	snap := r.eng.FreshView().Snapshot()
	outs := snap.Sample.Outcomes
	out := make([]float64, len(qs))
	for i, q := range qs {
		est := q.Estimator
		if est == "" {
			est = "lstar"
		}
		var items []int
		seen := map[int]bool{}
		for _, id := range q.IDs {
			j, ok := snap.Index(id)
			if !ok {
				return nil, fmt.Errorf("query %d: id %d never ingested", i, id)
			}
			if !seen[j] {
				seen[j] = true
				items = append(items, j)
			}
		}
		sum := func(f funcs.F) (float64, error) {
			e, _, err := r.reg.Build(est, f, Instances)
			if err != nil {
				return 0, err
			}
			res, err := estreg.Sum(e, outs, items)
			return res.Estimate, err
		}
		var err error
		if q.Statistic == "jaccard" {
			var and, or float64
			if and, err = sum(funcs.AndTuple{}); err == nil {
				if or, err = sum(funcs.OrTuple{}); err == nil && or != 0 {
					out[i] = and / or
				}
			}
		} else {
			var f funcs.RG
			if f, err = funcs.NewRG(*q.P); err == nil {
				out[i], err = sum(f)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
	}
	return out, nil
}

// Oracle collects correctness findings; any mismatch fails the run.
type Oracle struct {
	Mismatches []string
}

func (o *Oracle) fail(format string, args ...any) {
	o.Mismatches = append(o.Mismatches, fmt.Sprintf(format, args...))
}

// Correct reports whether every check passed.
func (o *Oracle) Correct() bool { return len(o.Mismatches) == 0 }

// SameEstimates checks a daemon answer against expected values bit for
// bit (JSON floats round-trip exactly in Go).
func (o *Oracle) SameEstimates(what string, a Answer, want []float64) {
	got, err := a.Estimates()
	if err != nil {
		o.fail("%s: %v", what, err)
		return
	}
	if len(got) != len(want) {
		o.fail("%s: %d results, want %d", what, len(got), len(want))
		return
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			o.fail("%s: result %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// SameResults checks two result lists for equal JSON content.
func (o *Oracle) SameResults(what string, a, b []json.RawMessage) {
	if err := diffResults(a, b); err != nil {
		o.fail("%s: %v", what, err)
	}
}

// diffResults describes the first difference between two result lists,
// or returns nil if their JSON content is equal.
func diffResults(a, b []json.RawMessage) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d results vs %d", len(a), len(b))
	}
	for i := range a {
		if !jsonEqual(a[i], b[i]) {
			return fmt.Errorf("result %d differs: %s vs %s", i, a[i], b[i])
		}
	}
	return nil
}

// jsonEqual compares two JSON documents ignoring key order and spacing.
func jsonEqual(a, b json.RawMessage) bool {
	var av, bv any
	if json.Unmarshal(a, &av) != nil || json.Unmarshal(b, &bv) != nil {
		return false
	}
	ab, _ := json.Marshal(av)
	bb, _ := json.Marshal(bv)
	return bytes.Equal(ab, bb)
}
