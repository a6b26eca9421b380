package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/store"
	"repro/internal/streamclient"
)

// newConn returns a client that holds at most one TCP connection: the
// generator's connection budget is counted in these.
func newConn() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// FrameUpdates is the updates per binary frame; one ingest request
// carries FramesPerBatch frames.
const (
	FrameUpdates   = 256
	FramesPerBatch = 4
	BatchUpdates   = FrameUpdates * FramesPerBatch
)

// encodeBatch renders updates as one /v1/stream body of 256-update frames.
func encodeBatch(ups []engine.Update) []byte {
	buf := store.AppendStreamHeader(nil)
	for lo := 0; lo < len(ups); lo += FrameUpdates {
		buf = store.AppendFrame(buf, ups[lo:min(lo+FrameUpdates, len(ups))])
	}
	return buf
}

// postStream sends one /v1/stream request and returns once the server's
// summary arrives, checking that every update was applied.
func postStream(ctx context.Context, c *http.Client, url string, body []byte, updates int) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/stream", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", store.StreamContentType)
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stream: status %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	var sum streamclient.StreamSummary
	if err := json.Unmarshal(raw, &sum); err != nil {
		return fmt.Errorf("stream summary: %w", err)
	}
	if sum.Updates != updates {
		return fmt.Errorf("stream applied %d of %d updates", sum.Updates, updates)
	}
	return nil
}

// ingestAll streams updates in BatchUpdates-sized requests, closed loop.
func ingestAll(ctx context.Context, c *http.Client, url string, ups []engine.Update) error {
	for lo := 0; lo < len(ups); lo += BatchUpdates {
		b := ups[lo:min(lo+BatchUpdates, len(ups))]
		if err := postStream(ctx, c, url, encodeBatch(b), len(b)); err != nil {
			return err
		}
	}
	return nil
}

// Query is one /v1/query spec as the benchmark sends it.
type Query struct {
	Statistic string   `json:"statistic,omitempty"`
	Func      string   `json:"func,omitempty"`
	P         *float64 `json:"p,omitempty"`
	Estimator string   `json:"estimator,omitempty"`
	IDs       []uint64 `json:"ids,omitempty"`
}

var one = 1.0

// sumQuery is Σ|v0−v1| (rg, p=1) under the named estimator.
func sumQuery(est string, ids ...uint64) Query {
	return Query{Func: "rg", P: &one, Estimator: est, IDs: ids}
}

var jaccardQuery = Query{Statistic: "jaccard"}

// Answer is a decoded /v1/query response.
type Answer struct {
	Version uint64            `json:"version"`
	Results []json.RawMessage `json:"results"`
}

type resultFields struct {
	Estimate *float64 `json:"estimate"`
	Error    *struct {
		Message string `json:"message"`
	} `json:"error"`
}

// Estimates extracts each result's estimate, failing on a per-query error.
func (a Answer) Estimates() ([]float64, error) {
	out := make([]float64, len(a.Results))
	for i, raw := range a.Results {
		var r resultFields
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, err
		}
		if r.Error != nil {
			return nil, fmt.Errorf("query %d: %s", i, r.Error.Message)
		}
		if r.Estimate == nil {
			return nil, fmt.Errorf("query %d: no estimate", i)
		}
		out[i] = *r.Estimate
	}
	return out, nil
}

// queryBody encodes a query batch once for repeated sends.
func queryBody(qs []Query) []byte {
	b, err := json.Marshal(map[string][]Query{"queries": qs})
	if err != nil {
		panic(err) // Query always marshals
	}
	return b
}

// postQuery sends one /v1/query batch.
func postQuery(ctx context.Context, c *http.Client, url string, body []byte) (Answer, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/query", bytes.NewReader(body))
	if err != nil {
		return Answer{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return Answer{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return Answer{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return Answer{}, fmt.Errorf("query: status %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	var a Answer
	if err := json.Unmarshal(raw, &a); err != nil {
		return Answer{}, fmt.Errorf("query response: %w", err)
	}
	if _, err := a.Estimates(); err != nil {
		return Answer{}, err
	}
	return a, nil
}

// subscribeQuery renders a query set as /v1/subscribe's queries= form.
func subscribeQuery(qs []Query) string {
	b, _ := json.Marshal(qs)
	return "queries=" + url.QueryEscape(string(b))
}

// pushRecord is one SSE push as the subscriber saw it.
type pushRecord struct {
	at      time.Time
	version uint64
	results []json.RawMessage
}
