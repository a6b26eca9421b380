package main

import (
	"testing"
	"time"
)

// Fresh reads are timed from the query's send, once per query, and only
// for queries that follow a write that changed the version.
func TestFreshnessFromQueries(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	acks := []ackRec{
		{at: at(0), version: 5},  // no change from the preload's version 5
		{at: at(10), version: 6}, // changed: answered by the query sent at 20
		{at: at(15), version: 7}, // changed, same next query: counted once
		{at: at(50), version: 7}, // no change
		{at: at(60), version: 8}, // changed: answered by the query sent at 70
		{at: at(95), version: 9}, // after the last query: not timed
	}
	qrecs := []queryRec{
		{sent: at(70), done: at(73), version: 8},
		{sent: at(5), done: at(6), version: 5},
		{sent: at(20), done: at(24), version: 7},
		{sent: at(40), done: at(41), version: 7},
	}
	var o Oracle
	h := freshnessFromQueries(acks, qrecs, 5, true, &o)
	if !o.Correct() {
		t.Fatalf("unexpected mismatches: %v", o.Mismatches)
	}
	if h.Count() != 2 {
		t.Fatalf("timed %d queries, want 2", h.Count())
	}
	if h.max < 0.0039 || h.max > 0.0041 || h.min < 0.0029 || h.min > 0.0031 {
		t.Fatalf("fresh reads span %.4fs..%.4fs, want 0.003s..0.004s", h.min, h.max)
	}

	// A query sent after a write's ack that answers an older version
	// breaks read-your-writes.
	for i := range qrecs {
		if qrecs[i].sent.Equal(at(20)) {
			qrecs[i].version = 6
		}
	}
	o = Oracle{}
	freshnessFromQueries(acks, qrecs, 5, true, &o)
	if o.Correct() {
		t.Fatal("stale answer after an ack was not flagged")
	}
}
