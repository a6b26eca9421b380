// Command perfbench is the repository's whole-system benchmark. It boots
// real cmd/monestd daemons as child processes, drives them from this one
// generator process over at most two HTTP connections, checks every
// final answer against an in-process reference engine, and prints the
// end-to-end metrics named in BENCHMARK.json. With -trace 1 it instead
// assembles the same components inside this process with timing
// wrappers at the modules' public seams and prints the per-layer
// metrics, a "where a request's time goes" table, and the tracing
// overhead against an untraced run of the same workload.
//
// Usage (perfbench/run.py builds the binaries and calls this):
//
//	perfbench -monestd BIN -work DIR --workload ingest-durable|query-mix|cluster-3node
//	          --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// Any oracle mismatch prints it with "correct": false and exits 1.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

// Metric is one reported metric's name and unit.
type Metric struct {
	Name string
	Unit string
}

// EndToEnd are the metrics of an untraced run, in BENCHMARK.json order.
// They are medians and median-like figures: on a 2-vCPU VM whose
// hypervisor steals a few percent of the time in bursts, a p90 moves with
// how many operations a burst hits, a median much less.
var EndToEnd = []Metric{
	{"setup_s", "s"},
	{"ingest_ack_p50_ms", "ms"},
	{"freshness_p50_ms", "ms"},
	{"query_p50_ms", "ms"},
	{"daemon_peak_rss_mb", "MB"},
}

// Reported are measured and printed by every untraced run but not gated
// in BENCHMARK.json: their spread between runs, or their drift between
// two rounds of runs of the same code, is too wide for a regression
// bound. The tail percentiles follow the host's steal bursts (query-mix
// query_p90 and freshness_p90 moved by 40-50% with 0.3-5% steal); the
// fsync-bound ingest throughput and the recovery times spread by 25-45%.
var Reported = []Metric{
	{"ingest_updates_per_s", "updates/s"},
	{"recovery_s", "s"},
	{"ingest_ack_p90_ms", "ms"},
	{"ingest_ack_p99_ms", "ms"},
	{"freshness_p90_ms", "ms"},
	{"freshness_p99_ms", "ms"},
	{"query_p90_ms", "ms"},
	{"query_p99_ms", "ms"},
}

// Workloads maps each workload name to the function that runs it.
var Workloads = map[string]func(*Bench, context.Context) (*Outcome, error){
	"ingest-durable": (*Bench).IngestDurable,
	"query-mix":      (*Bench).QueryMix,
	"cluster-3node":  (*Bench).Cluster3Node,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name")
		seed     = flag.Uint64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", 20, "measured seconds")
		trace    = flag.Int("trace", 0, "1: traced in-process run reporting per-layer metrics")
		bin      = flag.String("monestd", "", "monestd binary")
		work     = flag.String("work", "", "scratch directory (created, removed at exit)")
		spans    = flag.String("spans", "", "directory a traced run writes its spans to")
	)
	flag.Parse()
	code := run(*workload, *seed, *seconds, *trace == 1, *bin, *work, *spans)
	os.Exit(code)
}

func run(workload string, seed uint64, seconds float64, trace bool, bin, work, spans string) (code int) {
	// Child daemons die with this process on every path: normal return,
	// error, panic (recovered here) and SIGINT/SIGTERM.
	defer killAll()
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintln(os.Stderr, "perfbench: panic:", r)
			code = 2
		}
	}()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sigs
		killAll()
		fmt.Fprintln(os.Stderr, "perfbench: killed by", s)
		os.Exit(3)
	}()

	drive, ok := Workloads[workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", workload)
		return 2
	}
	if runtime.GOMAXPROCS(0) > 2 {
		runtime.GOMAXPROCS(2)
	}
	if work == "" || bin == "" || seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -work, -monestd and a positive -seconds are required")
		return 2
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer func() {
		os.RemoveAll(work)
		// Flush what this run wrote and deleted, so its writeback does
		// not land in the next run's fsyncs.
		syscall.Sync()
	}()
	// Likewise for whatever an earlier run left dirty.
	syscall.Sync()

	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	b := &Bench{Bin: bin, Work: work, Seed: seed, Seconds: seconds, SpanDir: spans}
	var res result
	var err error
	if trace {
		res, err = runTraced(ctx, b, workload, drive)
	} else {
		var out *Outcome
		if out, err = drive(b, ctx); err == nil {
			res = reportOutcome(workload, out, EndToEnd, Reported)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// reportOutcome prints the human report, oracle findings and the
// reported-only metrics, and builds the result object from the named
// metrics.
func reportOutcome(workload string, out *Outcome, names, reported []Metric) result {
	fmt.Printf("== %s\n", workload)
	for _, l := range out.Report {
		fmt.Println(l)
	}
	for _, m := range out.Oracle.Mismatches {
		fmt.Println("ORACLE MISMATCH:", m)
	}
	for _, m := range reported {
		fmt.Printf("%-34s %14.4f %s (reported, not gated)\n", m.Name, out.Metrics[m.Name], m.Unit)
	}
	res := result{
		Correct:   out.Oracle.Correct(),
		Attempted: out.Attempted,
		Failed:    out.Failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range names {
		v, ok := out.Metrics[m.Name]
		if !ok {
			panic(errors.New("metric " + m.Name + " was not measured"))
		}
		fmt.Printf("%-34s %14.4f %s\n", m.Name, v, m.Unit)
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return res
}
