// Command layerbench measures the sharing engine end to end and layer by
// layer, on three workloads that use the program as cordobad deploys it:
// policy subplan, 2 workers, TPC-H sf 0.005 generated with seed 42, and the
// Q1/Q6/Q4/Q13 families × 3 variants.
//
//	engine-shared  12 clients on Engine.SubmitFn in process, in lockstep rounds
//	wire-closed    cordobad in its own process, 4 outstanding over 2 conns
//	wire-open      cordobad in its own process, Poisson arrivals at 60/s
//
// Usage:
//
//	layerbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	           [--cordobad path] [--dir path]
//	layerbench steady [--runs 10] [--workloads a,b] [--seconds s] [--trace 0|1]
//
// A run prints its diagnostics on standard error and, as the last line of
// standard output, one JSON object: correct, attempted, failed, and the
// metrics — the end-to-end ones with --trace 0, the per-layer ones with
// --trace 1. The steady subcommand reruns workloads interleaved over seeds
// and prints each metric's median, quartiles and range. run.sh builds both
// binaries from the checkout and runs this command.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/tpch"
)

// The deployment every workload reproduces: cordobad's defaults on a
// two-processor host.
const (
	scaleFactor = 0.005
	dataSeed    = 42
	workers     = 2
	policyName  = "subplan"
)

// setupReps is how many times a run sets the program up; setup_s reports
// the median and the measured window uses the last one.
const setupReps = 9

// ramp is the load a run applies before its timed window opens, so the
// window starts in steady state.
const ramp = time.Second

type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	cordobad string // cordobad binary, for the wire workloads
	dir      string // scratch directory for cordobad's address files
}

// outcome is what one workload run measured.
type outcome struct {
	attempted int
	fail      failures
	correct   bool
	setup     []float64 // seconds, one per set-up
	win       window
	rssMB     float64
	layers    map[string]float64 // filled by traced runs
}

type workload struct {
	name string
	run  func(config, references) (*outcome, error)
}

var workloads = []workload{
	{"engine-shared", runEngineShared},
	{"wire-closed", runWireClosed},
	{"wire-open", runWireOpen},
}

// perLayer lists the traced run's metrics and units. A workload reports 0
// for a layer it does not pass through (the server layer on engine-shared).
var perLayer = []struct{ name, unit string }{
	{"tpch.generate_s", "s"},
	{"engine.exec_p50_ms", "ms"},
	{"engine.sched_wait_mean_ms", "ms"},
	{"engine.quanta_per_query", "count"},
	{"engine.pivot_joins_per_query", "count"},
	{"engine.build_joins_per_query", "count"},
	{"engine.hash_builds_per_query", "count"},
	{"engine.compile_hit_ratio", "ratio"},
	{"engine.steals_per_query", "count"},
	{"engine.parks_per_query", "count"},
	{"storage.pool_gets_per_query", "count"},
	{"storage.pool_recycle_ratio", "ratio"},
	{"server.time_p50_ms", "ms"},
	{"server.queue_wait_mean_ms", "ms"},
	{"server.queued_share", "ratio"},
	{"server.admit_shared_per_ok", "ratio"},
	{"server.wire_p50_ms", "ms"},
	{"core.model_error_p50", "ratio"},
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		if err := steady(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "layerbench steady:", err)
			os.Exit(1)
		}
		return
	}
	cfg, err := parseFlags(os.Args[1:])
	if err == nil {
		var rep *report
		if rep, err = run(cfg); err == nil {
			line, _ := json.Marshal(rep)
			fmt.Println(string(line))
			return
		}
	}
	fmt.Fprintln(os.Stderr, "layerbench:", err)
	os.Exit(1)
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("layerbench", flag.ContinueOnError)
	cfg := config{}
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: engine-shared, wire-closed, wire-open")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed (arrival schedule of wire-open)")
	secs := fs.Float64("seconds", 10, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	exe, _ := os.Executable()
	fs.StringVar(&cfg.cordobad, "cordobad", filepath.Join(filepath.Dir(exe), "cordobad"), "cordobad binary")
	fs.StringVar(&cfg.dir, "dir", filepath.Join(".bench_build", "layerbench", "run"), "scratch directory for address files")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if *secs <= 0 || *trace < 0 || *trace > 1 {
		return cfg, fmt.Errorf("want --seconds > 0 and --trace 0 or 1")
	}
	cfg.seconds = time.Duration(*secs * float64(time.Second))
	cfg.trace = *trace == 1
	return cfg, nil
}

// run generates the data, computes the reference answers, runs the workload
// and assembles the result line.
func run(cfg config) (*report, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	// The reference reads its own copy of the data, so an engine that
	// mutated shared tables would not corrupt its own answer key.
	var gen []float64
	var db *tpch.DB
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if db, err = tpch.Generate(tpch.Config{ScaleFactor: scaleFactor, Seed: dataSeed}); err != nil {
			return nil, err
		}
		gen = append(gen, time.Since(t0).Seconds())
		if !cfg.trace {
			break
		}
	}
	refs, err := computeReferences(db)
	if err != nil {
		return nil, err
	}
	o, err := w.run(cfg, refs)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%s seed=%d: attempted=%d ok=%d %s setups=%.4v\n",
		cfg.workload, cfg.seed, o.attempted, o.win.ok, o.fail, o.setup)
	e2e := endToEnd(o)
	rep := &report{Correct: o.correct, Attempted: o.attempted, Failed: o.fail.total(), Metrics: e2e}
	if cfg.trace {
		// The traced run's end-to-end figures go to stderr: their distance
		// from a timed run's is the tracing overhead.
		for _, name := range sortedKeys(e2e) {
			fmt.Fprintf(os.Stderr, "traced %s = %.4f %s\n", name, e2e[name].Value, e2e[name].Unit)
		}
		o.layers["tpch.generate_s"] = median(gen)
		rep.Metrics = map[string]metric{}
		for _, l := range perLayer {
			rep.Metrics[l.name] = metric{Value: o.layers[l.name], Unit: l.unit}
		}
	}
	if rep.Attempted < 1 {
		return nil, fmt.Errorf("no operation attempted")
	}
	return rep, nil
}

// endToEnd reports the window's throughput, latency percentiles and CPU
// per query, and the set-up and memory figures.
func endToEnd(o *outcome) map[string]metric {
	w := o.win
	lat := append([]float64(nil), w.lat...)
	return map[string]metric{
		"setup_s":        {median(append([]float64(nil), o.setup...)), "s"},
		"ok_per_s":       {float64(w.ok) / w.dur.Seconds(), "1/s"},
		"latency_p50_ms": {percentile(lat, 0.50), "ms"},
		"latency_p99_ms": {percentile(lat, 0.99), "ms"},
		"cpu_ms_per_ok":  {ratio(ms(w.cpu), float64(w.ok)), "ms"},
		"rss_mb":         {o.rssMB, "MiB"},
	}
}
