// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed window, checks that the program's outputs are
// correct, prints every metric with its unit and sample count, and ends
// with one JSON line holding the metrics BENCHMARK.json names: the
// end-to-end metrics untraced (--trace 0), the per-layer metrics traced
// (--trace 1).
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload sweep-local --seed 1 --seconds 15 --trace 0
//
// Workloads: sweep-local, sweep-full, sweep-large (in-process
// dynamics.SweepContext) and daemon-session (one client against an
// in-process sweepd daemon on loopback). Every layer is timed from
// outside, through public functions and seams only; see README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// tiny shrinks every workload to seconds-scale inputs (the tests).
	tiny bool
	// workDir holds the daemon stores and replay files; removed on exit.
	workDir string
}

// traceDir receives the traced run's spans, relative to the repository
// root the benchmark runs from.
var traceDir = filepath.Join(".bench_build", "perfbench-traces")

// setupRounds is how many times a run sets up; it reports the median.
const setupRounds = 9

var workloads = []string{"sweep-local", "sweep-full", "sweep-large", "daemon-session"}

// metricSpec is a metric as BENCHMARK.json declares it.
type metricSpec struct{ name, unit string }

// endToEnd is the untraced run's JSON: BENCHMARK.json's end_to_end list.
var endToEnd = []metricSpec{
	{"cells_per_s", "1/s"},
	{"cell_ms_p50", "ms"},
	{"cell_ms_p90", "ms"},
	{"cpu_ms_per_cell", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// daemonEndToEnd are end-to-end metrics only the daemon session has.
// Every run prints them; they travel in the traced run's JSON, because
// the untraced JSON must hold metrics that no workload reports as 0.
var daemonEndToEnd = []metricSpec{
	{"job_done_ms_p50", "ms"},
	{"job_done_ms_p90", "ms"},
	{"results_ms_p50", "ms"},
	{"results_ms_p90", "ms"},
	{"summary_ms_p50", "ms"},
	{"summary_ms_p90", "ms"},
	{"resume_s", "s"},
}

// perLayer is the traced run's JSON: BENCHMARK.json's per_layer list.
var perLayer = append([]metricSpec{
	{"bestresponse.calls", "count"},
	{"bestresponse.busy_ms", "ms"},
	{"bestresponse.us_per_call_p50", "us"},
	{"bestresponse.us_per_call_p99", "us"},
	{"bestresponse.improve_frac", "fraction"},
	{"view.extract_us_p50", "us"},
	{"view.ball_vertices_mean", "count"},
	{"dynamics.rounds", "count"},
	{"dynamics.evaluations", "count"},
	{"dynamics.skip_frac", "fraction"},
	{"dynamics.self_ms", "ms"},
	{"gen.busy_ms", "ms"},
	{"executor.busy_frac", "fraction"},
	{"graph.allpairs_us", "us"},
	{"ncgio.encode_us_per_cell", "us"},
	{"ncgio.decode_us_per_line", "us"},
	{"ncgio.bytes_per_cell", "B"},
	{"store.append_us_per_line", "us"},
	{"store.sync_ms", "ms"},
	{"cache.hit_frac", "fraction"},
	{"manager.queue_ms_p50", "ms"},
	{"manager.compute_ms", "ms"},
	{"manager.overhead_ms_p50", "ms"},
	{"http.submit_ms_p50", "ms"},
	{"http.status_ms_p50", "ms"},
	{"http.polls_per_job", "count"},
	{"http.requests", "count"},
	{"trace.overhead_frac", "fraction"},
	{"trace.attribution_gap_frac", "fraction"},
}, daemonEndToEnd...)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the flags, runs the workload and prints the report; it
// returns the exit code: 0 when every check passed, 1 when a check
// failed or the run could not finish, 2 on bad flags.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "one of sweep-local, sweep-full, sweep-large, daemon-session")
	seed := fs.Int64("seed", 1, "workload seed: feeds Spec.BaseSeed and the daemon's α windows")
	seconds := fs.Float64("seconds", 15, "length of the measured window")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	tiny := fs.Bool("tiny", false, "shrink every workload to seconds-scale inputs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(workloads, *workload) || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload %v, --seconds > 0 and --trace 0|1\n", workloads)
		return 2
	}
	o := options{
		workload: *workload, seed: *seed, trace: *trace == 1, tiny: *tiny,
		seconds: time.Duration(*seconds * float64(time.Second)),
		workDir: filepath.Join(".bench_build", "perfbench-work", strconv.Itoa(os.Getpid())),
	}
	defer os.RemoveAll(o.workDir)
	rep, err := execute(o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if rep.failed > 0 {
		return 1
	}
	return 0
}

// execute runs the workload, prints the human-readable report, and ends
// with the JSON line.
func execute(o options, stdout io.Writer) (*report, error) {
	rep := &report{}
	var tracers []*tracer
	var err error
	if o.workload == "daemon-session" {
		tracers, err = runDaemon(o, rep)
	} else {
		tracers, err = runSweep(o, rep)
	}
	if err != nil {
		return nil, err
	}
	want := append(append([]metricSpec(nil), endToEnd...), daemonEndToEnd...)
	fill := math.NaN()
	spans := ""
	if o.trace {
		want, fill = perLayer, 0
		spans = filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err := writeSpans(spans, o.workload, tracers); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	for _, m := range want {
		if _, ok := rep.lookup(m.name); !ok {
			rep.add(metric{Name: m.name, Value: fill, Unit: m.unit, Note: "not exercised by this workload"})
		}
	}
	mode := "untraced: end-to-end metrics"
	if o.trace {
		mode = "traced: per-layer metrics"
	}
	fmt.Fprintf(stdout, "perfbench %s seed=%d window=%v (%s)\n", o.workload, o.seed, o.seconds, mode)
	rep.print(stdout)
	if spans != "" {
		fmt.Fprintf(stdout, "  spans written to %s\n", spans)
	}
	fmt.Fprintf(stdout, "  digest %s\n", rep.digest)

	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: rep.failed == 0, Attempted: max(rep.attempted, 1), Failed: rep.failed, Metrics: map[string]map[string]any{}}
	gated := endToEnd
	if o.trace {
		gated = perLayer
	}
	for _, m := range gated {
		got, _ := rep.lookup(m.name)
		if got.Unit != m.unit {
			return nil, fmt.Errorf("metric %s reported in %q, declared %q", m.name, got.Unit, m.unit)
		}
		if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			return nil, fmt.Errorf("metric %s has no value", m.name)
		}
		out.Metrics[m.name] = map[string]any{"value": got.Value, "unit": m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(stdout, string(line))
	return rep, nil
}
