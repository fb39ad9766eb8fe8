// Command perfbench is the repository's benchmark. For one workload it
// generates seeded inputs, builds the system, drives it through its
// public Go APIs and its localhost /v1 HTTP surface, checks the
// outputs, and prints every metric by name and unit; the last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics, measured with
// tracing off. With -trace 1 the workload runs twice, untraced then
// traced, and the metrics are the per-layer metrics, including the
// tracing overhead; the spans are written as a Perfetto-loadable trace.
// METRICS.md lists the workloads and which end-to-end metric each
// per-layer metric should move.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench -workload batch|firehose|query -seed N -seconds S -trace 0|1 [-out DIR]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"text/tabwriter"

	"repro/internal/obs"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string  // directory for the trace file
	scale    float64 // fleet-size multiplier; 0 or 1 is benchmark size, tests set less
}

// workload is one benchmark workload: prepare generates and encodes its
// inputs and computes its references (none of which is measured);
// measure builds the system and runs it, with tr nil when untraced.
type workload interface {
	prepare(o options) error
	measure(o options, tr *obs.Tracer) (*results, *layerAcc, error)
	// primary picks the end-to-end metric the tracing overhead is
	// reported on, and whether higher is better.
	primary() (string, bool)
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "batch":
		return &batchWorkload{}, nil
	case "firehose":
		return &firehoseWorkload{}, nil
	case "query":
		return &queryWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want batch, firehose or query)", name)
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "batch, firehose or query")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured time per run")
	fs.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from an extra traced run")
	fs.StringVar(&o.out, "out", ".bench_build", "directory the traced run writes its trace file to")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if traceFlag != 0 && traceFlag != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1")
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("-seconds must be positive")
	}
	o.trace = traceFlag == 1
	return o, nil
}

// run executes one workload run and prints its report to stdout.
func run(o options, stdout io.Writer) error {
	runtime.GOMAXPROCS(runtime.NumCPU())
	w, err := newWorkload(o.workload)
	if err != nil {
		return err
	}
	if err := w.prepare(o); err != nil {
		return err
	}
	res, _, err := w.measure(o, nil)
	if err != nil {
		return err
	}
	if o.trace {
		untraced := res
		tr := obs.NewTracer(obs.TracerConfig{Capacity: 1 << 18, Seed: o.seed})
		var acc *layerAcc
		if res, acc, err = w.measure(o, tr); err != nil {
			return err
		}
		name, higher := w.primary()
		acc.overhead = overhead(find(untraced.e2e, name), find(res.e2e, name), higher)
		res.e2e = nil
		// The latency tails come from the untraced run, like every
		// end-to-end figure.
		res.layer, res.tails = untraced.tails, nil
		acc.rows(res)
		res.selfTime = selfTimes(tr.Records())
		path, err := writeTrace(tr, o.out, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
		if err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(stdout, "trace: %s (%d spans kept, %d overwritten)\n", path, tr.Len(), tr.Dropped())
		res.attempted += untraced.attempted
		res.failed += untraced.failed
		res.problems = append(untraced.problems, res.problems...)
	}
	return report(stdout, o, res)
}

// overhead is how much worse the traced value is than the untraced one,
// as a share of the untraced value.
func overhead(untraced, traced float64, higherBetter bool) float64 {
	if higherBetter {
		return untraced/traced - 1
	}
	return traced/untraced - 1
}

func find(rows []row, name string) float64 {
	for _, r := range rows {
		if r.name == name {
			return r.value
		}
	}
	return math.NaN()
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type reportJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// report prints the metric table, the correctness problems and, last,
// the JSON result line.
func report(stdout io.Writer, o options, res *results) error {
	rows := append(res.e2e, res.layer...)
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "workload %s seed %d, %gs\n", o.workload, o.seed, o.seconds)
	fmt.Fprintln(tw, "metric\tvalue\tunit\tnote")
	printed := append(append(append(append([]row(nil), rows...), res.tails...), res.info...), res.selfTime...)
	for _, r := range printed {
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\n", r.name, r.value, r.unit, r.note)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, p := range res.problems {
		fmt.Fprintln(stdout, "CHECK FAILED:", p)
	}
	out := reportJSON{
		Correct:   len(res.problems) == 0,
		Attempted: max(1, res.attempted),
		Failed:    res.failed,
		Metrics:   map[string]metricJSON{},
	}
	for _, r := range rows {
		v := r.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// A percentile that only failures reach, or a ratio with no
			// base: report it as failed rather than as a number.
			out.Correct = false
			fmt.Fprintf(stdout, "CHECK FAILED: %s has no finite value\n", r.name)
			v = -1
		}
		out.Metrics[r.name] = metricJSON{Value: v, Unit: r.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(b))
	return err
}
