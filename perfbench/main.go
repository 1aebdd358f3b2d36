// Command perfbench is the repository benchmark. It drives adawave from the
// outside — the engine through its package API, the HTTP stack through the
// real adawave-router and adawave-serve binaries — on one workload (or all
// of them) per invocation, checks every output, and prints one JSON result
// line:
//
//	perfbench --workload batch|highd|serve|all --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics, measured with no
// tracing installed. With --trace 1 the same loop runs untraced and then
// traced, and the result carries the per-layer metrics, the tracing overhead
// and (on serve) the latency no layer accounts for. Spans are kept in memory
// and written under --work when the run ends. README.md lists the
// workloads, every metric and the layer → end-to-end map.
//
// run.sh builds this command and both server binaries from source first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workload runs one workload under r and fills r's result.
type workload func(r *run) error

var workloads = map[string]workload{
	"batch": runBatch,
	"highd": runHighD,
	"serve": runServe,
}

// workloadOrder is the order --workload all runs them in.
var workloadOrder = []string{"batch", "highd", "serve"}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

// mainErr parses args, runs the named workloads and prints the report and
// the result line to stdout. It returns the process exit code: 0 only when
// every operation succeeded and every output was correct.
func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: batch, highd, serve or all")
		seed    = fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds = fs.Float64("seconds", 10, "length of each measured loop in seconds")
		trace   = fs.Int("trace", 0, "1 = untraced loop, then traced loop; report per-layer metrics")
		bin     = fs.String("bin", "", "directory holding the adawave-serve and adawave-router binaries (serve)")
		work    = fs.String("work", ".bench_build", "scratch directory for server data, logs and span files")
		rev     = fs.String("commit", "unknown", "source revision the binaries were built from, for the report")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadOrder
	} else if workloads[*name] == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want batch, highd, serve or all)\n", *name)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	combined := result{Correct: true, Metrics: map[string]metric{}}
	for _, n := range names {
		r := newRun(*seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *bin, *work, stdout)
		r.printf("# perfbench workload=%s seed=%d seconds=%g trace=%d", n, *seed, *seconds, *trace)
		r.printf("# env %s commit=%s", r.env(), *rev)
		total0, steal0, cpuErr := cpuTimes()
		if err := workloads[n](r); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", n, err)
			return 1
		}
		if total1, steal1, err := cpuTimes(); cpuErr == nil && err == nil && total1 > total0 {
			r.note("cpu steal over the run: %.2f%% of machine time (the hypervisor running other guests)", 100*(steal1-steal0)/(total1-total0))
		}
		if r.traced {
			out := filepath.Join(*work, fmt.Sprintf("trace-%s-seed%d.json", n, *seed))
			if err := r.tr.write(out); err != nil {
				fmt.Fprintf(stderr, "perfbench: write trace: %v\n", err)
				return 1
			}
			r.printf("# spans: %d written to %s", len(r.tr.spans), out)
		}
		res := r.result()
		r.printReport(res)
		if len(names) == 1 {
			combined = res
			break
		}
		combined.Correct = combined.Correct && res.Correct
		combined.Attempted += res.Attempted
		combined.Failed += res.Failed
		for k, v := range res.Metrics {
			combined.Metrics[n+"."+k] = v
		}
	}
	line, err := json.Marshal(combined)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !combined.Correct || combined.Failed > 0 {
		return 1
	}
	return 0
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the command prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one workload invocation: its settings, its counters, the metrics it
// reports and the report lines that explain them.
type run struct {
	seed    int64
	seconds time.Duration
	traced  bool
	bin     string
	work    string
	out     io.Writer
	workers int

	attempted, failed int64
	correct           bool
	// e2e holds the end-to-end metrics (always measured untraced), layer
	// the per-layer metrics of a traced run.
	e2e   map[string]metric
	layer map[string]metric
	// aliases are report-only copies of end-to-end metrics under the names
	// the workload's users know them by (cluster_p50_ms, rounds_per_s).
	aliases map[string]metric
	// notes are report lines printed after the metric table.
	notes []string
	tr    *tracer
}

func newRun(seed int64, seconds time.Duration, traced bool, bin, work string, out io.Writer) *run {
	return &run{
		seed: seed, seconds: seconds, traced: traced,
		bin: bin, work: work, out: out, workers: runtime.NumCPU(),
		correct: true,
		e2e:     map[string]metric{}, layer: map[string]metric{}, aliases: map[string]metric{},
		tr: newTracer(),
	}
}

func (r *run) printf(format string, args ...any) {
	fmt.Fprintf(r.out, format+"\n", args...)
}

// note adds an explanatory report line (sample counts, aliases, checks).
func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// maxFailureNotes caps the report lines failures add.
const maxFailureNotes = 8

// fail records a failed operation; a failure makes the whole run incorrect.
func (r *run) fail(format string, args ...any) {
	r.failed++
	r.correct = false
	if r.failed <= maxFailureNotes {
		r.note("FAILED: "+format, args...)
	}
}

func (r *run) setE2E(name string, v float64, unit string) { r.e2e[name] = metric{v, unit} }

func (r *run) setLayer(name string, v float64, unit string) { r.layer[name] = metric{v, unit} }

// alias prints metric src under another name too.
func (r *run) alias(name, src string) {
	m, ok := r.e2e[src]
	if !ok {
		m = r.layer[src]
	}
	r.aliases[name] = m
}

// result assembles the result line: end-to-end metrics untraced, per-layer
// metrics traced. Every per-layer name is present on every workload; a
// layer the workload never calls reports 0 (see README.md).
func (r *run) result() result {
	res := result{Correct: r.correct && r.failed == 0, Attempted: r.attempted, Failed: r.failed}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = max(res.Failed, 1)
		res.Correct = false
	}
	src := r.e2e
	if r.traced {
		src = map[string]metric{}
		for _, m := range layerMetrics {
			src[m.name] = metric{0, m.unit}
		}
		for k, v := range r.layer {
			src[k] = v
		}
	}
	res.Metrics = src
	return res
}

// printReport prints every measured metric, per-layer ones included, then
// the notes, as human-readable lines ahead of the result line.
func (r *run) printReport(res result) {
	all := map[string]metric{}
	for _, m := range []map[string]metric{r.e2e, r.layer, r.aliases} {
		for k, v := range m {
			all[k] = v
		}
	}
	ratio := 0.0
	if res.Attempted > 0 {
		ratio = float64(res.Failed) / float64(res.Attempted)
	}
	all["failed_ratio"] = metric{ratio, "ratio"}
	keys := make([]string, 0, len(all))
	for k := range all {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		r.printf("%-34s %16.6g %s", k, all[k].Value, all[k].Unit)
	}
	for _, n := range r.notes {
		r.printf("# %s", n)
	}
	r.printf("# attempted=%d failed=%d correct=%v", res.Attempted, res.Failed, res.Correct)
}

// env records what the numbers depend on besides the code: the machine's
// processors, the Go runtime's share of them, the engine worker count, the
// toolchain and the seed.
func (r *run) env() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d workers=%d go=%s seed=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), r.workers, runtime.Version(), r.seed)
}
