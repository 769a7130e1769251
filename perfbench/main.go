// Command perfbench is the intrust benchmark: it drives the
// scenario × architecture × defense grid and the /cell service through
// their public functions, checks every output, and prints the metrics
// BENCHMARK.json defines.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload grid --seed 0 --seconds 40 --trace 0
//
// --trace 0 measures the end-to-end metrics. --trace 1 is a separate
// run that records spans around every call into a layer, runs the layer
// probes, prints the per-layer metrics and writes the spans to
// .bench_build/traces/<workload>-seed<N>.json. The last line of standard
// output is one JSON object; everything else goes to standard error. A
// failed correctness gate exits 1 without printing a result.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Paths are relative to the repository root, the working directory the
// benchmark runs from.
const (
	benchmarkFile = "BENCHMARK.json"
	goldenFile    = "internal/core/testdata/golden_grid.tsv"
	buildDir      = ".bench_build"
)

// maxWorkers caps engine workers and serve clients: the benchmark's
// numbers are defined for two, and fewer only where the host has fewer
// CPUs.
const maxWorkers = 2

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	workers  int
	tmpDir   string
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload or probe measured.
type outcome struct {
	attempted int
	metrics   map[string]metric
	// samples is how many observations stand behind each metric; it is
	// printed to standard error beside the value.
	samples map[string]int
	// summary is workload detail that is not a metric: it goes to
	// standard error and into the trace file.
	summary map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, samples: map[string]int{}, summary: map[string]any{}}
}

func (o *outcome) set(name string, v float64, unit string, n int) {
	o.metrics[name] = metric{Value: v, Unit: unit}
	o.samples[name] = n
}

// merge adds p's metrics and summary to o.
func (o *outcome) merge(p *outcome) {
	for k, v := range p.metrics {
		o.metrics[k] = v
		o.samples[k] = p.samples[k]
	}
	for k, v := range p.summary {
		o.summary[k] = v
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// benchmarkDef is the part of BENCHMARK.json the run checks its output
// against, so the file and the code cannot drift apart.
type benchmarkDef struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func main() {
	workload := flag.String("workload", "", "workload: grid, serve-zipf, or grid-microarch (a control run by hand)")
	seed := flag.Int64("seed", 0, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 40, "how long to measure, in seconds")
	trace := flag.Int("trace", 0, "1 records spans, runs the layer probes and prints the per-layer metrics")
	flag.Parse()
	if flag.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds time.Duration, traced bool) error {
	def, err := readBenchmarkDef()
	if err != nil {
		return err
	}
	if err := selfCheck(); err != nil {
		return fmt.Errorf("harness self-check: %w", err)
	}
	tmpRoot := filepath.Join(buildDir, "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(tmpRoot, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	cfg := config{workload: workload, seed: seed, seconds: seconds, workers: min(runtime.NumCPU(), maxWorkers), tmpDir: tmp}

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var out *outcome
	switch workload {
	case "grid":
		out, err = runGrid(cfg, nil, tr)
	case "grid-microarch":
		out, err = runGrid(cfg, microarchFamilies, tr)
	case "serve-zipf":
		out, err = runServe(cfg, tr)
	default:
		return fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	want := def.EndToEnd
	if traced {
		probes, err := runProbes(cfg, tr)
		if err != nil {
			return fmt.Errorf("probes: %w", err)
		}
		out.merge(probes)
		want = def.PerLayer
		path := filepath.Join(buildDir, "traces", fmt.Sprintf("%s-seed%d.json", workload, seed))
		if err := tr.write(path, workload, seed, cfg.workers, out.summary); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "trace written to", path)
	} else {
		out.set("max_rss_mb", maxRSSMB(), "MB", 1)
	}
	metrics, err := selectMetrics(out, want)
	if err != nil {
		return err
	}
	printReport(os.Stderr, cfg, out, want)
	line, err := json.Marshal(result{Correct: true, Attempted: out.attempted, Failed: 0, Metrics: metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func readBenchmarkDef() (*benchmarkDef, error) {
	data, err := os.ReadFile(benchmarkFile)
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var def benchmarkDef
	if err := json.Unmarshal(data, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", benchmarkFile, err)
	}
	return &def, nil
}

// selectMetrics returns exactly the metrics want names, failing when
// the run did not measure one or measured it in another unit.
func selectMetrics(out *outcome, want []metricDef) (map[string]metric, error) {
	sel := map[string]metric{}
	var missing []string
	for _, d := range want {
		m, ok := out.metrics[d.Name]
		switch {
		case !ok:
			missing = append(missing, d.Name)
		case m.Unit != d.Unit:
			return nil, fmt.Errorf("metric %s measured in %s, %s defines %s", d.Name, m.Unit, benchmarkFile, d.Unit)
		default:
			sel[d.Name] = m
		}
	}
	if len(missing) > 0 {
		return nil, errors.New("metrics not measured: " + strings.Join(missing, ", "))
	}
	return sel, nil
}

// printReport writes every metric with its unit and sample count, then
// the workload summary, for a human reader.
func printReport(w io.Writer, cfg config, out *outcome, want []metricDef) {
	fmt.Fprintf(w, "workload %s seed %d workers %d\n", cfg.workload, cfg.seed, cfg.workers)
	for _, d := range want {
		m := out.metrics[d.Name]
		fmt.Fprintf(w, "  %-28s %14.6g %-6s n=%d\n", d.Name, m.Value, m.Unit, out.samples[d.Name])
	}
	keys := make([]string, 0, len(out.summary))
	for k := range out.summary {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %s: %v\n", k, out.summary[k])
	}
}
