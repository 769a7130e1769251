package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/intrust-sim/intrust/internal/core"
	"github.com/intrust-sim/intrust/internal/engine"
	"github.com/intrust-sim/intrust/internal/scenario"
	"github.com/intrust-sim/intrust/internal/stats"
)

// gridSamples is the requested per-cell budget of both grid workloads
// (raised to each scenario's floor), the golden grid's budget.
const gridSamples = 96

// allDefenses selects one grid layer per registered defense.
var allDefenses = []string{"all"}

// microarchFamilies are the families of grid-microarch: every family
// without power analysis.
var microarchFamilies = []string{scenario.FamilyCacheSCA, scenario.FamilyTransient, scenario.FamilyAttestation}

// Each grid run makes at least minPasses passes, so that the digest of
// one pass can be compared with another's.
const minPasses = 2

// A run times its set-up setupReps times before it measures, and then
// again during the run: setupRepsBetween times after each grid pass, or
// once per serve-zipf round. The host's speed switches between two
// modes about 1.7× apart, and set-ups timed back to back tend to land in
// one mode; spread over the run, their median follows the run's mix of
// modes as the other metrics do. setup_s is the median of them all.
const (
	setupReps        = 5
	setupRepsBetween = 3
)

// gridSetup is the grid workloads' set-up: resolve every cell of the
// families (nil for all) × architectures × defense layers at the grid's
// budget and the workload seed, and build each cell's experiment.
func gridSetup(families, defenses []string, seed int64) ([]core.CellKey, []engine.Experiment, error) {
	keys, err := core.EnumerateCells(nil, families, defenses, core.CellOptions{
		Samples:    gridSamples,
		Confidence: stats.DefaultConfidence,
		Seed:       seed,
	})
	if err != nil {
		return nil, nil, err
	}
	exps := make([]engine.Experiment, len(keys))
	for i, k := range keys {
		if exps[i], err = k.Experiment(); err != nil {
			return nil, nil, err
		}
	}
	return keys, exps, nil
}

// expectedCells is the cell count the registries imply: scenarios of
// the families × architectures × registered defenses.
func expectedCells(families []string) int {
	n := len(scenario.All())
	if families != nil {
		n = 0
		for _, f := range families {
			n += len(scenario.ByFamily(f))
		}
	}
	return n * len(core.AllArchitectures) * len(core.AllDefenseNames())
}

// gridPass is one Engine.Run over the whole grid.
type gridPass struct {
	results []engine.Result
	wall    time.Duration
	cpu     time.Duration
	digest  string
	span    span // zero unless the pass was traced
}

// traceCells wraps each experiment's Run so that it records a span
// under the pass span parent. The wrapper only times the call; the
// experiment and its seed are unchanged.
func traceCells(exps []engine.Experiment, keys []core.CellKey, tr *tracer, parent int64) []engine.Experiment {
	out := make([]engine.Experiment, len(exps))
	for i := range exps {
		exp, key := exps[i], keys[i]
		run := exp.Run
		tags := map[string]string{"family": exp.Attack, "scenario": key.Scenario, "arch": key.Arch, "defense": key.Defense}
		exp.Run = func(ctx *engine.Ctx) (engine.Outcome, error) {
			start := time.Now()
			out, err := run(ctx)
			tr.add(0, parent, "cell", start, time.Now(), tags)
			return out, err
		}
		out[i] = exp
	}
	return out
}

func runPass(eng *engine.Engine, exps []engine.Experiment, keys []core.CellKey, tr *tracer) (*gridPass, error) {
	id := tr.newID()
	if tr != nil {
		exps = traceCells(exps, keys, tr, id)
	}
	cpu0, start := cpuTime(), time.Now()
	results, err := eng.Run(context.Background(), exps)
	end := time.Now()
	p := &gridPass{results: results, wall: end.Sub(start), cpu: cpuTime() - cpu0}
	if err != nil {
		return nil, err
	}
	if len(results) != len(keys) {
		return nil, fmt.Errorf("pass returned %d results for %d cells", len(results), len(keys))
	}
	if tr != nil {
		tr.add(id, 0, "pass", start, end, nil)
		p.span = span{ID: id, Start: start.Sub(tr.epoch).Nanoseconds(), End: end.Sub(tr.epoch).Nanoseconds()}
	}
	if p.digest, err = resultsDigest(results); err != nil {
		return nil, err
	}
	return p, nil
}

// resultsDigest hashes a pass's results with the timing field removed:
// two passes over the same cells must hash alike at any worker count.
func resultsDigest(results []engine.Result) (string, error) {
	h := sha256.New()
	for _, r := range results {
		r.DurationNS = 0
		b, err := json.Marshal(r)
		if err != nil {
			return "", fmt.Errorf("digest %s: %w", r.Name, err)
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// checkGolden compares every cell's verdict class with the checked-in
// golden grid, which pins the grid at seed 0.
func checkGolden(keys []core.CellKey, results []engine.Result) error {
	f, err := os.Open(goldenFile)
	if err != nil {
		return err
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Split(sc.Text(), "\t")
		if len(fields) != 4 {
			return fmt.Errorf("%s: malformed line %q", goldenFile, sc.Text())
		}
		want[strings.Join(fields[:3], "\t")] = fields[3]
	}
	if err := sc.Err(); err != nil {
		return err
	}
	diffs := 0
	for i, k := range keys {
		cell := k.Scenario + "\t" + k.Arch + "\t" + k.Defense
		class, ok := want[cell]
		if got := scenario.VerdictClass(results[i].Verdict); !ok || got != class {
			if diffs < 5 {
				fmt.Fprintf(os.Stderr, "golden mismatch %s: got %q want %q\n", cell, got, class)
			}
			diffs++
		}
	}
	if diffs > 0 {
		return fmt.Errorf("%d of %d cells differ from %s", diffs, len(keys), goldenFile)
	}
	return nil
}

// runGrid runs the grid over families (nil for all) on the engine,
// pass after pass, until the run's time is up. Untraced, it measures
// the end-to-end metrics; traced, it alternates untraced and traced
// passes and measures the engine's per-layer metrics and the tracing
// overhead.
func runGrid(cfg config, families []string, tr *tracer) (*outcome, error) {
	var keys []core.CellKey
	var exps []engine.Experiment
	setups, err := timeReps(setupReps, func() error {
		var err error
		keys, exps, err = gridSetup(families, allDefenses, cfg.seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	if want := expectedCells(families); len(keys) != want {
		return nil, fmt.Errorf("grid has %d cells, the registries imply %d", len(keys), want)
	}

	eng := engine.New(cfg.workers)
	var passes []*gridPass
	start := time.Now()
	for i := 0; i < minPasses || time.Since(start) < cfg.seconds; i++ {
		var ptr *tracer
		if i%2 == 1 {
			ptr = tr // a traced run alternates untraced and traced passes
		}
		p, err := runPass(eng, exps, keys, ptr)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", i+1, err)
		}
		if len(passes) > 0 && p.digest != passes[0].digest {
			return nil, fmt.Errorf("pass %d digest %s differs from pass 1 digest %s", i+1, p.digest, passes[0].digest)
		}
		if i == 0 && cfg.seed == 0 {
			if err := checkGolden(keys, p.results); err != nil {
				return nil, err
			}
		}
		passes = append(passes, p)
		more, err := timeReps(setupRepsBetween, func() error {
			_, _, err := gridSetup(families, allDefenses, cfg.seed)
			return err
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, more...)
	}

	out := newOutcome()
	out.attempted = len(passes) * len(keys)
	sum := engine.Summarize(passes[0].results, passes[0].wall)
	out.summary["cells"] = len(keys)
	out.summary["passes"] = len(passes)
	out.summary["digest"] = passes[0].digest
	out.summary["error_rate"] = 0.0
	out.summary["verdicts"] = sum.VerdictList()
	out.summary["family_s_per_pass"] = familyTime(passes)

	if tr == nil {
		var rate, cpuPerCell []float64
		var lat [][]float64
		for _, p := range passes {
			rate = append(rate, float64(len(keys))/p.wall.Seconds())
			cpuPerCell = append(cpuPerCell, p.cpu.Seconds()/float64(len(keys)))
			ms := make([]float64, len(p.results))
			for i, r := range p.results {
				ms[i] = float64(r.DurationNS) / 1e6
			}
			lat = append(lat, ms)
		}
		out.set("cells_per_s", median(rate), "1/s", len(passes))
		out.set("cpu_s_per_cell", median(cpuPerCell), "s", len(passes))
		out.set("setup_s", median(setups), "s", len(setups))
		if err := setLatencies(out, lat); err != nil {
			return nil, err
		}
		return out, nil
	}

	var busy, under, tracedWall, plainWall []float64
	for _, p := range passes {
		if p.span.ID == 0 {
			plainWall = append(plainWall, p.wall.Seconds())
			continue
		}
		tracedWall = append(tracedWall, p.wall.Seconds())
		cells := tr.children(p.span.ID)
		busy = append(busy, busyShare(p.span, cells, cfg.workers))
		under = append(under, underfilled(p.span, cells, cfg.workers).Seconds())
	}
	out.set("engine.busy_share", median(busy), "share", len(busy))
	out.set("engine.underfilled_s", median(under), "s", len(under))
	out.set("trace.overhead_share", median(tracedWall)/median(plainWall)-1, "share", len(passes))
	setSampling(out, sum.TotalSamples, sum.FixedSamples, sum.EarlyStopped, sum.Escalated)
	return out, nil
}

// familyTime is the mean time per pass spent in each family's cells,
// from the engine's per-job durations.
func familyTime(passes []*gridPass) map[string]float64 {
	t := map[string]float64{}
	for _, p := range passes {
		for _, r := range p.results {
			t[r.Attack] += float64(r.DurationNS) / 1e9 / float64(len(passes))
		}
	}
	return t
}

// setLatencies sets the latency metrics over every delivered cell: on
// the grids each cell's Experiment.Run time, on serve-zipf each phase-1
// request. Each percentile is taken per pass (or round), where it must
// have at least minBeyond samples beyond it, and the metric is the
// median over passes: a pass that ran while the host was slow then
// moves it less than it would move a percentile of all passes pooled.
func setLatencies(out *outcome, perPass [][]float64) error {
	var p50s, p90s, p99s []float64
	n := 0
	for _, lat := range perPass {
		if tailPercentile(len(lat)) < p99 {
			return fmt.Errorf("%d cells are too few for a p99 with %d beyond it", len(lat), minBeyond)
		}
		p50s = append(p50s, percentile(lat, p50))
		p90s = append(p90s, percentile(lat, p90))
		p99s = append(p99s, percentile(lat, p99))
		n += len(lat)
	}
	out.set("cell_p50_ms", median(p50s), "ms", n)
	out.set("cell_p90_ms", median(p90s), "ms", n)
	out.set("cell_p99_ms", median(p99s), "ms", n)
	lat := perPass[0]
	tail := tailPercentile(len(lat))
	out.summary["cell_tail_pass1"] = fmt.Sprintf("p%g = %.4g ms (n=%d, %d beyond)", float64(tail)/10, percentile(lat, tail), len(lat), beyond(len(lat), tail))
	return nil
}

// setSampling sets the stats.* counts: samples paid, the saving against
// fixed budgets, and the cells that stopped early or escalated.
func setSampling(out *outcome, total, fixed int64, early, escalated int) {
	out.set("stats.samples_total", float64(total), "count", 1)
	out.set("stats.sample_saving_x", float64(fixed)/float64(total), "x", 1)
	out.set("stats.early_stopped", float64(early), "count", 1)
	out.set("stats.escalated", float64(escalated), "count", 1)
	out.summary["samples"] = fmt.Sprintf("total %d fixed %d early %d escalated %d", total, fixed, early, escalated)
}
