package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"github.com/intrust-sim/intrust/internal/attack/physical"
	"github.com/intrust-sim/intrust/internal/core"
	"github.com/intrust-sim/intrust/internal/cpu"
	"github.com/intrust-sim/intrust/internal/diskcache"
	"github.com/intrust-sim/intrust/internal/engine"
	"github.com/intrust-sim/intrust/internal/isa"
	"github.com/intrust-sim/intrust/internal/mem"
	"github.com/intrust-sim/intrust/internal/perf"
	"github.com/intrust-sim/intrust/internal/platform"
	"github.com/intrust-sim/intrust/internal/power"
	"github.com/intrust-sim/intrust/internal/scenario"
	"github.com/intrust-sim/intrust/internal/serve"
	"github.com/intrust-sim/intrust/internal/stats"
)

// A probe times calls into one layer from the benchmark's own code. The
// probes run identically in every traced run, whatever the workload, so
// each per-layer figure is measured the same way on every workload.
type probe struct {
	name string
	run  func(cfg config, tr *tracer, parent int64, out *outcome) error
}

var probes = []probe{
	{"engine", probeEngine},
	{"scenario", probeScenarios},
	{"power", probePower},
	{"cache", probeCache},
	{"cpu", probeCPU},
	{"mem", probeMEE},
	{"platform", probePlatform},
	{"core", probeCore},
	{"serve", probeServe},
	{"diskcache", probeDiskcache},
}

// runProbes runs every probe under its own span.
func runProbes(cfg config, tr *tracer) (*outcome, error) {
	out := newOutcome()
	for _, p := range probes {
		id := tr.newID()
		start := time.Now()
		if err := p.run(cfg, tr, id, out); err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		tr.add(id, 0, "probe:"+p.name, start, time.Now(), nil)
	}
	return out, nil
}

// dispatchJobs is the number of no-op experiments the engine probe
// schedules per repetition.
const dispatchJobs = 20000

// probeEngine times Engine.Run over no-op experiments: the scheduler's
// per-job cost (seed derivation, queueing, result commit).
func probeEngine(cfg config, _ *tracer, _ int64, out *outcome) error {
	exps := make([]engine.Experiment, dispatchJobs)
	for i := range exps {
		exps[i] = engine.Experiment{
			Name: fmt.Sprintf("noop/%d", i),
			Run:  func(*engine.Ctx) (engine.Outcome, error) { return engine.Outcome{}, nil },
		}
	}
	eng := engine.New(cfg.workers)
	reps, err := timeReps(5, func() error {
		_, err := eng.Run(context.Background(), exps)
		return err
	})
	if err != nil {
		return err
	}
	out.set("engine.dispatch_us_per_job", median(reps)/dispatchJobs*1e6, "us", len(reps))
	return nil
}

// namedScenarios are the scenarios whose time the scenario probe
// reports on its own, beside the family totals.
var namedScenarios = []string{"dpa", "cpa", "evict+time", "foreshadow"}

// probeScenarios runs the none-defense slice of the grid (every
// scenario on every architecture, at the grid's budget) on one worker
// and sums the self time of the wrapped Experiment.Run calls by family
// and for the named scenarios.
func probeScenarios(cfg config, tr *tracer, parent int64, out *outcome) error {
	keys, exps, err := gridSetup(nil, []string{"none"}, cfg.seed)
	if err != nil {
		return err
	}
	if _, err := engine.New(1).Run(context.Background(), traceCells(exps, keys, tr, parent)); err != nil {
		return err
	}
	sums := map[string]float64{} // by family and by scenario name
	for _, s := range tr.children(parent) {
		d := float64(s.dur()) / 1e9
		sums[s.Tags["family"]] += d
		sums[s.Tags["scenario"]] += d
	}
	for _, f := range scenario.FamilyOrder {
		out.set("scenario."+f+"_s", sums[f], "s", len(keys))
	}
	for _, n := range namedScenarios {
		out.set("scenario."+strings.ReplaceAll(n, "+", "-")+"_s", sums[n], "s", len(keys))
	}
	return nil
}

// The power probe's trace counts: the DPA floor the grid realizes and
// the grid's CPA reference budget.
const (
	dpaTraces   = 1500
	cpaTraces   = gridSamples
	tracePoints = 160
)

// probePower times trace capture into an arena and the DPA and CPA key
// recoveries over it, on the unprotected AES victim the grid attacks.
func probePower(cfg config, _ *tracer, _ int64, out *outcome) error {
	victim, err := physical.NewUnprotectedAES(scenario.VictimKey())
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	capture := func(a *power.Arena, n int, sigma float64) {
		a.Reset()
		a.Grow(n, tracePoints)
		physical.CollectArena(a, victim, power.PowerProbe(sigma, 1), n, rng)
	}
	dpa, cpa := power.NewArena(16), power.NewArena(16)
	caps, err := timeReps(3, func() error { capture(dpa, dpaTraces, 0.5); return nil })
	if err != nil {
		return err
	}
	capture(cpa, cpaTraces, 0.8)
	dpaReps, err := timeReps(3, func() error { physical.DPAKeyArena(dpa); return nil })
	if err != nil {
		return err
	}
	cpaReps, err := timeReps(10, func() error { physical.CPAKeyArena(cpa); return nil })
	if err != nil {
		return err
	}
	out.set("power.capture_us_per_trace", median(caps)/dpaTraces*1e6, "us", len(caps))
	out.set("power.dpa_key_ms", median(dpaReps)*1e3, "ms", len(dpaReps))
	out.set("power.cpa_key_ms", median(cpaReps)*1e3, "ms", len(cpaReps))
	return nil
}

// probeCache times server-platform hierarchy accesses over a mixed
// hit, miss and flush pattern; the allocation count comes from the
// same pattern in perf.AllocsPerAccess.
func probeCache(_ config, _ *tracer, _ int64, out *outcome) error {
	p := platform.NewServer()
	defer p.Mem.Release()
	h := p.Core(0).Hier
	const rounds, lines = 256, 512
	access := func() {
		for i := 0; i < lines; i++ {
			h.Data(uint32(i)*64, i%8 == 0, i%3)
		}
		for i := 0; i < lines; i += 8 {
			h.FlushAddr(uint32(i) * 64)
		}
	}
	access() // let lazily grown scratch buffers reach their size
	start := time.Now()
	for r := 0; r < rounds; r++ {
		access()
	}
	accesses := rounds * (lines + lines/8)
	out.set("cache.access_ns", float64(time.Since(start).Nanoseconds())/float64(accesses), "ns", accesses)
	out.set("cache.allocs_per_access", perf.AllocsPerAccess(), "count", 1)
	return nil
}

// cpuProgram is a mixed integer, memory and branch loop for the CPU
// probe, shaped like the platform's reference workload but long enough
// to time.
const cpuProgram = `
        .org 0x8000
        li   t0, 0
        li   t1, 100000
        li   t2, 0x9000
        li   s0, 0
loop:   andi t3, t0, 63
        slli t3, t3, 2
        add  t4, t2, t3
        lw   s1, 0(t4)
        add  s1, s1, t0
        sw   s1, 0(t4)
        mul  s2, s1, t0
        add  s0, s0, s2
        andi t3, t0, 7
        bne  t3, zero, skip
        addi s0, s0, 13
skip:   addi t0, t0, 1
        bne  t0, t1, loop
        hlt
`

// probeCPU runs cpuProgram on a server core and reports simulated
// instructions per host second.
func probeCPU(_ config, _ *tracer, _ int64, out *outcome) error {
	p := platform.NewServer()
	defer p.Mem.Release()
	prog := isa.MustAssemble(cpuProgram)
	if err := p.Mem.LoadProgram(prog); err != nil {
		return err
	}
	c := p.Core(0)
	var mips []float64
	for i := 0; i < 3; i++ {
		c.Reset(prog.Entry)
		start := time.Now()
		res, err := c.Run(10_000_000)
		wall := time.Since(start)
		if err != nil {
			return err
		}
		if res.Reason != cpu.StopHalt {
			return fmt.Errorf("probe program stopped with %v", res.Reason)
		}
		mips = append(mips, float64(res.Instret)/wall.Seconds()/1e6)
	}
	out.set("cpu.sim_mips", median(mips), "MIPS", len(mips))
	return nil
}

// probeMEE times reads through the memory encryption engine over an
// initialized 256 KiB protected range.
func probeMEE(cfg config, _ *tracer, _ int64, out *outcome) error {
	m := mem.NewMemory()
	m.MustAddRegion(mem.Region{Name: "epc", Base: 0, Size: 1 << 20, Kind: mem.RegionRAM})
	defer m.Release()
	const size = 256 << 10
	e, err := mem.NewMEE(m, 0, size, []byte("perfbench mee k!"))
	if err != nil {
		return err
	}
	if err := e.Init(); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	addrs := make([]uint32, 50000)
	for i := range addrs {
		addrs[i] = uint32(rng.Intn(size/4)) * 4
	}
	start := time.Now()
	for _, a := range addrs {
		if _, err := e.Read(a, 4); err != nil {
			return err
		}
	}
	out.set("mem.mee_read_ns", float64(time.Since(start).Nanoseconds())/float64(len(addrs)), "ns", len(addrs))
	return nil
}

// probePlatform times building a server platform and resetting one
// whose caches were just filled.
func probePlatform(_ config, _ *tracer, _ int64, out *outcome) error {
	var builds []float64
	for i := 0; i < 8; i++ {
		start := time.Now()
		p := platform.NewServer()
		builds = append(builds, time.Since(start).Seconds())
		p.Mem.Release()
	}
	p := platform.NewServer()
	defer p.Mem.Release()
	h := p.Core(0).Hier
	var resets []float64
	for i := 0; i < 50; i++ {
		for a := 0; a < 4096; a++ {
			h.Data(uint32(a)*64, a%4 == 0, 0)
		}
		start := time.Now()
		p.Reset()
		resets = append(resets, time.Since(start).Seconds())
	}
	out.set("platform.new_server_us", median(builds)*1e6, "us", len(builds))
	out.set("platform.reset_us", median(resets)*1e6, "us", len(resets))
	return nil
}

// probeCore times resolving the full grid: EnumerateCells plus
// CellKey.Experiment for every cell.
func probeCore(cfg config, _ *tracer, _ int64, out *outcome) error {
	var n int
	reps, err := timeReps(5, func() error {
		keys, _, err := gridSetup(nil, allDefenses, cfg.seed)
		n = len(keys)
		return err
	})
	if err != nil {
		return err
	}
	out.set("core.resolve_us_per_cell", median(reps)/float64(n)*1e6, "us", len(reps))
	return nil
}

// The serve probe's request mix: the attestation family's none+stock
// cells, cheap to compute, with Zipf popularity.
const serveProbeRequests = 400

// probeServe drives a request sequence through Server.ServeHTTP on a
// recorder, with no socket: once on a fresh server, once on a server
// restarted over the same disk tier.
func probeServe(cfg config, _ *tracer, _ int64, out *outcome) error {
	keys, err := core.EnumerateCells(nil, []string{scenario.FamilyAttestation}, []string{"none", "stock"}, core.CellOptions{
		Samples: serveSamples, Confidence: stats.DefaultConfidence, Seed: cfg.seed,
	})
	if err != nil {
		return err
	}
	seq := zipfSequence(cfg.seed, cellGroups(keys), serveProbeRequests, zipfExponent)
	dir, err := os.MkdirTemp(cfg.tmpDir, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	tiers := [2]map[string]int{{}, {}}
	var hits []float64
	for phase := range tiers {
		srv, err := serve.New(serve.Options{CacheDir: dir, CacheSecret: cacheSecret, MaxInFlight: 1})
		if err != nil {
			return err
		}
		for _, k := range seq {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodGet, cellPath(keys[k]), nil)
			start := time.Now()
			srv.ServeHTTP(rec, req)
			d := time.Since(start)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("%s: status %d", keys[k].Encode(), rec.Code)
			}
			tier := rec.Header().Get("X-Cache")
			tiers[phase][tier]++
			if phase == 0 && tier == "hit" {
				hits = append(hits, float64(d.Nanoseconds())/1e3)
			}
		}
	}
	if len(hits) == 0 {
		return fmt.Errorf("no memory hits among %d requests", len(seq))
	}
	n := float64(len(seq))
	out.set("serve.handler_hit_us", median(hits), "us", len(hits))
	out.set("serve.hit_ratio", float64(tiers[0]["hit"])/n, "share", len(seq))
	out.set("serve.disk_hit_ratio", float64(tiers[1]["disk"])/n, "share", len(seq))
	out.set("serve.computed_cells", float64(tiers[0]["miss"]), "count", len(seq))
	return nil
}

// probeDiskcache times authenticated puts (with their fsyncs) and gets
// of cell-sized bodies in a fresh store.
func probeDiskcache(cfg config, _ *tracer, _ int64, out *outcome) error {
	dir, err := os.MkdirTemp(cfg.tmpDir, "disk-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := diskcache.Open(dir, cacheSecret)
	if err != nil {
		return err
	}
	body := bytes.Repeat([]byte(`{"key":"cell|v1|x","class":"broken"}`), 24) // about 1 KiB, like a cell body
	addrs := make([]string, 32)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("probe|%d|%d", cfg.seed, i)
	}
	var puts, gets []float64
	for _, a := range addrs {
		start := time.Now()
		if err := st.Put(a, body); err != nil {
			return err
		}
		puts = append(puts, time.Since(start).Seconds())
	}
	for r := 0; r < 10; r++ {
		for _, a := range addrs {
			start := time.Now()
			got, ok := st.Get(a)
			gets = append(gets, time.Since(start).Seconds())
			if !ok || !bytes.Equal(got, body) {
				return fmt.Errorf("entry %s did not read back", a)
			}
		}
	}
	out.set("diskcache.put_ms", median(puts)*1e3, "ms", len(puts))
	out.set("diskcache.get_us", median(gets)*1e6, "us", len(gets))
	return nil
}
