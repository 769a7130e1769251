package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/intrust-sim/intrust/internal/core"
	"github.com/intrust-sim/intrust/internal/serve"
	"github.com/intrust-sim/intrust/internal/stats"
)

// The serve-zipf request mix: /cell GETs over the none+stock cells at
// a few cell seeds, with Zipf popularity.
const (
	serveSamples   = 64
	serveCellSeeds = 8
	serveRequests  = 1500
	zipfExponent   = 1.1
	cacheSecret    = "perfbench"
)

// Each serve-zipf run makes at least minRounds rounds, so that the
// bodies of one round can be compared with another's.
const minRounds = 2

// serveKeys are the cells the requests address: the none+stock grid at
// serveCellSeeds cell seeds drawn from the workload seed.
func serveKeys(seed int64) ([]core.CellKey, error) {
	r := rand.New(rand.NewSource(seed))
	var keys []core.CellKey
	for i := 0; i < serveCellSeeds; i++ {
		ks, err := core.EnumerateCells(nil, nil, []string{"none", "stock"}, core.CellOptions{
			Samples:    serveSamples,
			Confidence: stats.DefaultConfidence,
			Seed:       r.Int63n(1 << 31),
		})
		if err != nil {
			return nil, err
		}
		keys = append(keys, ks...)
	}
	return keys, nil
}

// cellGroups groups key indices by (scenario, architecture): the keys
// of a group differ only in defense layer and cell seed.
func cellGroups(keys []core.CellKey) [][]int {
	at := map[string]int{}
	var groups [][]int
	for i, k := range keys {
		g, ok := at[k.Scenario+"|"+k.Arch]
		if !ok {
			g = len(groups)
			at[k.Scenario+"|"+k.Arch] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	return groups
}

// cellPath is the /cell request that addresses key.
func cellPath(k core.CellKey) string {
	q := url.Values{}
	q.Set("scenario", k.Scenario)
	q.Set("arch", k.Arch)
	q.Set("defense", k.Defense)
	q.Set("samples", strconv.Itoa(k.Samples))
	q.Set("confidence", strconv.FormatFloat(k.Confidence, 'g', -1, 64))
	q.Set("seed", strconv.FormatInt(k.Seed, 10))
	return "/cell?" + q.Encode()
}

// liveServer is a serve.Server on a loopback listener.
type liveServer struct {
	hs   *http.Server
	done chan error
	base string
}

// startServer builds a server over the disk tier in dir and returns once
// it answers /healthz, with the time that took (the serve set-up time).
func startServer(dir string, workers int, client *http.Client) (*liveServer, time.Duration, error) {
	start := time.Now()
	srv, err := serve.New(serve.Options{CacheDir: dir, CacheSecret: cacheSecret, MaxInFlight: workers})
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	s := &liveServer{
		hs:   &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan error, 1),
		base: "http://" + ln.Addr().String(),
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	resp, err := client.Get(s.base + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("/healthz answered %d", resp.StatusCode)
		}
	}
	if err != nil {
		s.stop(client)
		return nil, 0, err
	}
	return s, time.Since(start), nil
}

// stop shuts the server down and waits for its serve loop to end.
func (s *liveServer) stop(client *http.Client) error {
	client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	return err
}

// counters scrapes the unlabelled counters of /metrics.
func (s *liveServer) counters(client *http.Client) (map[string]int64, error) {
	resp, err := client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]int64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if n, err := strconv.ParseInt(val, 10, 64); err == nil {
			out[name] = n
		}
	}
	return out, sc.Err()
}

// reply is one request's outcome as the client saw it.
type reply struct {
	start, end time.Time
	status     int
	tier       string // the X-Cache header: hit, disk or miss
	body       []byte
	err        error
}

func (r reply) latency() time.Duration { return r.end.Sub(r.start) }

// drive sends the requests seq (indices into paths) from `clients`
// closed-loop clients, each sending its next request once the previous
// one has been answered, and returns the replies in sequence order.
func drive(client *http.Client, base string, paths []string, seq []int, clients int) ([]reply, time.Duration) {
	replies := make([]reply, len(seq))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(seq) {
					return
				}
				replies[i] = get(client, base+paths[seq[i]])
			}
		}()
	}
	wg.Wait()
	return replies, time.Since(start)
}

func get(client *http.Client, u string) reply {
	r := reply{start: time.Now()}
	resp, err := client.Get(u)
	if err != nil {
		r.err, r.end = err, time.Now()
		return r
	}
	r.body, r.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.end = time.Now()
	r.status, r.tier = resp.StatusCode, resp.Header.Get("X-Cache")
	return r
}

// serveRound is one fresh server (phase 1) and one restarted server on
// the same directory (phase 2), both driven with the same sequence.
type serveRound struct {
	seq            []int
	setup          float64 // phase 1's server start, on a fresh directory
	phase1, phase2 []reply
	wall1          time.Duration
	cpu1           time.Duration
	counts1        map[string]int64
	counts2        map[string]int64
	span1          span // zero unless the round was traced
}

func runRound(cfg config, client *http.Client, keys []core.CellKey, paths []string, seq []int, tr *tracer) (*serveRound, error) {
	dir, err := os.MkdirTemp(cfg.tmpDir, "cells-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	round := &serveRound{seq: seq}
	for phase := 1; phase <= 2; phase++ {
		if phase == 1 {
			runtime.GC() // as setupTimes does before each start
		}
		srv, setup, err := startServer(dir, cfg.workers, client)
		if err != nil {
			return nil, fmt.Errorf("phase %d start: %w", phase, err)
		}
		cpu0 := cpuTime()
		replies, wall := drive(client, srv.base, paths, seq, cfg.workers)
		cpu := cpuTime() - cpu0
		counts, err := srv.counters(client)
		if serr := srv.stop(client); err == nil {
			err = serr
		}
		if err != nil {
			return nil, fmt.Errorf("phase %d: %w", phase, err)
		}
		if phase == 1 {
			round.setup = setup.Seconds()
			round.phase1, round.wall1, round.cpu1, round.counts1 = replies, wall, cpu, counts
			round.span1 = traceReplies(tr, "phase1", replies, seq, keys)
		} else {
			round.phase2, round.counts2 = replies, counts
			traceReplies(tr, "phase2", replies, seq, keys)
		}
	}
	return round, nil
}

// setupTimes starts a server on a fresh disk tier and stops it again,
// setupReps times, and returns each start's duration in seconds. Each
// round's first start adds one more sample later in the run.
func setupTimes(cfg config, client *http.Client) ([]float64, error) {
	var out []float64
	for i := 0; i < setupReps; i++ {
		dir, err := os.MkdirTemp(cfg.tmpDir, "setup-")
		if err != nil {
			return nil, err
		}
		runtime.GC()
		srv, d, err := startServer(dir, cfg.workers, client)
		if err == nil {
			err = srv.stop(client)
		}
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

// traceReplies records a phase span with one child span per request,
// tagged with the tier that answered it.
func traceReplies(tr *tracer, name string, replies []reply, seq []int, keys []core.CellKey) span {
	if tr == nil || len(replies) == 0 {
		return span{}
	}
	lo, hi := replies[0].start, replies[0].end
	for _, r := range replies {
		if r.start.Before(lo) {
			lo = r.start
		}
		if r.end.After(hi) {
			hi = r.end
		}
	}
	id := tr.newID()
	for i, r := range replies {
		tr.add(0, id, "request", r.start, r.end, map[string]string{"x_cache": r.tier, "cell": keys[seq[i]].Encode()})
	}
	tr.add(id, 0, name, lo, hi, nil)
	return span{ID: id, Start: lo.Sub(tr.epoch).Nanoseconds(), End: hi.Sub(tr.epoch).Nanoseconds()}
}

// checkRound gates one round: every request answered 200, every body
// for a key byte-identical to the reference body for that key, phase 2
// computing nothing, and exact compute and disk-write counts. refs maps
// key index to its reference body; keys this round requests first are
// added.
func checkRound(round *serveRound, keys []core.CellKey, refs map[int][]byte) error {
	seq := round.seq
	distinct := map[int]bool{}
	for _, k := range seq {
		distinct[k] = true
	}
	for phase, replies := range [][]reply{round.phase1, round.phase2} {
		for i, r := range replies {
			k := seq[i]
			if r.err != nil || r.status != http.StatusOK {
				return fmt.Errorf("phase %d request %d (%s): status %d, err %v", phase+1, i, keys[k].Encode(), r.status, r.err)
			}
			if phase == 1 && r.tier == "miss" {
				return fmt.Errorf("phase 2 request %d computed %s after a restart on a warm disk", i, keys[k].Encode())
			}
			ref, ok := refs[k]
			if !ok {
				if err := checkCellBody(r.body, keys[k]); err != nil {
					return err
				}
				refs[k] = r.body
				continue
			}
			if !bytes.Equal(r.body, ref) {
				return fmt.Errorf("phase %d request %d: body (X-Cache %s) differs from the first body for %s", phase+1, i, r.tier, keys[k].Encode())
			}
		}
	}
	n := int64(len(distinct))
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"phase 1 cells computed", round.counts1["intrust_cells_computed_total"], n},
		{"phase 1 disk writes", round.counts1["intrust_disk_writes_total"], n},
		{"phase 2 cells computed", round.counts2["intrust_cells_computed_total"], 0},
		{"phase 2 disk writes", round.counts2["intrust_disk_writes_total"], 0},
	} {
		if c.got != c.want {
			return fmt.Errorf("%s: %d, want exactly %d", c.name, c.got, c.want)
		}
	}
	if got := round.counts2["intrust_disk_hits_total"]; got < n {
		return fmt.Errorf("phase 2 disk hits: %d, want at least one per distinct key (%d)", got, n)
	}
	return nil
}

// checkCellBody checks that a body is the cell its key addresses.
func checkCellBody(body []byte, key core.CellKey) error {
	var c serve.Cell
	if err := json.Unmarshal(body, &c); err != nil {
		return fmt.Errorf("cell %s: %w", key.Encode(), err)
	}
	if c.Key != key.Encode() || c.Class == "" {
		return fmt.Errorf("cell %s: body addresses %q with class %q", key.Encode(), c.Key, c.Class)
	}
	return nil
}

// bodiesDigest hashes the given bodies in key order.
func bodiesDigest(refs map[int][]byte) string {
	idx := make([]int, 0, len(refs))
	for k := range refs {
		idx = append(idx, k)
	}
	sort.Ints(idx)
	h := sha256.New()
	for _, k := range idx {
		h.Write(refs[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runServe runs serve-zipf rounds until the run's time is up. Untraced,
// it measures the end-to-end metrics; traced, it alternates untraced
// and traced rounds and measures the engine's per-layer metrics and the
// tracing overhead.
func runServe(cfg config, tr *tracer) (*outcome, error) {
	keys, err := serveKeys(cfg.seed)
	if err != nil {
		return nil, err
	}
	paths := make([]string, len(keys))
	for i, k := range keys {
		paths[i] = cellPath(k)
	}
	groups := cellGroups(keys)
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: cfg.workers, DisableCompression: true}}
	defer client.CloseIdleConnections()

	setups, err := setupTimes(cfg, client)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	// Each round draws its own sequence, so a run averages over several
	// mixes of computed cells: with a single sequence the seed alone
	// moved cells_per_s by about 9%. Every body must still equal the
	// body any earlier round served for its key.
	seqSeeds := rand.New(rand.NewSource(cfg.seed))
	refs, first := map[int][]byte{}, map[int][]byte{}
	var rounds []*serveRound
	start := time.Now()
	for i := 0; i < minRounds || time.Since(start) < cfg.seconds; i++ {
		var rtr *tracer
		if i%2 == 1 {
			rtr = tr // a traced run alternates untraced and traced rounds
		}
		seq := zipfSequence(seqSeeds.Int63(), groups, serveRequests, zipfExponent)
		round, err := runRound(cfg, client, keys, paths, seq, rtr)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i+1, err)
		}
		if err := checkRound(round, keys, refs); err != nil {
			return nil, fmt.Errorf("round %d: %w", i+1, err)
		}
		if i == 0 {
			for k, b := range refs {
				first[k] = b
			}
		}
		rounds = append(rounds, round)
	}

	out := newOutcome()
	out.attempted = 2 * len(rounds) * serveRequests
	var rate, cpuPerCell, misses, hits, disks []float64
	var all [][]float64
	tiers := map[string]int{}
	for _, r := range rounds {
		setups = append(setups, r.setup)
		rate = append(rate, float64(len(r.seq))/r.wall1.Seconds())
		cpuPerCell = append(cpuPerCell, r.cpu1.Seconds()/float64(len(r.seq)))
		lat := make([]float64, 0, len(r.phase1))
		for _, rep := range r.phase1 {
			ms := float64(rep.latency().Nanoseconds()) / 1e6
			lat = append(lat, ms)
			tiers["phase1_"+rep.tier]++
			switch rep.tier {
			case "miss":
				misses = append(misses, ms)
			case "hit":
				hits = append(hits, ms*1e3)
			}
		}
		all = append(all, lat)
		for _, rep := range r.phase2 {
			tiers["phase2_"+rep.tier]++
			if rep.tier == "disk" {
				disks = append(disks, float64(rep.latency().Nanoseconds())/1e3)
			}
		}
	}
	out.summary["rounds"] = len(rounds)
	out.summary["distinct_keys_round1"] = len(first)
	out.summary["digest"] = bodiesDigest(first)
	out.summary["tiers"] = tiers
	out.summary["error_rate"] = 0.0
	out.summary["requests_per_s"] = median(rate)
	out.summary["hit_p50_us"] = fmt.Sprintf("%.4g (n=%d)", percentile(hits, p50), len(hits))
	out.summary["disk_p50_us"] = fmt.Sprintf("%.4g (n=%d)", percentile(disks, p50), len(disks))
	out.summary["miss_ms"] = fmt.Sprintf("p50 %.4g p90 %.4g (n=%d)", percentile(misses, p50), percentile(misses, p90), len(misses))

	if tr == nil {
		out.set("cells_per_s", median(rate), "1/s", len(rounds))
		out.set("cpu_s_per_cell", median(cpuPerCell), "s", len(rounds))
		out.set("setup_s", median(setups), "s", len(setups))
		if err := setLatencies(out, all); err != nil {
			return nil, err
		}
		return out, nil
	}

	var busy, under, tracedWall, plainWall []float64
	for _, r := range rounds {
		if r.span1.ID == 0 {
			plainWall = append(plainWall, r.wall1.Seconds())
			continue
		}
		tracedWall = append(tracedWall, r.wall1.Seconds())
		var computing []span
		for _, s := range tr.children(r.span1.ID) {
			if s.Tags["x_cache"] == "miss" {
				computing = append(computing, s)
			}
		}
		busy = append(busy, busyShare(r.span1, computing, cfg.workers))
		under = append(under, underfilled(r.span1, computing, cfg.workers).Seconds())
	}
	out.set("engine.busy_share", median(busy), "share", len(busy))
	out.set("engine.underfilled_s", median(under), "s", len(under))
	out.set("trace.overhead_share", median(tracedWall)/median(plainWall)-1, "share", len(rounds))
	return out, setServeSampling(out, first)
}

// setServeSampling sets the stats.* counts over the distinct cells of
// the first round's sequence, counted as engine.Summarize counts a
// grid.
func setServeSampling(out *outcome, refs map[int][]byte) error {
	var total, fixed int64
	var early, escalated int
	for _, body := range refs {
		var c serve.Cell
		if err := json.Unmarshal(body, &c); err != nil {
			return err
		}
		switch {
		case c.Sampling != nil:
			total += int64(c.Sampling.SamplesUsed)
			fixed += int64(c.Sampling.Reference)
			if c.Sampling.StoppedEarly {
				early++
			}
			if c.Sampling.Escalated {
				escalated++
			}
		case c.Verdict != "n/a":
			total += int64(c.Samples)
			fixed += int64(c.Samples)
		}
	}
	setSampling(out, total, fixed, early, escalated)
	return nil
}
