package main

import (
	"math/rand"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// Percentiles are written in per-mille so that rank arithmetic stays in
// integers: p99 is 990, p99.9 is 999.
const (
	p50  = 500
	p90  = 900
	p99  = 990
	p999 = 999
)

// minBeyond is how many samples must lie above a percentile before it
// may be reported: a tail figure resting on fewer is one slow outlier.
const minBeyond = 10

// rank is the 1-based nearest-rank position of percentile pm among n
// samples.
func rank(n, pm int) int {
	r := (pm*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// beyond is how many of n samples lie above the pm-th percentile.
func beyond(n, pm int) int { return n - rank(n, pm) }

// tailPercentile is the highest of p99.9, p99, p90 and p50 that has at
// least minBeyond samples beyond it among n, or 0 when none has.
func tailPercentile(n int) int {
	for _, pm := range []int{p999, p99, p90, p50} {
		if beyond(n, pm) >= minBeyond {
			return pm
		}
	}
	return 0
}

// percentile is the nearest-rank pm-th percentile of xs. It sorts a
// copy; xs must not be empty.
func percentile(xs []float64, pm int) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), pm)-1]
}

// median is the middle of xs (the mean of the two middle values for an
// even count); xs must not be empty.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// zipfSequence draws n requests with Zipf(s) popularity over the keys
// in groups. Popularity ranks are dealt out level by level: the hottest
// len(groups) ranks go to one key of every group, the next len(groups)
// to another key of every group, and so on. So every seed touches the
// same mix of groups, while the seed decides the order within a level
// and which key of a group takes which level. The same seed always
// yields the same sequence.
func zipfSequence(seed int64, groups [][]int, n int, s float64) []int {
	r := rand.New(rand.NewSource(seed))
	order := make([][]int, len(groups))
	levels := 0
	for g, keys := range groups {
		for _, i := range r.Perm(len(keys)) {
			order[g] = append(order[g], keys[i])
		}
		levels = max(levels, len(keys))
	}
	var byRank []int
	for level := 0; level < levels; level++ {
		for _, g := range r.Perm(len(groups)) {
			if level < len(order[g]) {
				byRank = append(byRank, order[g][level])
			}
		}
	}
	z := rand.NewZipf(r, s, 1, uint64(len(byRank)-1))
	seq := make([]int, n)
	for i := range seq {
		seq[i] = byRank[z.Uint64()]
	}
	return seq
}

// cpuTime is the CPU time (user + system) the process has used so far.
// Getrusage fails only for an invalid "who" argument, so its error is
// not checked here or in maxRSSMB.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// timeReps runs f reps times and returns each run's duration in
// seconds. Each run starts after a garbage collection, so that no run
// pays for garbage an earlier one left.
func timeReps(reps int, f func() error) ([]float64, error) {
	out := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		runtime.GC()
		start := time.Now()
		if err := f(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(start).Seconds())
	}
	return out, nil
}
