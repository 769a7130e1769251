package main

import (
	"fmt"
	"reflect"
	"sort"
	"time"
)

// selfCheck tests the harness's own arithmetic before a run measures
// anything: a wrong percentile or self time would go unnoticed in the
// figures it produces.
func selfCheck() error {
	for _, check := range []func() error{checkZipf, checkPercentiles, checkSpans} {
		if err := check(); err != nil {
			return err
		}
	}
	return nil
}

// checkZipf: the request sequence is a function of the seed alone, it
// is skewed toward a few keys, and its hottest ranks cover every group.
func checkZipf() error {
	groups := make([][]int, 25)
	for i := 0; i < 100; i++ {
		groups[i%25] = append(groups[i%25], i)
	}
	a, b := zipfSequence(7, groups, 2000, zipfExponent), zipfSequence(7, groups, 2000, zipfExponent)
	if !reflect.DeepEqual(a, b) {
		return fmt.Errorf("zipf: seed 7 gave two different sequences")
	}
	if reflect.DeepEqual(a, zipfSequence(8, groups, 2000, zipfExponent)) {
		return fmt.Errorf("zipf: seeds 7 and 8 gave the same sequence")
	}
	counts := map[int]int{}
	for _, k := range a {
		counts[k]++
	}
	keys := make([]int, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return counts[keys[i]] > counts[keys[j]] })
	if counts[keys[0]] < len(a)/10 || len(keys) < 25 {
		return fmt.Errorf("zipf: hottest key %d of %d requests over %d keys is not Zipf-shaped", counts[keys[0]], len(a), len(keys))
	}
	hot := map[int]bool{}
	for _, k := range keys[:10] {
		hot[k%25] = true
	}
	if len(hot) != 10 {
		return fmt.Errorf("zipf: the 10 hottest keys fall in %d groups, want 10", len(hot))
	}
	return nil
}

// checkPercentiles: nearest-rank percentiles, and the tail percentile
// is the highest with at least minBeyond samples beyond it.
func checkPercentiles() error {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000 down to 1: percentile must sort
	}
	for _, c := range []struct {
		pm   int
		want float64
	}{{p50, 500}, {p90, 900}, {p99, 990}, {p999, 999}} {
		if got := percentile(xs, c.pm); got != c.want {
			return fmt.Errorf("percentile p%g of 1..1000 = %g, want %g", float64(c.pm)/10, got, c.want)
		}
	}
	for _, c := range []struct{ n, want int }{
		{10000, p999}, {9999, p99}, {1000, p99}, {999, p90}, {100, p90}, {99, p50}, {20, p50}, {19, 0},
	} {
		if got := tailPercentile(c.n); got != c.want {
			return fmt.Errorf("tail percentile of %d samples = %d, want %d", c.n, got, c.want)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		return fmt.Errorf("median of 3,1,2,10 = %g, want 2.5", m)
	}
	return nil
}

// checkSpans: overlapping children count once in self time, and the
// busy share and underfilled time follow from the overlap.
func checkSpans() error {
	parent := span{Start: 0, End: 100}
	kids := []span{
		{Start: 10, End: 40},  // worker 1
		{Start: 30, End: 60},  // worker 2, overlaps the first
		{Start: 40, End: 50},  // worker 1 again, inside the second
		{Start: 90, End: 120}, // runs past the parent's end
	}
	// Covered: [10,60) and [90,100) = 60, so self time is 40.
	if got := selfTime(parent, kids); got != 40 {
		return fmt.Errorf("self time = %d, want 40", got)
	}
	// Two children run at once during [30,50) only; the rest of the
	// parent's 100 is underfilled.
	if got := underfilled(parent, kids, 2); got != 80*time.Nanosecond {
		return fmt.Errorf("underfilled = %v, want 80ns", got)
	}
	// Child time within the parent, 30+30+10+10 = 80, over 100 × 2
	// workers.
	if got := busyShare(parent, kids, 2); got != 0.4 {
		return fmt.Errorf("busy share = %g, want 0.4", got)
	}
	return nil
}
