package power

import (
	"math"
	"math/rand"
	"testing"
)

// The kernel-equivalence property layer: the batched int16-arena kernels
// must be BIT-identical to the retained naive float64 reference on
// randomized trace sets. Both recording paths quantize at capture (the
// ADC model), Scale is a power of two, and every arena sum is exact in
// int64 — so the equivalence is exact, not approximate, and these tests
// compare math.Float64bits, not a tolerance.

// recordPair records the same randomized traces through both paths:
// the naive TraceSet via NewRecorder and the Arena via BeginTrace.
// Separate probes with identical seeds keep the noise and jitter streams
// aligned.
func recordPair(seed int64, nTraces, leaksPer, jitterMax int, sigma float64) (*TraceSet, *Arena) {
	mk := func() *Probe {
		p := PowerProbe(sigma, seed)
		p.JitterMax = jitterMax
		return p
	}
	pNaive, pArena := mk(), mk()

	ts := &TraceSet{}
	a := NewArena(16)

	// One value stream drives both recordings.
	vrng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for i := 0; i < nTraces; i++ {
		input := make([]byte, 16)
		vrng.Read(input)
		vals := make([]uint32, leaksPer)
		for j := range vals {
			vals[j] = vrng.Uint32()
		}

		rec := NewRecorder(pNaive)
		for _, v := range vals {
			rec.Leak(v)
		}
		ts.Add(rec.Samples, input)

		arec := a.BeginTrace(pArena)
		for _, v := range vals {
			arec.Leak(v)
		}
		a.EndTrace(input)
	}
	return ts, a
}

// eqBits fails unless got and want are the same float64 bit pattern.
func eqBits(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("%s: arena %v (%#x) != naive %v (%#x)",
			what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestArenaRecordingMatchesNaive pins the capture front-ends: the
// dequantized arena samples equal the naive recorder's samples exactly,
// trace by trace, including ragged jitter lengths.
func TestArenaRecordingMatchesNaive(t *testing.T) {
	for _, jitter := range []int{0, 3} {
		ts, a := recordPair(41, 17, 25, jitter, 0.8)
		if a.Len() != ts.Len() {
			t.Fatalf("jitter=%d: arena %d traces, naive %d", jitter, a.Len(), ts.Len())
		}
		if a.Points() != ts.Points() {
			t.Fatalf("jitter=%d: arena %d points, naive %d", jitter, a.Points(), ts.Points())
		}
		for i := 0; i < a.Len(); i++ {
			qtr, ftr := a.Trace(i), ts.Traces[i]
			if len(qtr) != len(ftr) {
				t.Fatalf("jitter=%d trace %d: arena len %d, naive len %d", jitter, i, len(qtr), len(ftr))
			}
			for j, q := range qtr {
				if math.Float64bits(Dequant(q)) != math.Float64bits(ftr[j]) {
					t.Fatalf("jitter=%d trace %d sample %d: dequant %v != naive %v",
						jitter, i, j, Dequant(q), ftr[j])
				}
			}
			if string(a.Input(i)) != string(ts.Inputs[i]) {
				t.Fatalf("jitter=%d trace %d: inputs differ", jitter, i)
			}
		}
	}
}

// randomTable draws a per-class model table with entries in [0, max].
func randomTable(rng *rand.Rand, max int) *[256]int64 {
	var f [256]int64
	for u := range f {
		f[u] = int64(rng.Intn(max + 1))
	}
	return &f
}

// checkDoMAllGuesses asserts the all-guess DPA kernel against both naive
// references: for every shift k, out[k] must equal
// TraceSet.DifferenceOfMeans under the selector f(v⊕k) and the grouped
// ClassSums.DifferenceOfMeans under the class selection f(v⊕k), bit for
// bit. Shift 0 is the arbitrary selection f itself.
func checkDoMAllGuesses(t *testing.T, what string, ts *TraceSet, a *Arena, byteIdx int, f *[256]int64) {
	t.Helper()
	var out [256]float64
	a.XorDifferenceOfMeans(byteIdx, NewXorTable(f), &out)
	ncs := ts.ClassSums(func(i int) uint8 { return ts.Inputs[i][byteIdx] })
	for k := 0; k < 256; k++ {
		want := ts.DifferenceOfMeans(func(i int) bool { return f[ts.Inputs[i][byteIdx]^byte(k)] == 1 })
		grouped := ncs.DifferenceOfMeans(func(v uint8) bool { return f[v^byte(k)] == 1 })
		if math.Float64bits(out[k]) != math.Float64bits(want) || math.Float64bits(grouped) != math.Float64bits(want) {
			t.Fatalf("%s: DifferenceOfMeans shift %d: arena %v (%#x), grouped %v (%#x), naive %v (%#x)",
				what, k, out[k], math.Float64bits(out[k]), grouped, math.Float64bits(grouped), want, math.Float64bits(want))
		}
	}
}

// checkPearsonAllGuesses asserts the all-guess CPA kernel against the
// naive per-trace reference: for every shift k, out[k] must equal
// TraceSet.MaxAbsPearson under the hypothesis f(v⊕k) bit for bit.
func checkPearsonAllGuesses(t *testing.T, what string, ts *TraceSet, a *Arena, byteIdx int, f *[256]int64) {
	t.Helper()
	var out [256]float64
	a.XorMaxAbsPearson(byteIdx, NewXorTable(f), &out)
	h := make([]float64, ts.Len())
	for k := 0; k < 256; k++ {
		for i := range h {
			h[i] = float64(f[ts.Inputs[i][byteIdx]^byte(k)])
		}
		want := ts.MaxAbsPearson(h)
		if math.Float64bits(out[k]) != math.Float64bits(want) {
			t.Fatalf("%s: MaxAbsPearson shift %d: arena %v (%#x) != naive %v (%#x)",
				what, k, out[k], math.Float64bits(out[k]), want, math.Float64bits(want))
		}
	}
}

// TestDifferenceOfMeansEquivalence is the DPA-kernel property test:
// randomized trace sets, randomized 0/1 selector tables (so shift 0 is an
// arbitrary class selection), both jitter regimes — every one of the 256
// guesses bit-identical to the naive per-trace float64 reference.
func TestDifferenceOfMeansEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name    string
		seed    int64
		traces  int
		jitter  int
		sigma   float64
		byteIdx int
	}{
		{"small", 1, 8, 0, 0.5, 0},
		{"noisy", 2, 200, 0, 2.0, 3},
		{"jitter", 3, 120, 4, 1.0, 7},
		{"noiseless", 4, 64, 0, 0, 15},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts, a := recordPair(tc.seed, tc.traces, 30, tc.jitter, tc.sigma)
			srng := rand.New(rand.NewSource(tc.seed * 7))
			for trial := 0; trial < 4; trial++ {
				checkDoMAllGuesses(t, "random selector", ts, a, tc.byteIdx, randomTable(srng, 1))
			}

			// Degenerate partitions: empty and full selections are 0 on
			// both paths, at every shift.
			var none, all [256]int64
			for u := range all {
				all[u] = 1
			}
			checkDoMAllGuesses(t, "empty selection", ts, a, tc.byteIdx, &none)
			checkDoMAllGuesses(t, "full selection", ts, a, tc.byteIdx, &all)
		})
	}
}

// TestMaxAbsPearsonEquivalence is the CPA-kernel property test:
// randomized trace sets and randomized per-class integer hypothesis
// tables — every one of the 256 guesses bit-identical to the naive
// per-trace float64 reference.
func TestMaxAbsPearsonEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name   string
		seed   int64
		traces int
		jitter int
		sigma  float64
	}{
		{"small", 11, 8, 0, 0.5},
		{"noisy", 12, 200, 0, 2.0},
		{"jitter", 13, 120, 4, 1.0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts, a := recordPair(tc.seed, tc.traces, 30, tc.jitter, tc.sigma)
			hrng := rand.New(rand.NewSource(tc.seed * 13))
			for trial := 0; trial < 4; trial++ {
				checkPearsonAllGuesses(t, "random hypothesis", ts, a, 5, randomTable(hrng, 8)) // HW-like 0..8
			}
		})
	}
}

// TestEquivalenceAcrossExtend pins the adaptive-escalation shape: record,
// analyse, extend the same sets, analyse again — the arena's invalidated
// caches and regrouped class sums must give bit-identical statistics at
// every checkpoint.
func TestEquivalenceAcrossExtend(t *testing.T) {
	mk := func() *Probe {
		p := PowerProbe(1.2, 99)
		p.JitterMax = 2
		return p
	}
	pNaive, pArena := mk(), mk()
	ts := &TraceSet{}
	a := NewArena(16)
	vrng := rand.New(rand.NewSource(991))

	srng := rand.New(rand.NewSource(992))
	sel, hyp := randomTable(srng, 1), randomTable(srng, 8)

	for pass := 0; pass < 3; pass++ {
		for i := 0; i < 40; i++ {
			input := make([]byte, 16)
			vrng.Read(input)
			vals := make([]uint32, 20)
			for j := range vals {
				vals[j] = vrng.Uint32()
			}
			rec := NewRecorder(pNaive)
			for _, v := range vals {
				rec.Leak(v)
			}
			ts.Add(rec.Samples, input)
			arec := a.BeginTrace(pArena)
			for _, v := range vals {
				arec.Leak(v)
			}
			a.EndTrace(input)
		}

		const byteIdx = 2
		checkDoMAllGuesses(t, "after extend", ts, a, byteIdx, sel)
		checkPearsonAllGuesses(t, "after extend", ts, a, byteIdx, hyp)
	}
}

// TestEquivalenceAtRails pins the exactness envelope at its worst case:
// every sample saturated at ±maxQ, at the largest trace count where the
// float64 reference is still exact (n²·maxQ² < 2^53, so n = 2896). The
// first points carry the same sign in every trace, which drives the class
// sums and their Walsh–Hadamard transforms to their largest magnitudes;
// the rest draw random signs. Both all-guess kernels must stay
// bit-identical to the reference.
func TestEquivalenceAtRails(t *testing.T) {
	const n, pts, signed = 2896, 8, 3
	if float64(n)*float64(n)*maxQ*maxQ >= 1<<53 {
		t.Fatalf("n = %d is outside the float64 envelope", n)
	}
	ts := &TraceSet{}
	a := NewArena(16)
	p := PowerProbe(0, 1)
	rng := rand.New(rand.NewSource(2896))
	for i := 0; i < n; i++ {
		input := make([]byte, 16)
		rng.Read(input)
		tr := make(Trace, pts)
		rec := a.BeginTrace(p)
		for j := range tr {
			x := 1e9
			if j >= signed && rng.Intn(2) == 0 {
				x = -x
			}
			rec.record(x)
			tr[j] = Dequant(Quantize(x))
		}
		a.EndTrace(input)
		ts.Add(tr, input)
	}
	if q := a.Trace(0)[0]; q != maxQ {
		t.Fatalf("sample not saturated: %d", q)
	}
	srng := rand.New(rand.NewSource(7))
	checkDoMAllGuesses(t, "rails", ts, a, 9, randomTable(srng, 1))
	var hw [256]int64
	for u := range hw {
		hw[u] = int64(HW(uint32(u)))
	}
	checkPearsonAllGuesses(t, "rails", ts, a, 9, &hw)
}

// TestTinySets pins the degenerate guards on both kernels: no points
// (empty arena) and, for Pearson, fewer than two traces give 0 for every
// guess.
func TestTinySets(t *testing.T) {
	a := NewArena(16)
	var f [256]int64
	f[0] = 1
	tab := NewXorTable(&f)
	var out [256]float64
	check := func(what string) {
		t.Helper()
		for k, s := range out {
			if s != 0 {
				t.Fatalf("%s: guess %d = %v, want 0", what, k, s)
			}
		}
	}
	a.XorMaxAbsPearson(0, tab, &out)
	check("empty arena Pearson")
	a.XorDifferenceOfMeans(0, tab, &out)
	check("empty arena DoM")

	rec := a.BeginTrace(PowerProbe(0.5, 1))
	rec.Leak(3)
	a.EndTrace(make([]byte, 16))
	out[0] = 1
	a.XorMaxAbsPearson(0, tab, &out)
	check("one-trace Pearson")
}

// FuzzXorCorrelate checks the in-place Walsh–Hadamard XOR-correlation
// against the direct O(256²·points) sum with exact int64 equality, on
// random class counts summing to n < 2^21, random class sums within the
// int16-rail envelope (|S[v]| <= count[v]·maxQ) and a random table with
// entries in [-8, 8] — the whole envelope documented on Quantize.
func FuzzXorCorrelate(f *testing.F) {
	f.Add(int64(1), uint8(3), uint32(96))
	f.Add(int64(2), uint8(1), uint32(1500))
	f.Add(int64(3), uint8(0), uint32(0))
	f.Add(int64(4), uint8(7), uint32(1<<21-1))
	f.Fuzz(func(t *testing.T, seed int64, ptsIn uint8, nIn uint32) {
		pts := 1 + int(ptsIn%8)
		n := int(nIn % (1 << 21))
		rng := rand.New(rand.NewSource(seed))

		var count [256]int64
		for i := 0; i < n && i < 4096; i++ {
			count[rng.Intn(256)]++
		}
		if n > 4096 { // the rest in bulk, still summing to n
			rest := n - 4096
			for rest > 0 {
				c := rng.Intn(rest + 1)
				count[rng.Intn(256)] += int64(c)
				rest -= c
			}
		}
		s := make([]int64, 256*pts)
		for v := 0; v < 256; v++ {
			for j := 0; j < pts; j++ {
				lim := count[v] * maxQ
				switch rng.Intn(3) {
				case 0:
					s[v*pts+j] = lim
				case 1:
					s[v*pts+j] = -lim
				default:
					s[v*pts+j] = rng.Int63n(2*lim+1) - lim
				}
			}
		}
		var tab [256]int64
		for u := range tab {
			tab[u] = int64(rng.Intn(17) - 8)
		}
		xt := NewXorTable(&tab)

		want := make([]int64, 256*pts)
		var wantN, wantN2 [256]int64
		for k := 0; k < 256; k++ {
			for v := 0; v < 256; v++ {
				fv := tab[v^k]
				wantN[k] += fv * count[v]
				wantN2[k] += fv * fv * count[v]
				for j := 0; j < pts; j++ {
					want[k*pts+j] += fv * s[v*pts+j]
				}
			}
		}

		xorCorrelate(s, pts, &xt.wf)
		for i := range s {
			if s[i] != want[i] {
				t.Fatalf("class sums: guess %d point %d: transform %d != direct %d",
					i/pts, i%pts, s[i], want[i])
			}
		}
		c2 := count
		xorCorrelate(count[:], 1, &xt.wf)
		xorCorrelate(c2[:], 1, &xt.wf2)
		if count != wantN || c2 != wantN2 {
			t.Fatalf("class counts: transform differs from direct sum")
		}
	})
}

// TestQuantizeGrid pins the ADC model: round-to-nearest on the 1/Scale
// grid, exact dequantization, saturating rails.
func TestQuantizeGrid(t *testing.T) {
	for _, tc := range []struct {
		in   float64
		want int16
	}{
		{0, 0},
		{1, Scale},
		{-1, -Scale},
		{1.0 / (2 * Scale), 1}, // half a step rounds away from zero
		{1e9, maxQ},
		{-1e9, -maxQ},
	} {
		if got := Quantize(tc.in); got != tc.want {
			t.Errorf("Quantize(%v) = %d, want %d", tc.in, got, tc.want)
		}
	}
	// Dequantization is exact: quantizing a dequantized value is identity.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		q := int16(rng.Intn(2*maxQ+1) - maxQ)
		if got := Quantize(Dequant(q)); got != q {
			t.Fatalf("Quantize(Dequant(%d)) = %d", q, got)
		}
	}
}
