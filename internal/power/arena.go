package power

import "math"

// The batched analysis kernels. A trace matrix spends its life being
// re-walked: DPA runs 256 key guesses per byte, CPA another 256, the
// adaptive engine regrades after every checkpoint extension. The arena
// keeps every sample of a cell's traces int16-quantized in ONE contiguous
// backing array, and the distinguishers score all 256 guesses of a key
// byte with one Walsh–Hadamard XOR-correlation of its exact class sums —
// so, every sum being exact in int64, the results are bit-identical to
// the retained naive float64 reference (see Quantize).

// Scale is the quantization grid of the simulated acquisition ADC: one
// step per 1/256 of a leakage unit. It is a power of two, which is what
// makes the integer kernels bit-identical to the float64 reference:
// dequantization (q/256) only shifts the float64 exponent, so sums,
// means and Pearson terms computed from raw int16 steps equal the
// reference values scaled by an exact power of two.
const Scale = 256

// maxQ clamps quantized samples to the int16 range, like a saturating
// ADC. HW-model leakage (|signal| <= ~10 units) sits four orders of
// magnitude below the clamp; only idealized identity probes can reach it.
const maxQ = math.MaxInt16

// Quantize maps one leakage sample onto the acquisition grid: the
// nearest multiple of 1/Scale, saturating at the int16 rails.
//
// Exactness envelope: with |q| <= 2^13 (any HW/HD-model signal) and
// n <= 2^13 traces of <= 2^9 points, every sum the kernels form —
// Σq, Σq², Σhw·q and their n-scaled Pearson terms — stays below 2^53,
// so int64 accumulation is exact and float64 conversion is lossless.
// The naive float64 path sums the same values scaled by 2^-8 (per y
// factor) in a different association order; exact arithmetic makes
// reassociation harmless, which is the whole equivalence proof.
//
// The all-guess kernels add one integer Walsh–Hadamard XOR-correlation
// per key byte, which stays exact for n < 2^21 traces even at the int16
// rails: a class sum has |S| <= n·2^15, the forward transform adds at
// most ×2^8, a table spectrum has |WHT(f)| <= 2^11 (|f| <= 8), and the
// inverse transform adds at most ×2^8 — below 2^63, so the final
// division by 256 is exact. The 2^53 float64 bound above stays the
// binding one.
func Quantize(x float64) int16 {
	q := math.Round(x * Scale)
	if q > maxQ {
		return maxQ
	}
	if q < -maxQ {
		return -maxQ
	}
	return int16(q)
}

// Dequant maps a quantized sample back to leakage units, exactly.
func Dequant(q int16) float64 { return float64(q) / Scale }

// Arena is the int16-quantized trace matrix of one cell: every sample of
// every trace lives in one contiguous backing array, with the per-trace
// public inputs packed alongside. It is the batched counterpart of
// TraceSet and the unit of per-worker scratch reuse — Reset keeps the
// grown backing so the adaptive engine's Extend passes and the next cell
// on the same worker record without touching the heap.
type Arena struct {
	qs   []int16 // all samples, trace i at offs[i] : offs[i]+lens[i]
	offs []int32
	lens []int32

	inputs   []byte // all inputs, trace i at i*inputLen
	inputLen int

	rec    Recorder // reusable capture front-end for BeginTrace
	tstart int      // backing offset of the trace being recorded

	// pts caches Points(); -1 = dirty.
	pts int

	// Cached per-point Σq, Σq² and √(nΣq² − (Σq)²) over the common
	// prefix (the hypothesis-independent terms), valid at colN traces.
	colN    int
	sy, syy []int64
	ydev    []float64

	// clsSums is the 256×Points() class block, transformed in place.
	clsSums []int64

	// stage is the StageInput scratch buffer.
	stage []byte
}

// NewArena returns an arena for traces tagged with inputLen-byte inputs.
func NewArena(inputLen int) *Arena {
	return &Arena{inputLen: inputLen, pts: -1}
}

// Reset empties the arena, keeping every grown backing array for reuse.
func (a *Arena) Reset() {
	a.qs = a.qs[:0]
	a.offs = a.offs[:0]
	a.lens = a.lens[:0]
	a.inputs = a.inputs[:0]
	a.invalidate()
}

// Grow pre-reserves room for n more traces of about pts points each, so
// a subsequent Extend pass of that size stays allocation-free.
func (a *Arena) Grow(n, pts int) {
	need := len(a.qs) + n*pts
	if cap(a.qs) < need {
		qs := make([]int16, len(a.qs), need+need/4)
		copy(qs, a.qs)
		a.qs = qs
	}
	if cap(a.offs) < len(a.offs)+n {
		offs := make([]int32, len(a.offs), len(a.offs)+n)
		copy(offs, a.offs)
		a.offs = offs
		lens := make([]int32, len(a.lens), len(a.lens)+n)
		copy(lens, a.lens)
		a.lens = lens
	}
	if cap(a.inputs) < len(a.inputs)+n*a.inputLen {
		in := make([]byte, len(a.inputs), len(a.inputs)+n*a.inputLen)
		copy(in, a.inputs)
		a.inputs = in
	}
}

func (a *Arena) invalidate() {
	a.pts = -1
	a.colN = -1
}

// Len returns the number of recorded traces.
func (a *Arena) Len() int { return len(a.offs) }

// Input returns trace i's public input (aliasing the arena backing).
func (a *Arena) Input(i int) []byte {
	return a.inputs[i*a.inputLen : (i+1)*a.inputLen]
}

// Trace returns trace i's quantized samples (aliasing the arena backing).
func (a *Arena) Trace(i int) []int16 {
	return a.qs[a.offs[i] : a.offs[i]+int32(a.lens[i])]
}

// StageInput returns an arena-owned inputLen-byte scratch buffer for
// composing the next trace's input. Collection loops fill it (e.g. with
// random plaintexts) and pass it to EndTrace without any per-trace
// allocation — a local buffer would escape through the victim interface.
func (a *Arena) StageInput() []byte {
	if a.stage == nil {
		a.stage = make([]byte, a.inputLen)
	}
	return a.stage
}

// BeginTrace starts recording one trace through the given probe. The
// returned Recorder is the arena's own (reused across traces): Leak
// appends quantized samples to the contiguous backing, and EndTrace
// seals the trace. At most one trace may be recording at a time.
func (a *Arena) BeginTrace(p *Probe) *Recorder {
	if p.jrng == nil {
		// Same lazy jitter-RNG initialization as NewRecorder, so an
		// arena-recorded trace draws the identical jitter stream.
		p.jrng = newJitterRNG(p)
	}
	a.tstart = len(a.qs)
	a.rec = Recorder{Probe: p, arena: a}
	return &a.rec
}

// EndTrace seals the trace started by BeginTrace under the given input.
func (a *Arena) EndTrace(input []byte) {
	if len(input) != a.inputLen {
		panic("power: arena input length mismatch")
	}
	a.offs = append(a.offs, int32(a.tstart))
	a.lens = append(a.lens, int32(len(a.qs)-a.tstart))
	a.inputs = append(a.inputs, input...)
	a.invalidate()
}

// Points returns the number of usable sample points (minimum trace
// length), like TraceSet.Points.
func (a *Arena) Points() int {
	if a.pts >= 0 {
		return a.pts
	}
	if len(a.lens) == 0 {
		a.pts = 0
		return 0
	}
	min := int(a.lens[0])
	for _, l := range a.lens[1:] {
		if int(l) < min {
			min = int(l)
		}
	}
	a.pts = min
	return min
}

// colSums returns the cached per-point Σq (exact) and √(nΣq² − (Σq)²)
// over the common prefix, recomputing when the set has grown.
func (a *Arena) colSums() (sy []int64, ydev []float64) {
	pts := a.Points()
	if a.colN == a.Len() && len(a.sy) == pts {
		return a.sy, a.ydev
	}
	if cap(a.sy) < pts {
		a.sy = make([]int64, pts)
		a.syy = make([]int64, pts)
		a.ydev = make([]float64, pts)
	}
	a.sy = a.sy[:pts]
	a.syy = a.syy[:pts]
	a.ydev = a.ydev[:pts]
	clear(a.sy)
	clear(a.syy)
	for i := 0; i < a.Len(); i++ {
		tr := a.qs[a.offs[i]:][:pts]
		for j, q := range tr {
			y := int64(q)
			a.sy[j] += y
			a.syy[j] += y * y
		}
	}
	n := float64(a.Len())
	for j := range a.ydev {
		a.ydev[j] = math.Sqrt(n*float64(a.syy[j]) - float64(a.sy[j])*float64(a.sy[j]))
	}
	a.colN = a.Len()
	return a.sy, a.ydev
}

// groupBy sums the traces into the 256×Points() class block by input
// byte byteIdx: row v holds Σq over the traces whose byte is v, and
// count[v] their number. The kernels transform the block in place, so
// every call regroups.
func (a *Arena) groupBy(byteIdx int, count *[256]int64) []int64 {
	pts := a.Points()
	if cap(a.clsSums) < 256*pts {
		a.clsSums = make([]int64, 256*pts)
	}
	a.clsSums = a.clsSums[:256*pts]
	clear(a.clsSums)
	*count = [256]int64{}
	for i := 0; i < a.Len(); i++ {
		v := a.inputs[i*a.inputLen+byteIdx]
		count[v]++
		tr := a.qs[a.offs[i]:][:pts]
		dst := a.clsSums[int(v)*pts:][:len(tr)]
		for j, q := range tr {
			dst[j] += int64(q)
		}
	}
	return a.clsSums
}

// XorTable is a per-class model f for all-guess analysis: under key
// guess k, a trace whose input byte is v carries the value f(v⊕k). It
// holds the Walsh–Hadamard (WHT) spectra of f and f².
type XorTable struct {
	wf, wf2 [256]int64
}

// NewXorTable prepares f, whose entries must lie in [-8, 8] (the
// exactness envelope on Quantize).
func NewXorTable(f *[256]int64) *XorTable {
	t := &XorTable{}
	for u, x := range f {
		t.wf[u], t.wf2[u] = x, x*x
	}
	wht(t.wf[:], 1)
	wht(t.wf2[:], 1)
	return t
}

// wht applies the unnormalised WHT across the 256 rows of the 256×pts
// block s (row v at v*pts), in place. Its eight butterfly stages
// (a, b) → (a+b, a−b) run fused in pairs over four rows at a time, so
// the block is swept four times, not eight.
func wht(s []int64, pts int) {
	for h := 1; h < 256; h *= 4 {
		for base := 0; base < 256; base += 4 * h {
			for r := base; r < base+h; r++ {
				x0 := s[r*pts:][:pts]
				x1 := s[(r+h)*pts:][:pts]
				x2 := s[(r+2*h)*pts:][:pts]
				x3 := s[(r+3*h)*pts:][:pts]
				for j, a := range x0 {
					b, c, d := x1[j], x2[j], x3[j]
					ab, amb, cd, cmd := a+b, a-b, c+d, c-d
					x0[j], x1[j], x2[j], x3[j] = ab+cd, amb+cmd, ab-cd, amb-cmd
				}
			}
		}
	}
}

// xorCorrelate replaces row k of the 256×pts block s by Σ_v f(v⊕k)·s[v]
// for all k at once, wf being the WHT of f: transform, multiply
// pointwise, transform again and divide by 256, which is exact (see
// Quantize) — O(256·8·pts) instead of the direct O(256²·pts) sum.
func xorCorrelate(s []int64, pts int, wf *[256]int64) {
	wht(s, pts)
	for w, c := range wf {
		row := s[w*pts:][:pts]
		for j := range row {
			row[j] *= c
		}
	}
	wht(s, pts)
	for i := range s {
		s[i] /= 256
	}
}

// XorDifferenceOfMeans is Kocher's DPA distinguisher for all 256 key
// guesses of input byte byteIdx at once: out[k] is the maximum absolute
// difference of mean traces between the traces whose byte v has
// f(v⊕k) = 1 (sel must be 0/1-valued) and the rest. The selected sums and
// counts are exact integers and the rest is total minus selected, so the
// float64 steps see the operands of TraceSet.DifferenceOfMeans under that
// selector and the result is bit-identical.
func (a *Arena) XorDifferenceOfMeans(byteIdx int, sel *XorTable, out *[256]float64) {
	*out = [256]float64{}
	pts, n := a.Points(), int64(a.Len())
	if pts == 0 {
		return
	}
	tot, _ := a.colSums()
	var n1 [256]int64
	s1 := a.groupBy(byteIdx, &n1)
	xorCorrelate(s1, pts, &sel.wf)
	xorCorrelate(n1[:], 1, &sel.wf)
	for k := range out {
		n0 := n - n1[k]
		if n0 == 0 || n1[k] == 0 {
			continue
		}
		f1, f0 := float64(n1[k]), float64(n0)
		best := 0.0
		for j, s := range s1[k*pts:][:pts] {
			d := math.Abs(float64(s)/f1 - float64(tot[j]-s)/f0)
			if d > best {
				best = d
			}
		}
		out[k] = best / Scale
	}
}

// XorMaxAbsPearson is the CPA distinguisher for all 256 key guesses of
// input byte byteIdx at once: out[k] is the largest |Pearson correlation|
// across points with the per-trace hypothesis f(v⊕k), bit-identical to
// TraceSet.MaxAbsPearson. Σxy is the XOR-correlation of the class sums
// with f, Σx and Σx² those of the class counts with f and f².
func (a *Arena) XorMaxAbsPearson(byteIdx int, hyp *XorTable, out *[256]float64) {
	*out = [256]float64{}
	pts, nt := a.Points(), a.Len()
	if nt < 2 || pts == 0 {
		return
	}
	sy, ydev := a.colSums()
	var sx [256]int64
	sxy := a.groupBy(byteIdx, &sx)
	sxx := sx
	xorCorrelate(sxy, pts, &hyp.wf)
	xorCorrelate(sx[:], 1, &hyp.wf)
	xorCorrelate(sxx[:], 1, &hyp.wf2)
	n := float64(nt)
	for k := range out {
		fsx := float64(sx[k])
		hden := math.Sqrt(n*float64(sxx[k]) - fsx*fsx)
		best := 0.0
		for j, s := range sxy[k*pts:][:pts] {
			num := n*float64(s) - fsx*float64(sy[j])
			den := hden * ydev[j]
			if den == 0 {
				continue
			}
			if r := math.Abs(num / den); r > best {
				best = r
			}
		}
		out[k] = best
	}
}
