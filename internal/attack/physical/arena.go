package physical

import (
	"math/rand"

	"github.com/intrust-sim/intrust/internal/power"
	"github.com/intrust-sim/intrust/internal/softcrypto"
)

// The arena-backed DPA/CPA path: the sweep's production kernels. The
// naive TraceSet implementations above are retained as the reference —
// the kernel-equivalence property tests assert both paths bit-identical
// on randomized trace sets, which the exact int64 arithmetic of
// power.Arena makes possible (see power.Quantize).

// CollectArena gathers n traces of random plaintexts into the arena.
// The RNG and probe-noise consumption is identical to CollectTraces, so
// both paths record the same quantized samples for the same seed.
func CollectArena(a *power.Arena, v AESVictim, probe *power.Probe, n int, rng *rand.Rand) {
	a.Reset()
	ExtendArena(a, v, probe, n, rng)
}

// ExtendArena adds n more traces to the arena — the sequential-sampling
// hook, allocation-free in steady state: trace samples append to the
// arena's contiguous backing (pre-reserved via Grow) and the plaintext
// buffer lives on the arena.
func ExtendArena(a *power.Arena, v AESVictim, probe *power.Probe, n int, rng *rand.Rand) {
	pt := a.StageInput()
	for i := 0; i < n; i++ {
		rng.Read(pt)
		rec := a.BeginTrace(probe)
		v.EncryptTraced(pt, rec)
		a.EndTrace(pt)
	}
}

// dpaSel and cpaHyp are the two S-box leakage models as all-guess XOR
// tables. For guess k, a trace of plaintext-byte class v is selected by
// DPA iff SBox(v⊕k)&1 = 1, and its CPA hypothesis is HW(SBox(v⊕k)).
var dpaSel, cpaHyp *power.XorTable

func init() {
	var bit0, hw [256]int64
	for u := 0; u < 256; u++ {
		s := softcrypto.SBox(byte(u))
		bit0[u] = int64(s & 1)
		hw[u] = int64(power.HW(uint32(s)))
	}
	dpaSel = power.NewXorTable(&bit0)
	cpaHyp = power.NewXorTable(&hw)
}

// bestGuess returns the guess with the largest statistic, the first in
// k order on ties.
func bestGuess(stat *[256]float64) (byte, float64) {
	bestK, best := byte(0), -1.0
	for k, s := range stat {
		if s > best {
			bestK, best = byte(k), s
		}
	}
	return bestK, best
}

// DPAByteArena recovers one key byte with the batched difference-of-means
// distinguisher — bit-identical to DPAByte on the same recorded traces.
func DPAByteArena(a *power.Arena, byteIdx int) (byte, float64) {
	var d [256]float64
	a.XorDifferenceOfMeans(byteIdx, dpaSel, &d)
	return bestGuess(&d)
}

// DPAKeyArena recovers all 16 key bytes with the batched distinguisher.
func DPAKeyArena(a *power.Arena) [16]byte {
	var out [16]byte
	for i := 0; i < 16; i++ {
		out[i], _ = DPAByteArena(a, i)
	}
	return out
}

// CPAByteArena recovers one key byte by batched Pearson correlation
// against the HW(SBox(pt^k)) hypothesis — bit-identical to CPAByte on
// the same recorded traces.
func CPAByteArena(a *power.Arena, byteIdx int) (byte, float64) {
	var c [256]float64
	a.XorMaxAbsPearson(byteIdx, cpaHyp, &c)
	return bestGuess(&c)
}

// CPAKeyArena recovers all 16 key bytes with the batched distinguisher.
func CPAKeyArena(a *power.Arena) [16]byte {
	var out [16]byte
	for i := 0; i < 16; i++ {
		out[i], _ = CPAByteArena(a, i)
	}
	return out
}
