package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"testing"

	"pufferfish/internal/accounting"
	"pufferfish/internal/bayes"
	"pufferfish/internal/core"
	"pufferfish/internal/kantorovich"
	"pufferfish/internal/markov"
	"pufferfish/internal/matrix"
	"pufferfish/internal/power"
	"pufferfish/internal/query"
	"pufferfish/internal/release"
)

// benchEntry is one row of the BENCH_N.json report: the standard Go
// benchmark metrics plus the wall-clock speedup of the parallel
// variant over its serial twin (".../parallel" rows) or of an
// optimized variant over its ablation baseline (".../cached",
// ".../batch" rows).
type benchEntry struct {
	Name              string  `json:"name"`
	NsPerOp           float64 `json:"ns_per_op"`
	AllocsPerOp       int64   `json:"allocs_per_op"`
	BytesPerOp        int64   `json:"bytes_per_op"`
	Iterations        int     `json:"iterations"`
	SpeedupVsSerial   float64 `json:"speedup_vs_serial,omitempty"`
	SpeedupVsBaseline float64 `json:"speedup_vs_baseline,omitempty"`
}

// benchReport is the machine-readable perf snapshot tracked across PRs.
type benchReport struct {
	GoMaxProcs int `json:"go_max_procs"`
	// RequestedProcs echoes the -procs flag (0 = runtime default); CI
	// lanes pin it so a report says which configuration produced it.
	RequestedProcs int  `json:"requested_procs,omitempty"`
	Quick          bool `json:"quick"`
	// ParallelMeasurementValid is false when the run had a single
	// effective CPU: the serial/parallel pairs then measure scheduler
	// overhead, not parallel speedup, and speedup_vs_serial must not be
	// read as a parallelism result. The checkparallel gate refuses such
	// reports.
	ParallelMeasurementValid bool         `json:"parallel_measurement_valid"`
	Benchmarks               []benchEntry `json:"benchmarks"`
	// Accounting records the privacy-budget outcome of the repeated
	// Gaussian-release workload: the Rényi ledger's (ε, δ) next to the
	// linear Theorem 4.4 bound it tightens. The bench fails when the
	// RDP bound is not strictly below linear, so a committed BENCH
	// snapshot doubles as the budget gate.
	Accounting *accountingSummary `json:"accounting,omitempty"`
}

// accountingSummary is benchReport.Accounting.
type accountingSummary struct {
	Workload       string  `json:"workload"`
	Releases       int     `json:"releases"`
	Delta          float64 `json:"delta"`
	LinearEpsilon  float64 `json:"linear_epsilon"`
	RDPEpsilon     float64 `json:"rdp_epsilon"`
	SavingsFactor  float64 `json:"savings_vs_linear"`
	AccumulatedRho float64 `json:"rho"`
}

// runBench measures the scoring engine's hot paths serial vs parallel,
// the score cache's composition and batch workloads, and writes the
// BENCH_N.json report. The workloads mirror bench_test.go's
// sub-benchmarks so `go test -bench` and this command track the same
// quantities; the serial/parallel workload names are shared with
// BENCH_1.json so `pufferbench compare` can track the trajectory.
func runBench(quick bool, out string, procs int) error {
	if procs > 0 {
		runtime.GOMAXPROCS(procs)
	}
	exactT, approxT, wassT, powT := 2000, 2000, 36, 50_000
	compT, compReleases, batchT := 2000, 100, 500
	kantT, kantReleases := 100, 12
	treeN, treeReleases := 24, 8
	if quick {
		exactT, approxT, wassT, powT = 500, 500, 18, 10_000
		compT, batchT = 500, 200
		kantT, kantReleases = 50, 6
		treeN, treeReleases = 12, 4
	}

	chain, err := markov.BinaryChain(0.5, 0.9, 0.85).StationaryChain()
	if err != nil {
		return err
	}
	exactClass, err := markov.NewFinite([]markov.Chain{chain}, exactT)
	if err != nil {
		return err
	}
	approxClass, err := markov.NewFinite([]markov.Chain{chain}, approxT)
	if err != nil {
		return err
	}
	wassClass, err := markov.NewFinite([]markov.Chain{markov.BinaryChain(0.5, 0.8, 0.7)}, wassT)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewPCG(41, 42))
	series, err := power.DefaultHouse().Simulate(powT, rng)
	if err != nil {
		return err
	}
	powChain, err := power.EmpiricalChain(series, 0.5)
	if err != nil {
		return err
	}
	powClass, err := markov.NewSingleton(powChain, powT)
	if err != nil {
		return err
	}
	powClassT1, err := markov.NewSingleton(powChain, powT+1)
	if err != nil {
		return err
	}

	kantClass, err := markov.NewFinite([]markov.Chain{markov.BinaryChain(0.5, 0.85, 0.8)}, kantT)
	if err != nil {
		return err
	}

	// Each case runs once with Parallelism 1 and once with 0 (all
	// CPUs); any returned error aborts the whole run.
	cases := []struct {
		name string
		run  func(parallelism int) error
	}{
		{"ExactScoreSweep", func(p int) error {
			_, err := core.ExactScore(exactClass, 1, core.ExactOptions{ForceFullSweep: true, Parallelism: p})
			return err
		}},
		{"ApproxScoreSweep", func(p int) error {
			_, err := core.ApproxScore(approxClass, 1, core.ApproxOptions{ForceFullSweep: true, Parallelism: p})
			return err
		}},
		{"WassersteinChain", func(p int) error {
			inst := core.ChainCountInstance{Class: wassClass, W: []int{0, 1}, Parallelism: p}
			_, _, err := core.WassersteinScaleOpt(inst, core.WassersteinOptions{Parallelism: p})
			return err
		}},
		{"ExactScorePower51", func(p int) error {
			_, err := core.ExactScore(powClass, 1, core.ExactOptions{Parallelism: p})
			return err
		}},
		{"KantorovichProfileSweep", func(p int) error {
			_, err := kantorovich.Score(nil, kantClass, 1, kantorovich.Options{Parallelism: p})
			return err
		}},
	}

	report := benchReport{
		GoMaxProcs:               runtime.GOMAXPROCS(0),
		RequestedProcs:           procs,
		Quick:                    quick,
		ParallelMeasurementValid: runtime.GOMAXPROCS(0) > 1,
	}
	if !report.ParallelMeasurementValid {
		fmt.Println("warning: GOMAXPROCS=1 — serial/parallel pairs measure scheduler overhead, not speedup; parallel_measurement_valid=false")
	}
	for _, c := range cases {
		var runErr error
		measure := func(parallelism int) testing.BenchmarkResult {
			return testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := c.run(parallelism); err != nil {
						runErr = err
						b.FailNow()
					}
				}
			})
		}
		serial := measure(1)
		parallel := measure(0)
		if runErr != nil {
			return fmt.Errorf("bench %s: %w", c.name, runErr)
		}
		serialNs := float64(serial.NsPerOp())
		parallelNs := float64(parallel.NsPerOp())
		report.Benchmarks = append(report.Benchmarks,
			benchEntry{
				Name:        c.name + "/serial",
				NsPerOp:     serialNs,
				AllocsPerOp: serial.AllocsPerOp(),
				BytesPerOp:  serial.AllocedBytesPerOp(),
				Iterations:  serial.N,
			},
			benchEntry{
				Name:            c.name + "/parallel",
				NsPerOp:         parallelNs,
				AllocsPerOp:     parallel.AllocsPerOp(),
				BytesPerOp:      parallel.AllocedBytesPerOp(),
				Iterations:      parallel.N,
				SpeedupVsSerial: serialNs / parallelNs,
			})
		fmt.Printf("%-28s %12.0f ns/op %8d allocs/op\n", c.name+"/serial", serialNs, serial.AllocsPerOp())
		fmt.Printf("%-28s %12.0f ns/op %8d allocs/op   %.2fx\n", c.name+"/parallel", parallelNs, parallel.AllocsPerOp(), serialNs/parallelNs)
	}

	// Cache/batch workloads: an optimized variant against its ablation
	// baseline (cache disabled, per-class scoring). Each pair reports
	// speedup_vs_baseline on the optimized row.
	compChain, err := markov.BinaryChain(0.5, 0.9, 0.85).StationaryChain()
	if err != nil {
		return err
	}
	compClass, err := markov.NewFinite([]markov.Chain{compChain}, compT)
	if err != nil {
		return err
	}
	compRng := rand.New(rand.NewPCG(101, 102))
	compData := compChain.Sample(compT, compRng)
	compQuery := query.RelFreqHistogram{K: 2, N: len(compData)}
	// compositionLoop is the Theorem 4.4 regime: many sessions over one
	// unchanged class, each with its own accounting, optionally sharing
	// a score cache.
	compositionLoop := func(cache *core.ScoreCache) error {
		rng := rand.New(rand.NewPCG(103, 104))
		for i := 0; i < compReleases; i++ {
			comp := core.NewExactComposition(compClass, core.ExactOptions{}).WithCache(cache)
			if _, err := comp.Release(compData, compQuery, 1, rng); err != nil {
				return err
			}
		}
		return nil
	}

	batchChains := []markov.Chain{
		markov.BinaryChain(0.5, 0.9, 0.85),
		markov.BinaryChain(0.5, 0.8, 0.7),
	}
	batchClasses := make([]markov.Class, 8)
	for i := range batchClasses {
		class, err := markov.NewFinite([]markov.Chain{batchChains[i%len(batchChains)]}, batchT)
		if err != nil {
			return err
		}
		batchClasses[i] = class
	}

	// kantorovichLoop is the pufferd regime for the new mechanism:
	// repeated MechKantorovich releases over one stable fitted model,
	// optionally sharing the score cache's cell-profile table.
	kantRng := rand.New(rand.NewPCG(105, 106))
	kantChain := markov.BinaryChain(0.5, 0.85, 0.8)
	kantSessions := [][]int{kantChain.Sample(kantT, kantRng), kantChain.Sample(kantT, kantRng)}
	kantorovichLoop := func(cache *core.ScoreCache) error {
		for i := 0; i < kantReleases; i++ {
			_, err := release.Run(kantSessions, release.Config{
				Epsilon: 1, Mechanism: release.MechKantorovich, Smoothing: 0.5,
				Seed: uint64(i), Cache: cache,
			})
			if err != nil {
				return err
			}
		}
		return nil
	}

	// Tree-substrate workload: repeated Bayesian-network releases over
	// one stable household polytree (node i's parent is (i−1)/2),
	// cold vs sharing the score cache's cell-profile table — the
	// pufferd regime for network-substrate requests.
	treeNodes := make([]bayes.Node, treeN)
	treeNodes[0] = bayes.Node{Card: 2, CPT: []float64{0.8, 0.2}}
	for i := 1; i < treeN; i++ {
		treeNodes[i] = bayes.Node{
			Card: 2, Parents: []int{(i - 1) / 2},
			CPT: []float64{0.9, 0.1, 0.35, 0.65},
		}
	}
	treeNet, err := bayes.New(treeNodes)
	if err != nil {
		return err
	}
	treeSession := make([]int, treeN)
	for i := range treeSession {
		treeSession[i] = i % 2
	}
	treeLoop := func(cache *core.ScoreCache) error {
		for i := 0; i < treeReleases; i++ {
			_, err := release.Run([][]int{treeSession}, release.Config{
				Epsilon: 1, Mechanism: release.MechKantorovich,
				Substrate: release.SubstrateNetwork, Network: treeNet,
				Seed: uint64(i), Cache: cache,
			})
			if err != nil {
				return err
			}
		}
		return nil
	}

	// Rényi-accounting workload: the repeated-release regime with the
	// Gaussian backend over one stable model, accounted vs not. The
	// pair measures the ledger's release-time overhead (it must be in
	// the noise — accounting is observational); the summary block
	// below records the budget it buys. A shared pre-warmed cache
	// keeps the pair measuring accounting, not scoring.
	const gaussReleases, gaussDelta = 12, 1e-5
	gaussRng := rand.New(rand.NewPCG(107, 108))
	gaussSessions := [][]int{kantChain.Sample(kantT, gaussRng), kantChain.Sample(kantT, gaussRng)}
	gaussCache := core.NewScoreCache()
	gaussLoop := func(led *accounting.Ledger) error {
		for i := 0; i < gaussReleases; i++ {
			_, err := release.Run(gaussSessions, release.Config{
				Epsilon: 1, Delta: gaussDelta, Mechanism: release.MechKantorovich,
				Noise: release.NoiseGaussian, Smoothing: 0.5,
				Seed: uint64(i), Cache: gaussCache, Accountant: led,
			})
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := gaussLoop(nil); err != nil { // pre-warm the shared cache
		return err
	}

	// Incremental-length workload: the streaming regime where a model
	// already scored at length T is re-scored at T+1 as an observation
	// arrives. The cold baseline rebuilds every influence table from
	// scratch; the incremental variant scores against a cache warmed at
	// length T, so only table rows the longer chain newly needs are
	// computed. Per-iteration ε jitter (≤ 1 part in 10⁹) keeps the
	// score-level fingerprint memo from short-circuiting the scorer, so
	// the pair measures the table layer, not the memo.
	incCache := core.NewScoreCache()
	incBatch := []markov.Class{powClassT1}
	if _, err := core.ScoreBatch(incCache, []markov.Class{powClass}, 1, core.ExactOptions{Parallelism: 1}); err != nil {
		return err
	}
	incIter := 0

	pairs := []struct {
		name              string
		baseline, variant string
		runBase, runVar   func() error
	}{
		{"AccountedGaussianRelease", "unaccounted", "accounted",
			func() error { return gaussLoop(nil) },
			func() error { return gaussLoop(accounting.NewLedger(gaussDelta)) },
		},
		{"KantorovichRepeatedRelease", "uncached", "cached",
			func() error { return kantorovichLoop(nil) },
			func() error { return kantorovichLoop(core.NewScoreCache()) },
		},
		{"KantorovichTreeSubstrate", "cold", "cached",
			func() error { return treeLoop(nil) },
			func() error { return treeLoop(core.NewScoreCache()) },
		},
		{"CompositionRepeatedRelease", "uncached", "cached",
			func() error { return compositionLoop(nil) },
			func() error { return compositionLoop(core.NewScoreCache()) },
		},
		{"ExactScoreIncremental", "cold", "extend",
			func() error {
				_, err := core.ExactScore(powClassT1, 1, core.ExactOptions{Parallelism: 1})
				return err
			},
			func() error {
				incIter++
				eps := 1 + float64(incIter%1024)*1e-12
				_, err := core.ScoreBatch(incCache, incBatch, eps, core.ExactOptions{Parallelism: 1})
				return err
			},
		},
		{"ScoreBatchDup8", "individual", "batch",
			func() error {
				for _, class := range batchClasses {
					if _, err := core.ExactScore(class, 1, core.ExactOptions{}); err != nil {
						return err
					}
				}
				return nil
			},
			func() error {
				_, err := core.ScoreBatch(nil, batchClasses, 1, core.ExactOptions{})
				return err
			},
		},
	}
	for _, p := range pairs {
		var runErr error
		measure := func(run func() error) testing.BenchmarkResult {
			return testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := run(); err != nil {
						runErr = err
						b.FailNow()
					}
				}
			})
		}
		base := measure(p.runBase)
		variant := measure(p.runVar)
		if runErr != nil {
			return fmt.Errorf("bench %s: %w", p.name, runErr)
		}
		baseNs := float64(base.NsPerOp())
		varNs := float64(variant.NsPerOp())
		report.Benchmarks = append(report.Benchmarks,
			benchEntry{
				Name:        p.name + "/" + p.baseline,
				NsPerOp:     baseNs,
				AllocsPerOp: base.AllocsPerOp(),
				BytesPerOp:  base.AllocedBytesPerOp(),
				Iterations:  base.N,
			},
			benchEntry{
				Name:              p.name + "/" + p.variant,
				NsPerOp:           varNs,
				AllocsPerOp:       variant.AllocsPerOp(),
				BytesPerOp:        variant.AllocedBytesPerOp(),
				Iterations:        variant.N,
				SpeedupVsBaseline: baseNs / varNs,
			})
		fmt.Printf("%-36s %12.0f ns/op %8d allocs/op\n", p.name+"/"+p.baseline, baseNs, base.AllocsPerOp())
		fmt.Printf("%-36s %12.0f ns/op %8d allocs/op   %.2fx\n", p.name+"/"+p.variant, varNs, variant.AllocsPerOp(), baseNs/varNs)
	}

	// Allocation benchmark for the slab-backed power table (no
	// serial/parallel split; the win is allocs/op).
	powTable := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pc := matrix.NewPowerCache(powChain.P)
			pc.Grow(64)
		}
	})
	report.Benchmarks = append(report.Benchmarks, benchEntry{
		Name:        "PowerCacheGrow64_k51",
		NsPerOp:     float64(powTable.NsPerOp()),
		AllocsPerOp: powTable.AllocsPerOp(),
		BytesPerOp:  powTable.AllocedBytesPerOp(),
		Iterations:  powTable.N,
	})
	fmt.Printf("%-28s %12d ns/op %8d allocs/op\n", "PowerCacheGrow64_k51", powTable.NsPerOp(), powTable.AllocsPerOp())

	// Budget gate: run the accounted workload once more against a
	// fresh ledger and record the tightened (ε, δ). The bench fails
	// unless the Rényi bound is strictly below the linear one — the
	// committed snapshot proves the accountant earns its keep.
	led := accounting.NewLedger(gaussDelta)
	if err := gaussLoop(led); err != nil {
		return err
	}
	rdp, err := led.Epsilon(gaussDelta)
	if err != nil {
		return err
	}
	linear := led.LinearEpsilon()
	if !(rdp < linear) {
		return fmt.Errorf("accounting gate: RDP ε %v not strictly below linear %v after %d gaussian releases",
			rdp, linear, gaussReleases)
	}
	report.Accounting = &accountingSummary{
		Workload:       "AccountedGaussianRelease",
		Releases:       gaussReleases,
		Delta:          gaussDelta,
		LinearEpsilon:  linear,
		RDPEpsilon:     rdp,
		SavingsFactor:  linear / rdp,
		AccumulatedRho: led.Rho(),
	}
	fmt.Printf("%-36s K=%d gaussian releases: RDP ε(δ=%g) = %.3f vs linear %.0f (%.1fx tighter)\n",
		"AccountingBudget", gaussReleases, gaussDelta, rdp, linear, linear/rdp)

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", out)
	return nil
}
