// Benchmarks regenerating every table and figure of the paper's
// evaluation (reduced sizes; the cmd/pufferbench CLI runs paper-scale
// versions), plus ablation benchmarks for the design choices called
// out in DESIGN.md §4: the stationary-initial shortcut, the
// Lemma 4.9/C.4 fast path, the Appendix C.4 closed form, and the
// quantile-coupling ∞-Wasserstein computation.
package pufferfish_test

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"pufferfish"
	"pufferfish/internal/dist"
	"pufferfish/internal/experiments"
	"pufferfish/internal/kantorovich"
	"pufferfish/internal/markov"
)

// BenchmarkFig4Top regenerates Figure 4's upper row (synthetic binary
// chains, one ε panel, reduced trials).
func BenchmarkFig4Top(b *testing.B) {
	cfg := experiments.Fig4TopConfig{
		Epsilons: []float64{1},
		Alphas:   []float64{0.1, 0.2, 0.3, 0.4},
		T:        100,
		Trials:   50,
		GridN:    5,
		Seed:     21,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4Top(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4BottomAndTable1 regenerates Figure 4's lower row and
// Table 1 (they share the activity experiment).
func BenchmarkFig4BottomAndTable1(b *testing.B) {
	cfg := experiments.ActivityConfig{
		Eps: 1, Trials: 5, Smoothing: 0.5, PopulationScale: 0.15, Seed: 22,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ActivityExperiment(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2 regenerates Table 2 (noise-scale timing comparison).
func BenchmarkTable2(b *testing.B) {
	cfg := experiments.TimingConfig{
		Eps: 1, Repeats: 1, SyntheticT: 100, SyntheticGridStep: 0.4,
		PowerT: 50_000, PopulationScale: 0.1, Smoothing: 0.5, Seed: 23,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TimingExperiment(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3 regenerates Table 3 (electricity histogram errors).
func BenchmarkTable3(b *testing.B) {
	cfg := experiments.PowerConfig{
		T: 50_000, Epsilons: []float64{1}, Trials: 5, Smoothing: 0.5, Seed: 24,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.PowerExperiment(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFluExample regenerates the Section 3.1 worked example (the
// Wasserstein Mechanism's scale computation on the flu model).
func BenchmarkFluExample(b *testing.B) {
	clique, err := pufferfish.NewFluClique([]float64{0.1, 0.15, 0.5, 0.15, 0.1})
	if err != nil {
		b.Fatal(err)
	}
	model, err := pufferfish.NewFluModel([]pufferfish.FluClique{clique, clique, clique})
	if err != nil {
		b.Fatal(err)
	}
	inst := pufferfish.FluInstance{Models: []*pufferfish.FluModel{model}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := pufferfish.WassersteinScale(inst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkedExamples regenerates every prose example at once.
func BenchmarkWorkedExamples(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunWorkedExamples(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations -------------------------------------------------------

func stationaryBinaryClass(b *testing.B, T int) pufferfish.Class {
	b.Helper()
	chain, err := markov.BinaryChain(0.5, 0.9, 0.85).StationaryChain()
	if err != nil {
		b.Fatal(err)
	}
	class, err := pufferfish.NewFinite([]pufferfish.Chain{chain}, T)
	if err != nil {
		b.Fatal(err)
	}
	return class
}

// BenchmarkExactScoreShortcut measures MQMExact with the
// stationary-initial shortcut (Section 4.4.1)…
func BenchmarkExactScoreShortcut(b *testing.B) {
	class := stationaryBinaryClass(b, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pufferfish.ExactScore(class, 1, pufferfish.ExactOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// …and BenchmarkExactScoreFullSweep the ablation without it.
func BenchmarkExactScoreFullSweep(b *testing.B) {
	class := stationaryBinaryClass(b, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pufferfish.ExactScore(class, 1, pufferfish.ExactOptions{ForceFullSweep: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApproxScoreFastPath measures MQMApprox with the Lemma 4.9 /
// C.4 middle-node fast path…
func BenchmarkApproxScoreFastPath(b *testing.B) {
	class := stationaryBinaryClass(b, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pufferfish.ApproxScore(class, 1, pufferfish.ApproxOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// …and BenchmarkApproxScoreFullSweep the per-node ablation (smaller T:
// the sweep is O(T·ℓ²)).
func BenchmarkApproxScoreFullSweep(b *testing.B) {
	class := stationaryBinaryClass(b, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pufferfish.ApproxScore(class, 1, pufferfish.ApproxOptions{ForceFullSweep: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactScoreC4 measures the Appendix C.4 closed-form
// optimization over all initial distributions (the BinaryInterval
// class) against BenchmarkExactScoreInitGrid, the ablation that grids
// initial distributions explicitly.
func BenchmarkExactScoreC4(b *testing.B) {
	class, err := pufferfish.NewBinaryInterval(0.2, 0.8, 100)
	if err != nil {
		b.Fatal(err)
	}
	class.GridN = 3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pufferfish.ExactScore(class, 1, pufferfish.ExactOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactScoreInitGrid(b *testing.B) {
	// Same transition grid as BenchmarkExactScoreC4, but with the
	// initial distributions gridded explicitly (5 points on the
	// simplex edge) instead of optimized in closed form.
	var chains []pufferfish.Chain
	for _, p0 := range []float64{0.2, 0.5, 0.8} {
		for _, p1 := range []float64{0.2, 0.5, 0.8} {
			for _, q0 := range []float64{0.01, 0.25, 0.5, 0.75, 0.99} {
				chains = append(chains, pufferfish.BinaryChain(q0, p0, p1))
			}
		}
	}
	class, err := pufferfish.NewFinite(chains, 100)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pufferfish.ExactScore(class, 1, pufferfish.ExactOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWassersteinQuantile measures the O(n) quantile-coupling W∞
// against BenchmarkWassersteinFlow, the max-flow feasibility search.
func BenchmarkWassersteinQuantile(b *testing.B) {
	mu, nu := benchDistPair(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dist.WassersteinInf(mu, nu)
	}
}

func BenchmarkWassersteinFlow(b *testing.B) {
	mu, nu := benchDistPair(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dist.WassersteinInfFlow(mu, nu)
	}
}

func benchDistPair(b *testing.B) (dist.Discrete, dist.Discrete) {
	b.Helper()
	rng := rand.New(rand.NewPCG(31, 32))
	mk := func() dist.Discrete {
		xs := make([]float64, 20)
		ps := make([]float64, 20)
		var tot float64
		for i := range xs {
			xs[i] = float64(i) + rng.Float64()*0.5
			ps[i] = rng.Float64() + 0.05
			tot += ps[i]
		}
		for i := range ps {
			ps[i] /= tot
		}
		d, err := dist.New(xs, ps)
		if err != nil {
			b.Fatal(err)
		}
		return d
	}
	return mk(), mk()
}

// --- Scoring engine: serial vs parallel --------------------------------
//
// benchstat-friendly sub-benchmark pairs for the shared scoring
// engine; `pufferbench bench` tracks the same workloads in
// BENCH_1.json. Parallelism 1 is the serial path, 0 uses every CPU;
// results are bit-for-bit identical (see TestExactScoreParallelGolden).

var engineLevels = []struct {
	name string
	par  int
}{{"serial", 1}, {"parallel", 0}}

func BenchmarkExactScoreEngine(b *testing.B) {
	class := stationaryBinaryClass(b, 2000)
	for _, lv := range engineLevels {
		b.Run(lv.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opt := pufferfish.ExactOptions{ForceFullSweep: true, Parallelism: lv.par}
				if _, err := pufferfish.ExactScore(class, 1, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkApproxScoreEngine(b *testing.B) {
	class := stationaryBinaryClass(b, 2000)
	for _, lv := range engineLevels {
		b.Run(lv.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opt := pufferfish.ApproxOptions{ForceFullSweep: true, Parallelism: lv.par}
				if _, err := pufferfish.ApproxScore(class, 1, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkWassersteinScaleEngine(b *testing.B) {
	class, err := pufferfish.NewFinite([]pufferfish.Chain{markov.BinaryChain(0.5, 0.8, 0.7)}, 30)
	if err != nil {
		b.Fatal(err)
	}
	for _, lv := range engineLevels {
		b.Run(lv.name, func(b *testing.B) {
			b.ReportAllocs()
			inst := pufferfish.ChainCountInstance{Class: class, W: []int{0, 1}, Parallelism: lv.par}
			for i := 0; i < b.N; i++ {
				if _, _, err := pufferfish.WassersteinScaleOpt(inst, pufferfish.WassersteinOptions{Parallelism: lv.par}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKantorovichCold times one cold Kantorovich score with no
// cache — both cells' conditional-count sweeps and transport profiles,
// serially — on a binary singleton class at three chain lengths.
func BenchmarkKantorovichCold(b *testing.B) {
	for _, T := range []int{50, 150, 300} {
		class, err := markov.NewFinite([]markov.Chain{markov.BinaryChain(0.5, 0.8, 0.7)}, T)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("T=%d", T), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := kantorovich.Score(nil, class, 1, kantorovich.Options{Parallelism: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Score cache / batch ----------------------------------------------
//
// benchstat-friendly pairs for the memoizing layer: each variant
// against its ablation baseline. `pufferbench bench` tracks the same
// workloads in BENCH_2.json.

// BenchmarkCompositionRepeatedRelease measures the Theorem 4.4 regime
// — 100 releases over one unchanged class, each session with its own
// accounting — with the score cache disabled vs enabled. Scores and
// released values are bit-identical in both variants (pinned by
// TestCompositionCachedBitIdentical).
func BenchmarkCompositionRepeatedRelease(b *testing.B) {
	const T, releases = 2000, 100
	class := stationaryBinaryClass(b, T)
	data := make([]int, T)
	for i := range data {
		data[i] = i % 2
	}
	q := pufferfish.RelFreqHistogram{K: 2, N: len(data)}
	loop := func(cache *pufferfish.ScoreCache) error {
		rng := rand.New(rand.NewPCG(103, 104))
		for i := 0; i < releases; i++ {
			comp := pufferfish.NewExactComposition(class, pufferfish.ExactOptions{}).WithCache(cache)
			if _, err := comp.Release(data, q, 1, rng); err != nil {
				return err
			}
		}
		return nil
	}
	b.Run("uncached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := loop(nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := loop(pufferfish.NewScoreCache()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkScoreBatch measures batched scoring of eight classes with
// two distinct fingerprints against the per-class loop it replaces.
func BenchmarkScoreBatch(b *testing.B) {
	chains := []pufferfish.Chain{
		markov.BinaryChain(0.5, 0.9, 0.85),
		markov.BinaryChain(0.5, 0.8, 0.7),
	}
	classes := make([]pufferfish.Class, 8)
	for i := range classes {
		class, err := pufferfish.NewFinite([]pufferfish.Chain{chains[i%2]}, 500)
		if err != nil {
			b.Fatal(err)
		}
		classes[i] = class
	}
	b.Run("individual", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, class := range classes {
				if _, err := pufferfish.ExactScore(class, 1, pufferfish.ExactOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pufferfish.ScoreBatch(nil, classes, 1, pufferfish.ExactOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMQMExactPower51 isolates the k = 51 scoring cost that
// dominates the electricity column of Table 2.
func BenchmarkMQMExactPower51(b *testing.B) {
	rng := rand.New(rand.NewPCG(41, 42))
	series, err := pufferfish.SimulatePower(pufferfish.DefaultPowerHouse(), 50_000, rng)
	if err != nil {
		b.Fatal(err)
	}
	chain, err := pufferfish.EstimateStationaryChain([][]int{series}, pufferfish.PowerNumBins, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	class, err := pufferfish.NewSingleton(chain, 50_000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pufferfish.ExactScore(class, 1, pufferfish.ExactOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGK16Sigma measures the reconstructed baseline's scale
// computation.
func BenchmarkGK16Sigma(b *testing.B) {
	class, err := pufferfish.NewBinaryInterval(0.35, 0.65, 100_000)
	if err != nil {
		b.Fatal(err)
	}
	class.GridN = 5
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pufferfish.GK16Sigma(class, 1); err != nil {
			b.Fatal(err)
		}
	}
}
