// Integration tests exercising the public API end to end, the way a
// downstream user would.
package pufferfish_test

import (
	"math"
	"math/rand/v2"
	"testing"

	"pufferfish"
)

func TestFacadeChainPipeline(t *testing.T) {
	rng := rand.New(rand.NewPCG(61, 62))
	const T = 300
	truth := pufferfish.BinaryChain(0.5, 0.9, 0.8)
	data := truth.Sample(T, rng)

	class, err := pufferfish.NewFinite([]pufferfish.Chain{truth}, T)
	if err != nil {
		t.Fatal(err)
	}
	q := pufferfish.StateFrequency{State: 1, N: T}

	rel, score, err := pufferfish.MQMExact(data, q, class, 1, pufferfish.ExactOptions{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Mechanism != "MQMExact" || score.Sigma <= 0 {
		t.Errorf("release %+v score %+v", rel, score)
	}
	relA, scoreA, err := pufferfish.MQMApprox(data, q, class, 1, pufferfish.ApproxOptions{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if scoreA.Sigma < score.Sigma {
		t.Errorf("approx σ %v below exact σ %v", scoreA.Sigma, score.Sigma)
	}
	if len(relA.Values) != 1 {
		t.Error("bad release shape")
	}

	// The exact σ passes the public privacy verifier.
	grid := make([]float64, 0, 50)
	for v := -5.0; v <= float64(T)/3; v += 5 {
		grid = append(grid, v)
	}
	small, err := pufferfish.NewFinite([]pufferfish.Chain{truth}, 6)
	if err != nil {
		t.Fatal(err)
	}
	smallScore, err := pufferfish.ExactScore(small, 1, pufferfish.ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := pufferfish.VerifyChainPufferfish(small, []int{0, 1}, smallScore.Sigma, 1, 1e-6, grid); err != nil {
		t.Errorf("public verifier rejected MQMExact scale: %v", err)
	}
}

func TestFacadeEstimation(t *testing.T) {
	rng := rand.New(rand.NewPCG(63, 64))
	truth := pufferfish.BinaryChain(0.3, 0.85, 0.75)
	seqs := [][]int{truth.Sample(5000, rng), truth.Sample(5000, rng)}
	chain, err := pufferfish.EstimateStationaryChain(seqs, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(chain.P.At(0, 0)-0.85) > 0.03 {
		t.Errorf("estimate drifted: %v", chain.P.At(0, 0))
	}
}

func TestFacadeWassersteinAndDiscrete(t *testing.T) {
	mu, err := pufferfish.NewDiscrete([]float64{0, 1}, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	nu, err := pufferfish.NewDiscrete([]float64{2, 3}, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if got := pufferfish.WassersteinInf(mu, nu); got != 2 {
		t.Errorf("W∞ = %v, want 2", got)
	}
	if got := pufferfish.MaxDivergence(mu, mu); got != 0 {
		t.Errorf("D∞ = %v, want 0", got)
	}
}

func TestFacadeGenericQuiltMechanism(t *testing.T) {
	// The Figure 2 diamond network through the public API.
	nw, err := pufferfish.NewNetwork([]pufferfish.NetworkNode{
		{Name: "X1", Card: 2, CPT: []float64{0.6, 0.4}},
		{Name: "X2", Card: 2, Parents: []int{0}, CPT: []float64{0.7, 0.3, 0.2, 0.8}},
		{Name: "X3", Card: 2, Parents: []int{0}, CPT: []float64{0.5, 0.5, 0.9, 0.1}},
		{Name: "X4", Card: 2, Parents: []int{1, 2}, CPT: []float64{0.9, 0.1, 0.4, 0.6, 0.3, 0.7, 0.1, 0.9}},
	})
	if err != nil {
		t.Fatal(err)
	}
	inst := &pufferfish.BayesInstantiation{Networks: []*pufferfish.Network{nw}}
	detail, err := pufferfish.QuiltScoreBayes(inst, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !(detail.Sigma > 0) || math.IsInf(detail.Sigma, 1) {
		t.Errorf("σ = %v", detail.Sigma)
	}
	rng := rand.New(rand.NewPCG(65, 66))
	rel, _, err := pufferfish.MarkovQuiltMechanism([]float64{2}, 1, inst, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Values) != 1 {
		t.Error("bad release")
	}
}

func TestFacadeFluPipeline(t *testing.T) {
	clique, err := pufferfish.NewFluClique([]float64{0.1, 0.15, 0.5, 0.15, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	model, err := pufferfish.NewFluModel([]pufferfish.FluClique{clique})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(67, 68))
	data := model.Sample(rng)
	var count float64
	for _, x := range data {
		count += float64(x)
	}
	rel, err := pufferfish.Wasserstein(count, pufferfish.FluInstance{Models: []*pufferfish.FluModel{model}}, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Sigma != 2 { // the Section 3.1 worked example
		t.Errorf("W = %v, want 2", rel.Sigma)
	}
}

func TestFacadeActivityAndPower(t *testing.T) {
	rng := rand.New(rand.NewPCG(69, 70))
	profile := pufferfish.DefaultActivityProfile(pufferfish.ActivityGroups[0])
	profile.Participants = 2
	profile.SessionsPerPerson = 4
	ds, err := pufferfish.GenerateActivity(profile, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.People) != 2 {
		t.Error("population wrong")
	}
	series, err := pufferfish.SimulatePower(pufferfish.DefaultPowerHouse(), 5000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 5000 {
		t.Error("series wrong")
	}
}

func TestFacadeComposition(t *testing.T) {
	rng := rand.New(rand.NewPCG(71, 72))
	const T = 100
	truth := pufferfish.BinaryChain(0.5, 0.8, 0.8)
	class, err := pufferfish.NewFinite([]pufferfish.Chain{truth}, T)
	if err != nil {
		t.Fatal(err)
	}
	comp := pufferfish.NewApproxComposition(class)
	data := truth.Sample(T, rng)
	q := pufferfish.StateFrequency{State: 1, N: T}
	for i := 0; i < 2; i++ {
		if _, err := comp.Release(data, q, 2, rng); err != nil {
			t.Fatal(err)
		}
	}
	if comp.TotalEpsilon() != 4 {
		t.Errorf("TotalEpsilon = %v", comp.TotalEpsilon())
	}
}

func TestFacadeUtilityBoundAndRobustness(t *testing.T) {
	class, err := pufferfish.NewBinaryInterval(0.3, 0.7, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	minT, err := pufferfish.UtilityBound(class, 1)
	if err != nil {
		t.Fatal(err)
	}
	if minT <= 0 || minT > 10_000 {
		t.Errorf("UtilityBound = %d", minT)
	}
	if pufferfish.EffectiveEpsilon(1, 0.5) != 2 {
		t.Error("EffectiveEpsilon wrong")
	}
	if len(pufferfish.AllValuePairs(3, 2)) != 3 {
		t.Error("AllValuePairs wrong")
	}
}

func TestFacadeMultiBatchScoring(t *testing.T) {
	chain, err := pufferfish.BinaryChain(0.5, 0.9, 0.85).StationaryChain()
	if err != nil {
		t.Fatal(err)
	}
	class, err := pufferfish.NewFinite([]pufferfish.Chain{chain}, 30)
	if err != nil {
		t.Fatal(err)
	}
	specs := []pufferfish.MultiSpec{
		{Class: class, Lengths: []int{5, 12, 30}},
		{Class: class, Lengths: []int{5, 12, 30}}, // duplicate dedupes
		{Class: class, Lengths: []int{30}},
	}
	cache := pufferfish.NewScoreCache()
	exact, err := pufferfish.ExactScoreMultiBatch(cache, specs, 1, pufferfish.ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(exact) != 3 || exact[0] != exact[1] || exact[0].Sigma <= 0 {
		t.Errorf("batch scores %+v", exact)
	}
	approx, err := pufferfish.ApproxScoreMultiBatch(cache, specs, 1, pufferfish.ApproxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(approx) != 3 || approx[0].Sigma < exact[0].Sigma {
		t.Errorf("approx σ %v below exact σ %v", approx[0].Sigma, exact[0].Sigma)
	}
	if stats := cache.Stats(); stats.Misses == 0 {
		t.Errorf("cache untouched: %+v", stats)
	}
}

func TestFacadeKantorovichSubsystem(t *testing.T) {
	rng := rand.New(rand.NewPCG(71, 72))
	truth := pufferfish.BinaryChain(0.5, 0.85, 0.8)
	class, err := pufferfish.NewFinite([]pufferfish.Chain{truth}, 8)
	if err != nil {
		t.Fatal(err)
	}

	cache := pufferfish.NewScoreCache()
	score, err := pufferfish.KantorovichScore(cache, class, 1, pufferfish.KantorovichOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if score.Sigma <= 0 || score.Node < 0 || score.Node >= 2 {
		t.Fatalf("degenerate score %+v", score)
	}
	profile, err := pufferfish.KantorovichCellProfile(cache, class, score.Node, pufferfish.KantorovichOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if profile.W1 > profile.WInf || profile.WInf <= 0 {
		t.Fatalf("profile out of order: %+v", profile)
	}
	if got := 2 * profile.WInf / 1; math.Abs(got-score.Sigma) > 1e-12*score.Sigma {
		t.Errorf("σ = %v, want k·W∞/ε = %v", score.Sigma, got)
	}
	// The facade's W1 matches the subsystem's convention.
	mu, err := pufferfish.NewDiscrete([]float64{0, 3}, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	nu, err := pufferfish.NewDiscrete([]float64{0}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if w := pufferfish.Wasserstein1(mu, nu); math.Abs(w-1.5) > 1e-12 {
		t.Errorf("W1 = %v, want 1.5", w)
	}

	// A multi-length batch member through the facade scores the max of
	// the per-length KantorovichScore results.
	lengths := []int{8, 3}
	subs, err := pufferfish.KantorovichChainSubstrates(class, lengths)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := pufferfish.KantorovichScoreBatch(nil, [][]pufferfish.Substrate{subs}, 1, pufferfish.KantorovichOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var want pufferfish.ChainScore
	for i, l := range []int{3, 8} {
		lc, err := pufferfish.NewFinite([]pufferfish.Chain{truth}, l)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := pufferfish.KantorovichScore(nil, lc, 1, pufferfish.KantorovichOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 || sc.Sigma > want.Sigma {
			want = sc
		}
	}
	if len(batch) != 1 || batch[0] != want {
		t.Errorf("batch %+v != per-length max %+v", batch, want)
	}

	// Exponential mechanism and the additive noise backends.
	m, err := pufferfish.NewExpMech([]float64{0, 1, 2, 3}, profile.WInf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if y := m.Sample(1.2, rng); y < 0 || y > 3 {
		t.Errorf("exponential mechanism left its grid: %v", y)
	}
	lap, err := pufferfish.NewAdditiveNoise("laplace", profile.WInf, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lap.Scale() != profile.WInf {
		t.Errorf("laplace scale %v, want W∞/ε = %v", lap.Scale(), profile.WInf)
	}
	gauss, err := pufferfish.NewAdditiveNoise("gaussian", profile.WInf, 1, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if gauss.Name() != "gaussian" || gauss.Scale() <= lap.Scale() {
		t.Errorf("gaussian backend: %q scale %v", gauss.Name(), gauss.Scale())
	}
}
