package kantorovich

import (
	"math"
	"testing"

	"pufferfish/internal/core"
	"pufferfish/internal/dist"
	"pufferfish/internal/flu"
	"pufferfish/internal/laplace"
	"pufferfish/internal/markov"
	"pufferfish/internal/matrix"
)

// fig4Class is the synthetic Section 5.2 substrate at a test-friendly
// size: binary chains over a (p0, p1) grid.
func fig4Class(t *testing.T, T, gridN int) markov.Class {
	t.Helper()
	b, err := markov.NewBinaryInterval(0.2, 0.8, T)
	if err != nil {
		t.Fatal(err)
	}
	b.GridN = gridN
	return b
}

func threeStateClass(t *testing.T, T int) markov.Class {
	t.Helper()
	chain := markov.MustNew(
		[]float64{0.5, 0.3, 0.2},
		matrix.FromRows([][]float64{
			{0.6, 0.3, 0.1},
			{0.2, 0.5, 0.3},
			{0.25, 0.25, 0.5},
		}),
	)
	class, err := markov.NewSingleton(chain, T)
	if err != nil {
		t.Fatal(err)
	}
	return class
}

// TestCellProfileMatchesWassersteinScale: the W∞ half of a cell
// profile must coincide bit-for-bit with the existing Algorithm 1
// scale computation on the same instance, worst pair included.
func TestCellProfileMatchesWassersteinScale(t *testing.T) {
	class := threeStateClass(t, 6)
	for cell := 0; cell < 3; cell++ {
		p, err := CellProfile(nil, class, cell, Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		w := make([]int, 3)
		w[cell] = 1
		inst := core.ChainCountInstance{Class: class, W: w, Parallelism: 1}
		want, worst, err := core.WassersteinScale(inst)
		if err != nil {
			t.Fatal(err)
		}
		if p.WInf != want {
			t.Errorf("cell %d: WInf = %v, want %v", cell, p.WInf, want)
		}
		if p.Label != worst.Label {
			t.Errorf("cell %d: label %q, want %q", cell, p.Label, worst.Label)
		}
		if p.W1 > p.WInf+1e-12 || !(p.W1 > 0) {
			t.Errorf("cell %d: W1 = %v outside (0, W∞ = %v]", cell, p.W1, p.WInf)
		}
		if p.Pairs == 0 {
			t.Errorf("cell %d: no pairs recorded", cell)
		}
	}
}

// TestScoreSerialParallelBitIdentical pins the engine determinism
// contract for the new subsystem: identical ChainScores at every
// parallelism, on both the Fig4 grid class and a 3-state singleton.
func TestScoreSerialParallelBitIdentical(t *testing.T) {
	classes := map[string]markov.Class{
		"fig4":   fig4Class(t, 5, 3),
		"3state": threeStateClass(t, 7),
	}
	for name, class := range classes {
		serial, err := Score(nil, class, 1.2, Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{0, 2, 5} {
			got, err := Score(nil, class, 1.2, Options{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			if got != serial {
				t.Errorf("%s: parallelism %d: %+v != serial %+v", name, par, got, serial)
			}
		}
		if serial.Sigma <= 0 || serial.Node < 0 || serial.Node >= class.K() {
			t.Errorf("%s: degenerate score %+v", name, serial)
		}
	}
}

// TestScoreCachedVsUncachedBitIdentical: nil cache, cold cache and
// warm cache must produce bit-identical scores, and the warm pass
// must be pure hits.
func TestScoreCachedVsUncachedBitIdentical(t *testing.T) {
	class := fig4Class(t, 4, 3)
	uncached, err := Score(nil, class, 0.7, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cache := core.NewScoreCache()
	cold, err := Score(cache, class, 0.7, Options{})
	if err != nil {
		t.Fatal(err)
	}
	afterCold := cache.Stats()
	if afterCold.Misses != int64(class.K()) {
		t.Errorf("cold pass misses = %d, want %d (one per cell)", afterCold.Misses, class.K())
	}
	warm, err := Score(cache, class, 0.7, Options{})
	if err != nil {
		t.Fatal(err)
	}
	afterWarm := cache.Stats()
	if afterWarm.Misses != afterCold.Misses {
		t.Errorf("warm pass re-swept: misses %d -> %d", afterCold.Misses, afterWarm.Misses)
	}
	if afterWarm.Hits != afterCold.Hits+int64(class.K()) {
		t.Errorf("warm pass hits = %d, want %d", afterWarm.Hits, afterCold.Hits+int64(class.K()))
	}
	if cold != uncached || warm != uncached {
		t.Errorf("cached scores diverge: uncached %+v, cold %+v, warm %+v", uncached, cold, warm)
	}
	// The profile is ε-independent: a different ε reuses the entries.
	other, err := Score(cache, class, 2.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cache.Stats().Misses != afterWarm.Misses {
		t.Error("changing ε re-swept the class")
	}
	if math.Abs(other.Sigma*2.5-uncached.Sigma*0.7) > 1e-12*uncached.Sigma {
		t.Errorf("σ·ε not constant across ε: %v vs %v", other.Sigma*2.5, uncached.Sigma*0.7)
	}
}

// perLengthMax is the brute-force oracle of a chain database's score:
// Score on the class's WithLength view at every length, the first
// maximum σ kept.
func perLengthMax(t *testing.T, class markov.Class, eps float64, lengths []int) core.ChainScore {
	t.Helper()
	var best core.ChainScore
	for i, l := range lengths {
		sc, err := Score(nil, core.WithLength(class, l), eps, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 || sc.Sigma > best.Sigma {
			best = sc
		}
	}
	return best
}

// chainMember is a chain database's member of a ScoreBatch call.
func chainMember(t *testing.T, class markov.Class, lengths []int) []core.Substrate {
	t.Helper()
	subs, err := ChainSubstrates(class, lengths)
	if err != nil {
		t.Fatal(err)
	}
	return subs
}

// TestScoreMultiAndBatch: every chain member of a batch must match the
// brute-force per-length oracle bit for bit, and all-duplicate members
// must cost one sweep per (cell, distinct length).
func TestScoreMultiAndBatch(t *testing.T) {
	classA := fig4Class(t, 6, 2)
	classB := threeStateClass(t, 5)
	type spec struct {
		class   markov.Class
		lengths []int
	}
	specs := []spec{
		{classA, []int{3, 6, 3}},
		{classB, []int{5, 2}},
		{classA, []int{3, 6}}, // same distinct lengths as spec 0
	}
	members := make([][]core.Substrate, len(specs))
	for i, sp := range specs {
		members[i] = chainMember(t, sp.class, sp.lengths)
	}
	batch, err := ScoreBatch(nil, members, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, sp := range specs {
		if want := perLengthMax(t, sp.class, 1, sp.lengths); batch[i] != want {
			t.Errorf("member %d: batch %+v != per-length max %+v", i, batch[i], want)
		}
	}
	if batch[0] != batch[2] {
		t.Errorf("identical members scored differently: %+v vs %+v", batch[0], batch[2])
	}

	// Dedupe accounting: 8 copies of member 0 cost k cells × 2 distinct
	// lengths misses, total, regardless of the copy count.
	dup := make([][]core.Substrate, 8)
	for i := range dup {
		dup[i] = chainMember(t, classA, specs[0].lengths)
	}
	cache := core.NewScoreCache()
	if _, err := ScoreBatch(cache, dup, 1, Options{}); err != nil {
		t.Fatal(err)
	}
	wantMisses := int64(classA.K() * 2)
	if misses := cache.Stats().Misses; misses != wantMisses {
		t.Errorf("8 duplicate members cost %d sweeps, want %d", misses, wantMisses)
	}

	// Empty batch and invalid members.
	if out, err := ScoreBatch(nil, nil, 1, Options{}); err != nil || out != nil {
		t.Errorf("empty batch: (%v, %v), want (nil, nil)", out, err)
	}
	if _, err := ChainSubstrates(nil, []int{3}); err == nil {
		t.Error("nil class accepted")
	}
	if _, err := ChainSubstrates(classA, nil); err == nil {
		t.Error("empty lengths accepted")
	}
	if _, err := ChainSubstrates(classA, []int{3, 0}); err == nil {
		t.Error("zero length accepted")
	}
	if _, err := ScoreBatch(nil, [][]core.Substrate{{}}, 1, Options{}); err == nil {
		t.Error("member without substrates accepted")
	}
	if _, err := ScoreBatch(nil, [][]core.Substrate{{nil}}, 1, Options{}); err == nil {
		t.Error("nil substrate accepted")
	}
}

// TestScorePrivacyFig4: the analytic verifier must certify the
// mechanism's per-cell releases on a small Fig4 class — count-level
// Laplace scale σ = k·W∞max/ε at the per-cell budget ε/k — and a
// 4× smaller scale must violate it (the calibration is not vacuous).
func TestScorePrivacyFig4(t *testing.T) {
	for name, class := range map[string]markov.Class{
		"fig4":   fig4Class(t, 4, 3),
		"3state": threeStateClass(t, 4),
	} {
		eps := 1.0
		score, err := Score(nil, class, eps, Options{})
		if err != nil {
			t.Fatal(err)
		}
		k := class.K()
		epsCell := eps / float64(k)
		grid := verifierGrid(float64(class.T()))
		for cell := 0; cell < k; cell++ {
			w := make([]int, k)
			w[cell] = 1
			if err := core.VerifyChainPufferfish(class, w, score.Sigma, epsCell, 1e-6, grid); err != nil {
				t.Errorf("%s: cell %d: privacy verifier rejected the Kantorovich scale: %v", name, cell, err)
			}
		}
		// Tightness: σ/4 at the same per-cell budget must fail on the
		// worst cell.
		w := make([]int, k)
		w[score.Node] = 1
		if err := core.VerifyChainPufferfish(class, w, score.Sigma/4, epsCell, 1e-6, grid); err == nil {
			t.Errorf("%s: σ/4 passed the verifier; the scale is vacuously large", name)
		}
	}
}

// verifierGrid spans the count range with margins, matching the other
// privacy tests' evaluation grids.
func verifierGrid(T float64) []float64 {
	var grid []float64
	for x := -T; x <= 2*T; x += 0.25 {
		grid = append(grid, x)
	}
	return grid
}

// TestFluProfilePrivacy: on the Section 3.1 flu substrate, the profile
// of the clique instance calibrates a Laplace release whose mixture
// densities obey the ε-Pufferfish log-ratio bound on a fine output
// grid — the core.Verify-style oracle for the non-chain substrate.
func TestFluProfilePrivacy(t *testing.T) {
	model := sec31Model(t)
	inst := flu.Instance{Models: []*flu.Model{model}}
	profile, err := ProfileInstance(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if profile.W1 > profile.WInf || !(profile.WInf > 0) {
		t.Fatalf("degenerate flu profile %+v", profile)
	}
	// Serial and parallel profiles agree bit-for-bit.
	serial, err := ProfileInstance(inst, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if serial != profile {
		t.Fatalf("flu profile parallel %+v != serial %+v", profile, serial)
	}

	eps := 0.8
	noise := laplace.New(profile.WInf / eps)
	pairs, err := inst.ConditionalPairs()
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range pairs {
		for out := -4.0; out <= 12; out += 0.2 {
			pa := mixtureDensity(pair.Mu, noise, out)
			pb := mixtureDensity(pair.Nu, noise, out)
			if r := math.Abs(math.Log(pa / pb)); r > eps+1e-9 {
				t.Fatalf("pair %q at output %.1f: |log ratio| = %v > ε", pair.Label, out, r)
			}
		}
	}
}

func sec31Model(t *testing.T) *flu.Model {
	t.Helper()
	c4, err := flu.FromProbs([]float64{0.1, 0.15, 0.5, 0.15, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := flu.FromProbs([]float64{0.3, 0.4, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	model, err := flu.NewModel([]flu.Clique{c4, c2})
	if err != nil {
		t.Fatal(err)
	}
	return model
}

func mixtureDensity(d dist.Discrete, noise laplace.Dist, out float64) float64 {
	var p float64
	for i := 0; i < d.Len(); i++ {
		x, mass := d.Atom(i)
		p += mass * noise.PDF(out-x)
	}
	return p
}

func TestValidation(t *testing.T) {
	class := threeStateClass(t, 3)
	if _, err := Score(nil, class, 0, Options{}); err == nil {
		t.Error("ε = 0 accepted")
	}
	if _, err := Score(nil, class, math.Inf(1), Options{}); err == nil {
		t.Error("ε = ∞ accepted")
	}
	if _, err := Score(nil, nil, 1, Options{}); err == nil {
		t.Error("nil class accepted")
	}
	if _, err := CellProfile(nil, class, 3, Options{}); err == nil {
		t.Error("out-of-range cell accepted")
	}
	if _, err := CellProfile(nil, class, -1, Options{}); err == nil {
		t.Error("negative cell accepted")
	}
	if _, err := AdditiveNoise("cauchy", 1, 1, 0); err == nil {
		t.Error("unknown noise kind accepted")
	}
	if _, err := AdditiveNoise("laplace", 0, 1, 0); err == nil {
		t.Error("zero transport bound accepted")
	}
}

func TestAdditiveNoiseBackends(t *testing.T) {
	lap, err := AdditiveNoise("laplace", 2, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lap.Name() != "laplace" || lap.Scale() != 4 {
		t.Errorf("laplace backend: name %q scale %v, want laplace 4", lap.Name(), lap.Scale())
	}
	gauss, err := AdditiveNoise("gaussian", 2, 0.5, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * math.Sqrt(2*math.Log(1.25/1e-5)) / 0.5
	if gauss.Name() != "gaussian" || math.Abs(gauss.Scale()-want) > 1e-12 {
		t.Errorf("gaussian backend: name %q scale %v, want gaussian %v", gauss.Name(), gauss.Scale(), want)
	}
}
