package core

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"pufferfish/internal/floats"
	"pufferfish/internal/markov"
)

// perLengthScores is the brute-force oracle of the multi-length
// scorers: score, on its own, the class's WithLength view at every
// length of the multiset.
func perLengthScores(t *testing.T, class markov.Class, lengths []int, score func(markov.Class) (ChainScore, error)) []ChainScore {
	t.Helper()
	out := make([]ChainScore, len(lengths))
	for i, l := range lengths {
		sc, err := score(WithLength(class, l))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = sc
	}
	return out
}

func exactOracle(eps float64, opt ExactOptions) func(markov.Class) (ChainScore, error) {
	return func(c markov.Class) (ChainScore, error) { return ExactScore(c, eps, opt) }
}

func approxOracle(eps float64, opt ApproxOptions) func(markov.Class) (ChainScore, error) {
	return func(c markov.Class) (ChainScore, error) { return ApproxScore(c, eps, opt) }
}

// checkMultiOracle holds a multi-length score to the oracle: its σ is
// the maximum per-length σ, and the score itself is, bit for bit, the
// oracle's score at one of the lengths. The σ check carries a 1e-9
// tolerance because lengths past the quilt-width plateau are not
// rescored, and σ is constant there only mathematically.
func checkMultiOracle(t *testing.T, name string, got ChainScore, perLength []ChainScore) bool {
	t.Helper()
	best, found := 0.0, false
	for _, sc := range perLength {
		if sc.Sigma > best {
			best = sc.Sigma
		}
		found = found || sc == got
	}
	ok := true
	if !floats.Eq(got.Sigma, best, 1e-9) {
		t.Errorf("%s: σ %v != max per-length σ %v", name, got.Sigma, best)
		ok = false
	}
	if !found {
		t.Errorf("%s: score %+v is no per-length score %+v", name, got, perLength)
		ok = false
	}
	return ok
}

func exactMulti(t *testing.T, cache *ScoreCache, class markov.Class, eps float64, opt ExactOptions, lengths []int) ChainScore {
	t.Helper()
	out, err := ExactScoreMultiBatch(cache, []MultiSpec{{Class: class, Lengths: lengths}}, eps, opt)
	if err != nil {
		t.Fatal(err)
	}
	return out[0]
}

func approxMulti(t *testing.T, cache *ScoreCache, class markov.Class, eps float64, opt ApproxOptions, lengths []int) ChainScore {
	t.Helper()
	out, err := ApproxScoreMultiBatch(cache, []MultiSpec{{Class: class, Lengths: lengths}}, eps, opt)
	if err != nil {
		t.Fatal(err)
	}
	return out[0]
}

// TestMultiEqualsMaxOverSingletons: the multi-length score must equal
// the brute-force max of per-length scores.
func TestMultiEqualsMaxOverSingletons(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 131))
		chain, err := markov.BinaryChain(0.5, 0.3+0.5*r.Float64(), 0.3+0.5*r.Float64()).StationaryChain()
		if err != nil {
			return false
		}
		nLens := 2 + r.IntN(4)
		lengths := make([]int, nLens)
		for i := range lengths {
			lengths[i] = 3 + r.IntN(60)
		}
		eps := 0.5 + 2*r.Float64()
		class, err := markov.NewFinite([]markov.Chain{chain}, lengths[0])
		if err != nil {
			return false
		}
		multi := exactMulti(t, nil, class, eps, ExactOptions{}, lengths)
		return checkMultiOracle(t, "exact", multi, perLengthScores(t, class, lengths, exactOracle(eps, ExactOptions{})))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestSigmaLengthHump documents why multi-length scoring exists: σ(T)
// need not peak at the longest chain. We assert only the safe
// direction — the multi score is at least the longest-chain score.
func TestSigmaLengthHump(t *testing.T) {
	chain, err := markov.BinaryChain(0.5, 0.9, 0.85).StationaryChain()
	if err != nil {
		t.Fatal(err)
	}
	lengths := []int{5, 10, 20, 40, 80, 160, 320, 640}
	class, err := markov.NewFinite([]markov.Chain{chain}, 640)
	if err != nil {
		t.Fatal(err)
	}
	eps := 1.0
	multi := exactMulti(t, nil, class, eps, ExactOptions{}, lengths)
	longest, err := ExactScore(class, eps, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if multi.Sigma < longest.Sigma-1e-9 {
		t.Errorf("multi σ %v below longest-chain σ %v", multi.Sigma, longest.Sigma)
	}
}

// TestApproxMultiEqualsMaxOverSingletons mirrors the exact test for
// Algorithm 4.
func TestApproxMultiEqualsMaxOverSingletons(t *testing.T) {
	chain, err := markov.BinaryChain(0.5, 0.8, 0.7).StationaryChain()
	if err != nil {
		t.Fatal(err)
	}
	lengths := []int{12, 25, 60, 200, 900}
	class, err := markov.NewFinite([]markov.Chain{chain}, 900)
	if err != nil {
		t.Fatal(err)
	}
	eps := 1.0
	multi := approxMulti(t, nil, class, eps, ApproxOptions{}, lengths)
	checkMultiOracle(t, "approx", multi, perLengthScores(t, class, lengths, approxOracle(eps, ApproxOptions{})))
}

// TestMultiValidation: the approximate scorer rejects a bad length
// multiset as the exact one does (TestMultiBatchValidation).
func TestMultiValidation(t *testing.T) {
	chain := markov.BinaryChain(0.5, 0.8, 0.7)
	class, _ := markov.NewFinite([]markov.Chain{chain}, 10)
	if _, err := ApproxScoreMultiBatch(nil, []MultiSpec{{Class: class}}, 1, ApproxOptions{}); err == nil {
		t.Error("empty lengths accepted")
	}
	if _, err := ApproxScoreMultiBatch(nil, []MultiSpec{{Class: class, Lengths: []int{5, 0}}}, 1, ApproxOptions{}); err == nil {
		t.Error("zero length accepted")
	}
}

// TestMultiBatchGoldenVsSequential: every spec of a multi-spec batch
// must match the brute-force oracle run on that spec alone, for both
// mechanisms.
func TestMultiBatchGoldenVsSequential(t *testing.T) {
	r := rand.New(rand.NewPCG(17, 18))
	var specs []MultiSpec
	for i := 0; i < 5; i++ {
		chain, err := markov.BinaryChain(0.5, 0.3+0.5*r.Float64(), 0.3+0.5*r.Float64()).StationaryChain()
		if err != nil {
			t.Fatal(err)
		}
		lengths := make([]int, 2+r.IntN(4))
		for j := range lengths {
			lengths[j] = 1 + r.IntN(80)
		}
		class, err := markov.NewFinite([]markov.Chain{chain}, lengths[0])
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, MultiSpec{Class: class, Lengths: lengths})
	}
	eps := 1.3

	exactBatch, err := ExactScoreMultiBatch(nil, specs, eps, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	approxBatch, err := ApproxScoreMultiBatch(nil, specs, eps, ApproxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		checkMultiOracle(t, "exact", exactBatch[i], perLengthScores(t, spec.Class, spec.Lengths, exactOracle(eps, ExactOptions{})))
		checkMultiOracle(t, "approx", approxBatch[i], perLengthScores(t, spec.Class, spec.Lengths, approxOracle(eps, ApproxOptions{})))
	}
}

// TestMultiBatchDedupAcrossSpecs: specs sharing a fitted model and
// length multiset must cost one scoring pass, not one per spec.
func TestMultiBatchDedupAcrossSpecs(t *testing.T) {
	chain, err := markov.BinaryChain(0.5, 0.9, 0.85).StationaryChain()
	if err != nil {
		t.Fatal(err)
	}
	class, err := markov.NewFinite([]markov.Chain{chain}, 40)
	if err != nil {
		t.Fatal(err)
	}
	lengths := []int{7, 19, 40}
	specs := make([]MultiSpec, 6)
	for i := range specs {
		specs[i] = MultiSpec{Class: class, Lengths: lengths}
	}
	cache := NewScoreCache()
	scores, err := ExactScoreMultiBatch(cache, specs, 1, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(scores); i++ {
		if scores[i] != scores[0] {
			t.Errorf("spec %d score %+v != spec 0 %+v", i, scores[i], scores[0])
		}
	}
	// Every distinct (class, length) is counted as one miss per batch
	// phase; identical specs add lookups but no extra misses.
	stats := cache.Stats()
	if stats.Misses > int64(len(lengths)) {
		t.Errorf("misses = %d, want ≤ %d distinct length-classes", stats.Misses, len(lengths))
	}
	// A re-run over the warm cache is pure hits.
	warm, err := ExactScoreMultiBatch(cache, specs, 1, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if warm[0] != scores[0] {
		t.Errorf("warm score %+v != cold %+v", warm[0], scores[0])
	}
	after := cache.Stats()
	if after.Misses != stats.Misses {
		t.Errorf("warm run added misses: %d -> %d", stats.Misses, after.Misses)
	}
	if after.Hits <= stats.Hits {
		t.Errorf("warm run added no hits: %d -> %d", stats.Hits, after.Hits)
	}
}

func TestMultiBatchValidation(t *testing.T) {
	chain := markov.BinaryChain(0.5, 0.8, 0.7)
	class, err := markov.NewFinite([]markov.Chain{chain}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := ExactScoreMultiBatch(nil, nil, 1, ExactOptions{}); err != nil || out != nil {
		t.Errorf("empty specs: (%v, %v), want (nil, nil)", out, err)
	}
	if _, err := ExactScoreMultiBatch(nil, []MultiSpec{{Class: class}}, 1, ExactOptions{}); err == nil {
		t.Error("empty lengths accepted")
	}
	if _, err := ExactScoreMultiBatch(nil, []MultiSpec{{Class: class, Lengths: []int{5, 0}}}, 1, ExactOptions{}); err == nil {
		t.Error("zero length accepted")
	}
	if _, err := ExactScoreMultiBatch(nil, []MultiSpec{{Class: nil, Lengths: []int{5}}}, 1, ExactOptions{}); err == nil {
		t.Error("nil class accepted")
	}
}

// TestMultiBatchSingleSpec: a one-element batch — the form every
// single release scores through — must match the brute-force oracle,
// for both mechanisms, with and without a cache.
func TestMultiBatchSingleSpec(t *testing.T) {
	chain, err := markov.BinaryChain(0.5, 0.85, 0.75).StationaryChain()
	if err != nil {
		t.Fatal(err)
	}
	class, err := markov.NewFinite([]markov.Chain{chain}, 30)
	if err != nil {
		t.Fatal(err)
	}
	lengths := []int{4, 30, 11}
	eps := 0.8
	exactWant := perLengthScores(t, class, lengths, exactOracle(eps, ExactOptions{}))
	approxWant := perLengthScores(t, class, lengths, approxOracle(eps, ApproxOptions{}))
	for _, cache := range []*ScoreCache{nil, NewScoreCache()} {
		checkMultiOracle(t, "exact", exactMulti(t, cache, class, eps, ExactOptions{}, lengths), exactWant)
		checkMultiOracle(t, "approx", approxMulti(t, cache, class, eps, ApproxOptions{}, lengths), approxWant)
	}
}

// TestMultiBatchAllDuplicatesOneSweep: N specs with identical
// fingerprints and a single shared length must cost exactly one
// scoring sweep (one cache miss) no matter how large N is.
func TestMultiBatchAllDuplicatesOneSweep(t *testing.T) {
	chain, err := markov.BinaryChain(0.5, 0.9, 0.8).StationaryChain()
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]MultiSpec, 12)
	for i := range specs {
		// Distinct Class values (fresh lengthClass wrappers arise per
		// spec inside the batch) but identical fingerprints.
		dup, err := markov.NewFinite([]markov.Chain{chain}, 25)
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = MultiSpec{Class: dup, Lengths: []int{25}}
	}
	cache := NewScoreCache()
	scores, err := ExactScoreMultiBatch(cache, specs, 1, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range scores {
		if scores[i] != scores[0] {
			t.Fatalf("spec %d score %+v != spec 0 %+v", i, scores[i], scores[0])
		}
	}
	if misses := cache.Stats().Misses; misses != 1 {
		t.Errorf("12 duplicate specs cost %d sweeps (cache misses), want exactly 1", misses)
	}
	if cache.Len() != 1 {
		t.Errorf("cache holds %d entries, want 1", cache.Len())
	}
}
