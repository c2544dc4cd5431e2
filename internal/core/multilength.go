package core

import (
	"fmt"
	"sort"

	"pufferfish/internal/markov"
)

// The activity datasets are collections of independent chains (one per
// wear session) of different lengths. The Section 4.1 instantiation
// protects every node of every chain, so the database's noise score is
//
//	σ_max = max over distinct session lengths T of σ_max(T).
//
// σ(T) is not monotone in T in general — small T is capped by the
// trivial quilt's T/ε, while large T unlocks wider (better) quilts —
// so scoring only the longest chain is not sound in corner cases.
// ExactScoreMultiBatch and ApproxScoreMultiBatch evaluate every
// distinct length below the quilt-width plateau and one representative
// above it: once T ≥ 2ℓ+1, the middle node's quilt family no longer
// depends on T and one-sided/trivial scores only grow, so σ(T) is
// constant beyond the plateau whenever the active quilt there is an
// interior two-sided quilt (the Lemma C.4 situation); if it is not,
// lengths are evaluated individually.

// lengthClass reuses a class's chains with a different chain length.
type lengthClass struct {
	markov.Class
	t int
}

func (lc lengthClass) T() int { return lc.t }

// WithLength returns a view of class whose chain length is t, leaving
// everything else (chains, π^min, gap) untouched. It is the building
// block of every multi-length scorer, exported for the Kantorovich
// subsystem, whose per-length sweeps need the same view.
func WithLength(class markov.Class, t int) markov.Class {
	return lengthClass{Class: class, t: t}
}

// distinctScoringLengths reduces a length multiset to the lengths that
// can yield distinct scores: everything below the plateau, plus the
// maximum.
func distinctScoringLengths(lengths []int, plateau int) ([]int, error) {
	if len(lengths) == 0 {
		return nil, fmt.Errorf("core: no chain lengths")
	}
	seen := map[int]bool{}
	maxLen := 0
	var out []int
	for _, l := range lengths {
		if l < 1 {
			return nil, fmt.Errorf("core: invalid chain length %d", l)
		}
		if l > maxLen {
			maxLen = l
		}
		if l < plateau && !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	if maxLen >= plateau {
		out = append(out, maxLen)
	}
	sort.Ints(out)
	return out, nil
}

// MultiSpec is one multi-length scoring request: a class governing a
// database of independent chains plus that database's chain-length
// multiset. The class's own T is ignored.
type MultiSpec struct {
	Class   markov.Class
	Lengths []int
}

// ExactScoreMultiBatch computes Algorithm 3's σ_max for every spec
// through shared ScoreBatch invocations, so length-classes with
// identical fingerprints — the same fitted model at the same session
// length, whether within one spec or across specs — are scored once.
// cache may be nil. The returned scores align with specs; each is the
// per-length score of one of its spec's lengths, bit for bit, at every
// parallelism.
func ExactScoreMultiBatch(cache *ScoreCache, specs []MultiSpec, eps float64, opt ExactOptions) ([]ChainScore, error) {
	return multiScoreBatch(specs, func(classes []markov.Class) ([]ChainScore, error) {
		return ScoreBatch(cache, classes, eps, opt)
	})
}

// ApproxScoreMultiBatch is ExactScoreMultiBatch for Algorithm 4.
func ApproxScoreMultiBatch(cache *ScoreCache, specs []MultiSpec, eps float64, opt ApproxOptions) ([]ChainScore, error) {
	return multiScoreBatch(specs, func(classes []markov.Class) ([]ChainScore, error) {
		return ApproxScoreBatch(cache, classes, eps, opt)
	})
}

// multiScoreBatch is the multi-length algorithm, run over many specs
// with two batched scoring phases: every spec's maximum length first
// (its active quilt fixes the spec's plateau), then the remaining
// distinct below-plateau lengths of all specs together. Per spec the
// result is the strict-inequality max over its per-length scores,
// taken in ascending length order after the maximum length.
func multiScoreBatch(specs []MultiSpec, scoreAll func([]markov.Class) ([]ChainScore, error)) ([]ChainScore, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	maxLens := make([]int, len(specs))
	tops := make([]markov.Class, len(specs))
	for i, spec := range specs {
		if spec.Class == nil {
			return nil, fmt.Errorf("core: spec %d: nil class", i)
		}
		if len(spec.Lengths) == 0 {
			return nil, fmt.Errorf("core: spec %d: no chain lengths", i)
		}
		maxLen := spec.Lengths[0]
		for _, l := range spec.Lengths[1:] {
			if l > maxLen {
				maxLen = l
			}
		}
		if maxLen < 1 {
			return nil, fmt.Errorf("core: spec %d: invalid chain length %d", i, maxLen)
		}
		maxLens[i] = maxLen
		tops[i] = lengthClass{Class: spec.Class, t: maxLen}
	}
	topScores, err := scoreAll(tops)
	if err != nil {
		return nil, err
	}

	// Phase 2: the distinct lengths below each spec's plateau, flattened
	// across specs so equal (class, length) pairs dedupe in one batch.
	var restSpec []int // restClasses[j] belongs to spec restSpec[j]
	var restClasses []markov.Class
	for i, spec := range specs {
		top := topScores[i]
		plateau := 2*top.Ell + 1
		if !(top.Quilt.A > 0 && top.Quilt.B > 0) {
			// The max-length active quilt is not interior two-sided, so
			// the constant-beyond-plateau argument does not apply; score
			// every distinct length.
			plateau = maxLens[i] + 1
		}
		distinct, err := distinctScoringLengths(spec.Lengths, plateau)
		if err != nil {
			return nil, err
		}
		for _, l := range distinct {
			if l == maxLens[i] {
				continue // already scored in phase 1
			}
			restSpec = append(restSpec, i)
			restClasses = append(restClasses, lengthClass{Class: spec.Class, t: l})
		}
	}
	out := topScores
	if len(restClasses) == 0 {
		return out, nil
	}
	scores, err := scoreAll(restClasses)
	if err != nil {
		return nil, err
	}
	for j, i := range restSpec {
		if scores[j].Sigma > out[i].Sigma {
			out[i] = scores[j]
		}
	}
	return out, nil
}
