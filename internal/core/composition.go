package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"pufferfish/internal/accounting"
	"pufferfish/internal/markov"
	"pufferfish/internal/query"
)

// Composition tracks repeated Markov Quilt releases over the same
// database and accounts for the cumulative privacy loss per
// Theorem 4.4 (sequential composition): K releases at parameters
// ε_1 … ε_K, made with the same quilt sets S_{Q,i}, satisfy
// K·max_k ε_k Pufferfish privacy. Every successful release is charged
// to an accounting.Ledger, which reports that linear bound alongside
// the tighter Rényi (ε, δ) of Pierquin et al. (arXiv:2312.13985).
//
// Pufferfish in general does not compose (Section 4.3) — the theorem
// hinges on every release using the same active quilts, which holds
// when ε and the quilt sets are shared. Composition enforces the
// shared-quilt-set discipline by pinning the class, options, and the
// score computed on first use.
type Composition struct {
	class    markov.Class
	exactOpt ExactOptions
	useExact bool
	score    *ChainScore
	// scoreEps is the ε the pinned score was computed at. It is
	// tracked separately from the release history so a release that
	// fails after scoring (bad data, overflowing scale) cannot leave a
	// later release at a different ε running on σ(scoreEps) unrescaled.
	scoreEps float64
	cache    *ScoreCache
	ledger   *accounting.Ledger
}

// NewExactComposition returns a composition manager whose releases use
// MQMExact with the given options.
func NewExactComposition(class markov.Class, opt ExactOptions) *Composition {
	return &Composition{class: class, exactOpt: opt, useExact: true}
}

// NewApproxComposition returns a composition manager whose releases
// use MQMApprox with automatic options.
func NewApproxComposition(class markov.Class) *Composition {
	return &Composition{class: class}
}

// WithCache attaches a shared ScoreCache and returns the composition
// for chaining. The first Release then consults the cache before
// scoring, so composition-heavy workloads — many sessions over the
// same class, each with its own accounting — pay the scoring sweep
// once across all of them. A nil cache is a no-op. The cached and
// uncached paths produce bit-identical scores (and hence, for a fixed
// seed, bit-identical releases): the cache stores the engine's
// deterministic output verbatim.
func (c *Composition) WithCache(cache *ScoreCache) *Composition {
	c.cache = cache
	return c
}

// WithAccountant replaces the ledger that releases are charged to and
// returns the composition for chaining. The default is a fresh ledger
// at accounting.DefaultDelta, and a nil ledger restores it. The ledger
// never changes the released values, only how the cumulative loss is
// reported — unless its ceiling or journal refuses a charge, in which
// case Release returns that error and no values. Swapping after
// releases have been recorded would silently discard privacy history,
// the unsafe direction for an accountant, so it panics; choose the
// ledger before the first Release.
func (c *Composition) WithAccountant(led *accounting.Ledger) *Composition {
	if c.ledger != nil && c.ledger.Count() > 0 {
		panic("core: WithAccountant after releases were recorded would discard privacy history")
	}
	c.ledger = led
	return c
}

// Accountant returns the ledger releases are charged to, constructing
// the default on first use.
func (c *Composition) Accountant() *accounting.Ledger {
	if c.ledger == nil {
		c.ledger = accounting.NewLedger(accounting.DefaultDelta)
	}
	return c.ledger
}

// Release publishes one more query at privacy parameter eps. All
// releases share the Markov quilt sets (same ℓ, same class), so
// Theorem 4.4 applies. The first call fixes the score; subsequent
// calls at different ε rescale the same active quilt's score rather
// than re-searching, preserving the shared-active-quilt condition of
// Definition 4.5.
func (c *Composition) Release(data []int, q query.Query, eps float64, rng *rand.Rand) (Release, error) {
	if err := checkEpsilon(eps); err != nil {
		return Release{}, err
	}
	if c.class == nil {
		return Release{}, errors.New("core: composition has no class")
	}
	if c.score == nil {
		var scores []ChainScore
		var err error
		// A batch of one: the cache (nil when none is attached) is
		// consulted first, and the inner pool gets every worker.
		classes := []markov.Class{c.class}
		if c.useExact {
			scores, err = ScoreBatch(c.cache, classes, eps, c.exactOpt)
		} else {
			scores, err = ApproxScoreBatch(c.cache, classes, eps, ApproxOptions{})
		}
		if err != nil {
			return Release{}, err
		}
		score := scores[0]
		if math.IsInf(score.Sigma, 1) {
			return Release{}, fmt.Errorf("core: composition inapplicable: σ = ∞")
		}
		c.score = &score
		c.scoreEps = eps
	}
	score := *c.score
	//privlint:allow floatcompare compares against the exact eps the score was computed at
	if eps != c.scoreEps {
		// Re-score the pinned active quilt at the new ε (Theorem 4.4's
		// K·max ε_k accounting permits varying ε with fixed quilts).
		// The guard compares against the ε the score was computed at —
		// not the first *successful* release's ε — so a first release
		// that failed after scoring still forces the rescale here.
		sigma := quiltScore(score.Quilt.CardN(score.Node, c.class.T()), score.Influence, eps)
		if math.IsInf(sigma, 1) {
			return Release{}, fmt.Errorf("core: pinned quilt has influence %.4f ≥ ε = %v", score.Influence, eps)
		}
		score.Sigma = sigma
	}
	rel, err := releaseWithScore(data, q, score, eps, "MQM(composed)", rng)
	if err != nil {
		return Release{}, err
	}
	// Charge before returning: a release the ledger refuses (ceiling,
	// journal) is never handed out.
	if err := c.Accountant().Add(accounting.Entry{Kind: accounting.KindPure, Eps: eps}); err != nil {
		return Release{}, err
	}
	return rel, nil
}

// Count returns the number of releases made so far.
func (c *Composition) Count() int { return c.Accountant().Count() }

// TotalEpsilon returns Theorem 4.4's K·max_k ε_k over the releases
// made so far (0 before any). The ledger's Rényi ε at δ is
// Accountant().Epsilon(δ).
func (c *Composition) TotalEpsilon() float64 { return c.Accountant().LinearEpsilon() }
