package core

import (
	"pufferfish/internal/markov"
	"pufferfish/internal/query"
)

// stateFreqQuery returns the F(X) = (1/T)·Σ X_i query of the
// synthetic experiments for binary data of length T.
func stateFreqQuery(T int) query.Query {
	return query.StateFrequency{State: 1, N: T}
}

// cachedExact scores one class through the cache: ScoreBatch over a
// batch of one.
func cachedExact(cache *ScoreCache, class markov.Class, eps float64, opt ExactOptions) (ChainScore, error) {
	s, err := ScoreBatch(cache, []markov.Class{class}, eps, opt)
	if err != nil {
		return ChainScore{}, err
	}
	return s[0], nil
}

// cachedApprox is cachedExact for MQMApprox.
func cachedApprox(cache *ScoreCache, class markov.Class, eps float64, opt ApproxOptions) (ChainScore, error) {
	s, err := ApproxScoreBatch(cache, []markov.Class{class}, eps, opt)
	if err != nil {
		return ChainScore{}, err
	}
	return s[0], nil
}
