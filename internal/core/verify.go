package core

import (
	"fmt"
	"math"

	"pufferfish/internal/dist"
	"pufferfish/internal/laplace"
	"pufferfish/internal/markov"
)

// VerifyChainPufferfish analytically checks Definition 2.1 for an
// additive-Laplace release of the integer-weighted count query
// F(X) = Σ_t w[X_t] on a chain class: for every θ ∈ Θ, every secret
// pair (X_i = a, X_i = b) with both secrets of positive probability,
// and every output w on an evaluation grid, the output densities
//
//	P(M(X) = w | s, θ) = Σ_t P(F = t | s, θ) · Lap_scale(w − t)
//
// must have a log-ratio within [−ε − slack, ε + slack].
//
// It computes the conditional distributions of F exactly (dynamic
// programming, no Monte-Carlo), so it is a genuine end-to-end check of
// Theorems 3.2/4.3 for the scales the mechanisms choose. They come
// from the scorers' own path, one markov.Chain.CountDistSweep per θ:
// O(k³·T³·(wMax−wMin)) time per θ, plus the density evaluations on the
// grid. Intended for tests on small chains.
func VerifyChainPufferfish(class markov.Class, w []int, scale, eps, slack float64, grid []float64) error {
	if err := checkEpsilon(eps); err != nil {
		return err
	}
	if scale <= 0 {
		return fmt.Errorf("core: invalid noise scale %v", scale)
	}
	T := class.T()
	k := class.K()
	noise := laplace.New(scale)
	for ti, theta := range class.Chains() {
		marg := theta.Marginals(T)
		// Conditional distributions of F for each admissible value,
		// indexed (i−1)·k + a.
		admissible := make([]bool, T*k)
		for i := 1; i <= T; i++ {
			for a := 0; a < k; a++ {
				admissible[(i-1)*k+a] = marg[i-1][a] > 0
			}
		}
		conds := make([]dist.Discrete, T*k)
		if err := theta.CountDistSweep(T, w, 1, T, admissible, conds); err != nil {
			return err
		}
		for i := 1; i <= T; i++ {
			ok, at := admissible[(i-1)*k:i*k], conds[(i-1)*k:i*k]
			for a := 0; a < k; a++ {
				for b := a + 1; b < k; b++ {
					if !ok[a] || !ok[b] {
						continue
					}
					for _, out := range grid {
						pa := releaseDensity(at[a], noise, out)
						pb := releaseDensity(at[b], noise, out)
						//privlint:allow floatcompare exact-zero densities on both sides make the ratio vacuous
						if pa == 0 && pb == 0 {
							continue
						}
						logRatio := math.Log(pa / pb)
						if math.Abs(logRatio) > eps+slack {
							return fmt.Errorf(
								"core: privacy violated: θ_%d, node %d, pair (%d,%d), output %.3f: |log ratio| = %.4f > ε = %.4f",
								ti, i, a, b, out, math.Abs(logRatio), eps)
						}
					}
				}
			}
		}
	}
	return nil
}

// releaseDensity returns the density of F + Lap(scale) at out given
// the exact distribution of F.
func releaseDensity(d dist.Discrete, noise laplace.Dist, out float64) float64 {
	var p float64
	for idx := 0; idx < d.Len(); idx++ {
		x, mass := d.Atom(idx)
		p += mass * noise.PDF(out-x)
	}
	return p
}

// MinimalPrivateScale searches (by bisection) for the smallest Laplace
// scale that passes VerifyChainPufferfish on the grid — used by tests
// to confirm the mechanisms are not wildly over- or under-noising
// relative to the information-theoretic requirement on small
// instances.
func MinimalPrivateScale(class markov.Class, w []int, eps float64, grid []float64) (float64, error) {
	lo, hi := 1e-3, 1e6
	if err := VerifyChainPufferfish(class, w, hi, eps, 1e-9, grid); err != nil {
		return 0, fmt.Errorf("core: even scale %v is not private: %w", hi, err)
	}
	for iter := 0; iter < 60; iter++ {
		mid := math.Sqrt(lo * hi)
		if VerifyChainPufferfish(class, w, mid, eps, 1e-9, grid) == nil {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}
