package core

import (
	"fmt"
	"math"
	"math/rand/v2"

	"pufferfish/internal/markov"
	"pufferfish/internal/matrix"
	"pufferfish/internal/query"
)

// GK16 is a reconstruction of the concurrent mechanism of Ghosh &
// Kleinberg, "Inferential privacy guarantees for differentially
// private mechanisms" (arXiv:1603.01508), reference [14] of the paper,
// built from the descriptions in Sections 1.1, 5.1 and 5.4 (no
// reference implementation exists; see DESIGN.md §2.3):
//
//   - For each θ, an *influence matrix* Γ ∈ ℝ^{T×T} is computed from
//     local transitions between successive time steps (the property
//     Section 5.4 identifies as its limitation): Γ[t][t−1] is half the
//     worst-case log-ratio of the forward kernel rows,
//     γ_f = ½·max_{x,x',y} log P(y|x)/P(y|x'), and Γ[t][t+1] the same
//     for the backward (time-reversal) kernel.
//   - The mechanism applies only when ‖Γ‖₂ < 1, and then runs the
//     entry-DP Laplace mechanism at a reduced budget
//     ε′ = ε/‖(I−Γ)⁻¹‖_∞, i.e. noise scale L·‖(I−Γ)⁻¹‖_∞/ε, which
//     grows without bound as the spectral norm approaches 1 — matching
//     the qualitative behaviour reported in the paper.
//
// For a class Θ, the scale is the worst case over θ, and the mechanism
// is inapplicable if any θ fails the spectral condition.

// GK16Score holds the noise-scale computation of the GK16 baseline.
type GK16Score struct {
	// Sigma is ‖(I−Γ)⁻¹‖_∞/ε: the Laplace scale of the release is
	// Lipschitz·Sigma, making it directly comparable to ChainScore.
	Sigma float64
	// SpectralNorm is the worst ‖Γ‖₂ over the class.
	SpectralNorm float64
	// ForwardInfluence and BackwardInfluence are the worst γ_f, γ_b.
	ForwardInfluence, BackwardInfluence float64
}

// ErrGK16Inapplicable is wrapped by GK16SigmaClass when the spectral
// condition fails, mirroring the N/A entries of Tables 1–3.
var ErrGK16Inapplicable = fmt.Errorf("core: GK16 inapplicable: influence matrix has spectral norm ≥ 1")

// GK16SigmaClass computes the GK16 noise multiplier for a chain class,
// taking the worst case over Chains().
func GK16SigmaClass(class markov.Class, eps float64) (GK16Score, error) {
	if err := validateChainClass(class, eps); err != nil {
		return GK16Score{}, err
	}
	worst := GK16Score{}
	for _, theta := range class.Chains() {
		sc, err := gk16Theta(theta, class.T(), eps)
		if err != nil {
			return GK16Score{}, err
		}
		if sc.Sigma > worst.Sigma {
			worst = sc
		}
	}
	return worst, nil
}

func gk16Theta(theta markov.Chain, T int, eps float64) (GK16Score, error) {
	gammaF, err := halfMaxLogRatio(theta.P)
	if err != nil {
		return GK16Score{}, fmt.Errorf("%w (unbounded forward influence)", ErrGK16Inapplicable)
	}
	rev, err := theta.TimeReversal()
	if err != nil {
		// Reducible or zero-mass chains have no well-defined backward
		// kernel; the mechanism cannot certify anything.
		return GK16Score{}, fmt.Errorf("%w (time reversal undefined: %v)", ErrGK16Inapplicable, err)
	}
	gammaB, err := halfMaxLogRatio(rev)
	if err != nil {
		return GK16Score{}, fmt.Errorf("%w (unbounded backward influence)", ErrGK16Inapplicable)
	}

	snorm := gk16GammaNorm(gammaF, gammaB, T)
	if snorm >= 1 {
		return GK16Score{}, fmt.Errorf("%w (‖Γ‖₂ = %.4f)", ErrGK16Inapplicable, snorm)
	}

	// Row sums of (I−Γ)⁻¹ via one tridiagonal solve (I−Γ)x = 1.
	tri := matrix.Tridiagonal{
		Sub:   make([]float64, T),
		Diag:  make([]float64, T),
		Super: make([]float64, T),
	}
	ones := make([]float64, T)
	for t := 0; t < T; t++ {
		tri.Diag[t] = 1
		if t > 0 {
			tri.Sub[t] = -gammaF
		}
		if t < T-1 {
			tri.Super[t] = -gammaB
		}
		ones[t] = 1
	}
	x, err := matrix.SolveTridiagonal(tri, ones)
	if err != nil {
		return GK16Score{}, fmt.Errorf("core: GK16 solve failed: %v", err)
	}
	mult := 0.0
	for _, v := range x {
		if math.Abs(v) > mult {
			mult = math.Abs(v)
		}
	}
	return GK16Score{
		Sigma:             mult / eps,
		SpectralNorm:      snorm,
		ForwardInfluence:  gammaF,
		BackwardInfluence: gammaB,
	}, nil
}

// halfMaxLogRatio returns ½·max_{x,x',y} log K(x,y)/K(x',y) for a
// stochastic kernel K, or an error when the ratio is unbounded (some
// transition probability is zero while another row's is not).
func halfMaxLogRatio(kernel *matrix.Dense) (float64, error) {
	k, _ := kernel.Dims()
	worst := 0.0
	for y := 0; y < k; y++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for x := 0; x < k; x++ {
			v := kernel.At(x, y)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		//privlint:allow floatcompare exact zero means the column was never touched
		if hi == 0 {
			continue // column never used
		}
		if lo <= 0 {
			return 0, fmt.Errorf("core: unbounded influence (zero transition probability)")
		}
		if r := math.Log(hi/lo) / 2; r > worst {
			worst = r
		}
	}
	return worst, nil
}

// gk16GammaNorm returns ‖Γ‖₂ for the T×T tridiagonal influence
// matrix with constant bands γ_f (sub-diagonal) and γ_b
// (super-diagonal).
//
// For the symmetric case γ_f = γ_b = γ the norm is exactly
// 2γ·cos(π/(T+1)); in general the Schur test gives the two-sided
// bracket 2√(γ_f·γ_b)·cos(π/(T+1)) ≤ ‖Γ‖₂ ≤ γ_f + γ_b, and the norm
// converges (from below) to the bi-infinite Toeplitz-symbol value
// γ_f + γ_b as T grows. The chains in the experiments have T ≥ 100,
// where the finite-size deviation is below 0.05%, so the applicability
// rule of this reconstruction is defined by the (conservative)
// Toeplitz limit — with the exact cosine correction in the symmetric
// case.
func gk16GammaNorm(gammaF, gammaB float64, T int) float64 {
	limit := gammaF + gammaB
	if T < 2 {
		return 0
	}
	//privlint:allow floatcompare exact symmetric case tightens the bound; inexact falls back conservatively
	if gammaF == gammaB {
		return limit * math.Cos(math.Pi/float64(T+1))
	}
	return limit
}

// GK16Release runs the reconstructed GK16 mechanism end to end.
func GK16Release(data []int, q query.Query, class markov.Class, eps float64, rng *rand.Rand) (Release, GK16Score, error) {
	score, err := GK16SigmaClass(class, eps)
	if err != nil {
		return Release{}, GK16Score{}, err
	}
	exact, err := q.Evaluate(data)
	if err != nil {
		return Release{}, GK16Score{}, err
	}
	scale := q.Lipschitz() * score.Sigma
	return Release{
		Values:     addLaplace(exact, scale, rng),
		NoiseScale: scale,
		Sigma:      score.Sigma,
		Epsilon:    eps,
		Mechanism:  "GK16",
	}, score, nil
}
